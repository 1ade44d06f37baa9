package sim

import "fmt"

// TokenPool models credit-based flow control: a sender must acquire a
// token before injecting a unit of traffic, and the receiver returns
// the token once it drains the unit. Waiters are served FIFO, which is
// what gives BlueDBM's links their per-link ordering property.
type TokenPool struct {
	name  string
	avail int
	cap   int

	// FIFO of blocked acquirers. The ring's backing array is reused
	// across block/unblock cycles so steady-state Acquire does not
	// allocate.
	waiters Queue[waiter]
}

type waiter struct {
	n  int
	fn func()
}

// NewTokenPool creates a pool holding n tokens.
func NewTokenPool(name string, n int) *TokenPool {
	if n < 0 {
		panic(fmt.Sprintf("sim: token pool %q: negative capacity %d", name, n))
	}
	return &TokenPool{name: name, avail: n, cap: n}
}

// Available returns the number of free tokens.
//
//simlint:allow unused (probe: the hostif tests check that every read buffer comes home)
func (t *TokenPool) Available() int { return t.avail }

// Acquire requests n tokens and invokes fn once they are granted.
// Grants are strictly FIFO: a small request queued behind a large one
// waits (no overtaking), which models in-order link-level credit flow.
// fn runs synchronously if tokens are available and nobody is queued.
//
//simlint:hotpath
func (t *TokenPool) Acquire(n int, fn func()) {
	if n < 0 {
		panic(fmt.Sprintf("sim: token pool %q: negative acquire %d", t.name, n))
	}
	if n > t.cap {
		panic(fmt.Sprintf("sim: token pool %q: acquire %d exceeds capacity %d", t.name, n, t.cap))
	}
	if t.waiters.Len() == 0 && t.avail >= n {
		t.avail -= n
		fn()
		return
	}
	t.waiters.Push(waiter{n: n, fn: fn})
}

// Release returns n tokens and serves queued waiters in order.
//
//simlint:hotpath
func (t *TokenPool) Release(n int) {
	if n < 0 {
		panic(fmt.Sprintf("sim: token pool %q: negative release %d", t.name, n))
	}
	t.avail += n
	if t.avail > t.cap {
		panic(fmt.Sprintf("sim: token pool %q: released above capacity (%d > %d)", t.name, t.avail, t.cap))
	}
	for t.waiters.Len() > 0 && t.avail >= t.waiters.Front().n {
		w := t.waiters.Pop()
		t.avail -= w.n
		w.fn()
	}
}
