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
	waiters Queue[func()]
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

// Acquire requests a token and invokes fn once it is granted, at once
// if one is free and nobody is queued. Grants are strictly FIFO, which
// models in-order link-level credit flow.
//
//simlint:hotpath
func (t *TokenPool) Acquire(fn func()) {
	if t.waiters.Len() == 0 && t.avail > 0 {
		t.avail--
		fn()
		return
	}
	t.waiters.Push(fn)
}

// Release returns a token, granting it to the oldest waiter if there
// is one.
//
//simlint:hotpath
func (t *TokenPool) Release() {
	if t.avail == t.cap {
		panic(fmt.Sprintf("sim: token pool %q: released above capacity %d", t.name, t.cap))
	}
	if t.waiters.Len() > 0 {
		t.waiters.Pop()()
		return
	}
	t.avail++
}
