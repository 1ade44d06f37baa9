package sim

import (
	"runtime"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

// The paper's §4 FIFO request scheduler of a node's acceleration units
// is a TokenPool (ispvol): these tests hold the guarantees it needs
// beyond a link's credits, under grants that acquire and release again
// from inside themselves.

func TestTokenPoolGrantsUpToCapacity(t *testing.T) {
	tp := NewTokenPool("units", 2)
	granted := 0
	for i := 0; i < 5; i++ {
		tp.Acquire(func() { granted++ })
	}
	if granted != 2 {
		t.Fatalf("granted %d, want 2 (the capacity)", granted)
	}
	if tp.Available() != 0 || tp.waiters.Len() != 3 {
		t.Fatalf("available %d, waiting %d; want 0 and 3", tp.Available(), tp.waiters.Len())
	}
	if err := tp.Drained(); err == nil || !strings.Contains(err.Error(), "units: 2 of 2 tokens out, 3 waiters") {
		t.Fatalf("Drained() = %v", err)
	}
}

// TestTokenPoolFIFOAcrossSynchronousReleases: queued grants that each
// release at once drain in arrival order, and the pool is whole after.
func TestTokenPoolFIFOAcrossSynchronousReleases(t *testing.T) {
	tp := NewTokenPool("fifo", 1)
	var order []int
	tp.Acquire(func() {})
	for i := 0; i < 4; i++ {
		tp.Acquire(func() {
			order = append(order, i)
			tp.Release()
		})
	}
	tp.Release()
	if want := []int{0, 1, 2, 3}; !slices.Equal(order, want) {
		t.Fatalf("grants %v, want %v", order, want)
	}
	if err := tp.Drained(); err != nil {
		t.Fatal(err)
	}
}

// TestTokenPoolQueuedGrantOnRelease: with one token, the first acquire
// is granted at once and the second queues; the release of the first
// grants the second.
func TestTokenPoolQueuedGrantOnRelease(t *testing.T) {
	tp := NewTokenPool("grants", 1)
	var grants []int
	tp.Acquire(func() { grants = append(grants, 0) })
	tp.Acquire(func() { grants = append(grants, 1) })
	if !slices.Equal(grants, []int{0}) || tp.waiters.Len() != 1 {
		t.Fatalf("grants %v, waiting %d; want [0] and 1", grants, tp.waiters.Len())
	}
	tp.Release()
	if !slices.Equal(grants, []int{0, 1}) || tp.waiters.Len() != 0 || tp.Available() != 0 {
		t.Fatalf("grants %v, waiting %d, available %d after the release; want [0 1], 0 and 0",
			grants, tp.waiters.Len(), tp.Available())
	}
	tp.Release()
	if err := tp.Drained(); err != nil {
		t.Fatal(err)
	}
}

// TestTokenPoolReleaseAfterUsePanics: a grant released once returns its
// token; releasing it again lifts the pool above capacity and panics.
func TestTokenPoolReleaseAfterUsePanics(t *testing.T) {
	tp := NewTokenPool("p", 1)
	tp.Acquire(func() {})
	tp.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("a second release of one grant did not panic")
		}
		if tp.Available() != 1 {
			t.Fatalf("%d tokens available in a pool of 1", tp.Available())
		}
	}()
	tp.Release()
}

// Property: for any acquire/release interleaving and any capacity of
// 1 to 8, the pool never has more grants out than its capacity, holds
// a token only while nobody waits, runs every acquire once enough
// tokens come back, and is drained once every grant is released.
func TestTokenPoolDrainsUnderAnyInterleavingProperty(t *testing.T) {
	prop := func(ops []bool, capRaw uint8) bool {
		capacity := int(capRaw%8) + 1
		tp := NewTokenPool("q", capacity)
		acquired, granted, released := 0, 0, 0
		for _, acquire := range ops {
			if acquire {
				acquired++
				tp.Acquire(func() { granted++ })
			} else if released < granted {
				tp.Release()
				released++
			}
			out := granted - released
			if out > capacity || tp.Available() != capacity-out ||
				(acquired != granted && tp.Available() != 0) {
				return false
			}
		}
		for ; released < granted; released++ {
			tp.Release()
		}
		return granted == acquired && tp.Drained() == nil
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTokenPoolNegativeCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("a negative capacity did not panic")
		}
	}()
	NewTokenPool("bad", -1)
}

// TestTokenPoolReacquireInsideGrant: an acquire from inside a grant
// goes behind the waiters already queued, whether the grant has
// released yet or not, and the grants' releases keep the count exact.
func TestTokenPoolReacquireInsideGrant(t *testing.T) {
	tp := NewTokenPool("re", 1)
	var order []string
	grant := func(name string, body func()) func() {
		return func() {
			order = append(order, name)
			body()
		}
	}
	tp.Acquire(grant("a", func() {}))
	tp.Acquire(grant("b", func() {
		// c waits: e must run after it.
		tp.Acquire(grant("e", tp.Release))
		tp.Release()
	}))
	tp.Acquire(grant("c", func() {
		// e waits: d must run after it.
		tp.Acquire(grant("d", tp.Release))
		tp.Release()
	}))
	tp.Release()
	if want := "a b c e d"; strings.Join(order, " ") != want {
		t.Fatalf("grants %v, want %s", order, want)
	}
	if err := tp.Drained(); err != nil {
		t.Fatal(err)
	}
}

// TestTokenPoolDeepSynchronousDrain: a long chain of grants that each
// release at once is handed on by Release's one loop. A Release that
// granted the next waiter from inside the last one's release would
// nest two frames per waiter, and the call depth of the last grant
// would grow with the chain.
func TestTokenPoolDeepSynchronousDrain(t *testing.T) {
	tp := NewTokenPool("deep", 1)
	tp.Acquire(func() {})
	const n = 200000
	ran, depth := 0, 0
	var pcs [64]uintptr
	for i := 0; i < n; i++ {
		tp.Acquire(func() {
			ran++
			depth = max(depth, runtime.Callers(0, pcs[:]))
			tp.Release()
		})
	}
	base := runtime.Callers(0, pcs[:])
	tp.Release()
	if ran != n {
		t.Fatalf("ran %d of %d", ran, n)
	}
	if depth > base+4 {
		t.Fatalf("a grant ran %d frames deep, its Release %d: the hand-off recurses", depth, base)
	}
	if tp.Available() != 1 || tp.waiters.Len() != 0 {
		t.Fatalf("available %d, waiting %d after the drain", tp.Available(), tp.waiters.Len())
	}
}

// TestTokenPoolDoubleReleaseWithWaitersPanics: with waiters queued, a
// second release of one grant hands the next waiter a token the pool
// does not have, so one more grant runs than the capacity allows. The
// pool cannot tell that release from a lawful one; it panics no later
// than the release that would lift it above its capacity, and never
// counts more tokens than it holds.
func TestTokenPoolDoubleReleaseWithWaitersPanics(t *testing.T) {
	tp := NewTokenPool("dd", 1)
	running := 0
	tp.Acquire(func() {})
	for i := 0; i < 2; i++ {
		tp.Acquire(func() { running++ })
	}
	tp.Release() // lawful: the first waiter takes the token
	if running != 1 {
		t.Fatalf("%d waiters running, want 1", running)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("releasing every grant after a double release did not panic")
		}
		if tp.Available() > tp.cap {
			t.Fatalf("%d tokens available in a pool of %d", tp.Available(), tp.cap)
		}
	}()
	tp.Release() // the double release: the second waiter runs too
	tp.Release() // the two waiters' releases; the second is one too many
	tp.Release()
}
