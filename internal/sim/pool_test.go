package sim

import (
	"testing"

	"repro/internal/alloctest"
)

type poolRec struct {
	id    int
	bound func() int // stands for a continuation New binds once
}

// newCountingPool returns a pool whose New numbers the records it makes
// and counts its calls in *made.
func newCountingPool(made *int) *Pool[poolRec] {
	p := &Pool[poolRec]{}
	p.New = func() *poolRec {
		r := &poolRec{id: *made}
		r.bound = func() int { return r.id }
		*made++
		return r
	}
	return p
}

// TestPoolLIFOReuse: Get hands back the most recently returned record,
// as it was left, with the continuation New bound still its own.
func TestPoolLIFOReuse(t *testing.T) {
	made := 0
	p := newCountingPool(&made)
	a, b, c := p.Get(), p.Get(), p.Get()
	p.Put(a)
	p.Put(c)
	p.Put(b)
	for i, want := range []*poolRec{b, c, a} {
		got := p.Get()
		if got != want {
			t.Fatalf("Get %d returned record %d, want %d (LIFO)", i, got.id, want.id)
		}
		if got.bound() != got.id {
			t.Fatalf("record %d came back with another record's continuation", got.id)
		}
	}
	if made != 3 {
		t.Fatalf("New ran %d times for 3 records", made)
	}
}

// TestPoolNewRunsOncePerHighWaterRecord: however long the pool is used,
// New runs once for each record of the most ever out at once.
func TestPoolNewRunsOncePerHighWaterRecord(t *testing.T) {
	made := 0
	p := newCountingPool(&made)
	var held []*poolRec
	for round := 0; round < 50; round++ {
		for depth := 0; depth < 1+round%7; depth++ { // high-water mark: 7
			held = append(held, p.Get())
		}
		for _, r := range held {
			p.Put(r)
		}
		held = held[:0]
	}
	if made != 7 {
		t.Fatalf("New ran %d times, want 7: the most records ever out at once", made)
	}
}

// TestPoolOutRisesAndFalls: Out is the number of records taken and not
// returned, whether they came from New or from the free list.
func TestPoolOutRisesAndFalls(t *testing.T) {
	made := 0
	p := newCountingPool(&made)
	if p.Out() != 0 {
		t.Fatalf("a new pool has %d records out", p.Out())
	}
	a, b := p.Get(), p.Get()
	if p.Out() != 2 {
		t.Fatalf("Out = %d after two Gets", p.Out())
	}
	p.Put(a)
	if p.Out() != 1 {
		t.Fatalf("Out = %d after one Put", p.Out())
	}
	c := p.Get() // from the free list
	if c != a || p.Out() != 2 {
		t.Fatalf("Out = %d after a recycled Get", p.Out())
	}
	p.Put(b)
	p.Put(c)
	if p.Out() != 0 {
		t.Fatalf("Out = %d at drain, want 0", p.Out())
	}
}

// TestPoolSteadyStateAllocFree: a pool that has reached its high-water
// mark neither builds a record nor grows its free list again.
func TestPoolSteadyStateAllocFree(t *testing.T) {
	made := 0
	p := newCountingPool(&made)
	var held [4]*poolRec
	cycle := func() {
		for i := range held {
			held[i] = p.Get()
		}
		for _, r := range held {
			p.Put(r)
		}
	}
	cycle()
	if n := alloctest.Mallocs(1000, cycle); n != 0 {
		t.Fatalf("1000 steady-state Get/Put cycles allocate %d objects, want 0", n)
	}
	if made != len(held) || p.Out() != 0 {
		t.Fatalf("made %d records, %d out; want %d and 0", made, p.Out(), len(held))
	}
}
