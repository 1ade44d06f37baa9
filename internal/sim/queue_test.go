package sim

import (
	"testing"
	"testing/quick"

	"repro/internal/alloctest"
)

// Property: against a plain slice as the model, any interleaving of
// pushes, pops and removals from the middle — across ring wraparound
// and growth — holds the same values in the same order.
func TestQueueFIFOProperty(t *testing.T) {
	prop := func(ops []uint8) bool {
		var q Queue[int]
		var model []int
		next := 0
		for _, op := range ops {
			switch {
			case op%4 < 2 || len(model) == 0:
				q.Push(next)
				model = append(model, next)
				next++
			case op%4 == 2:
				if q.Front() != model[0] || q.Pop() != model[0] {
					return false
				}
				model = model[1:]
			default:
				i := int(op/4) % len(model)
				q.RemoveAt(i)
				model = append(model[:i:i], model[i+1:]...)
			}
			if q.Len() != len(model) {
				return false
			}
			for i, want := range model {
				if q.At(i) != want {
					return false
				}
			}
		}
		for _, want := range model {
			if q.Pop() != want {
				return false
			}
		}
		return q.Len() == 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestQueueSteadyStateAllocFree: a queue that never empties — the case
// a head index that only resets on empty cannot handle, and the case
// `q = q[1:]` turns into an allocation every few pops — reuses its ring
// forever once it has reached its high-water mark.
func TestQueueSteadyStateAllocFree(t *testing.T) {
	var q Queue[*int]
	v := new(int)
	for i := 0; i < 5; i++ {
		q.Push(v)
	}
	if n := alloctest.Mallocs(1000, func() {
		q.Push(v)
		q.Push(v)
		q.Pop()
		q.Pop()
	}); n != 0 {
		t.Fatalf("1000 steady-state push/pop cycles allocate %d objects, want 0", n)
	}
	if q.Len() != 5 {
		t.Fatalf("len = %d, want 5", q.Len())
	}
}

// TestQueueRemoveAtOutOfRangePanics: RemoveAt outside [0, Len) panics
// as Pop on an empty queue does, and leaves the queue as it was. Without
// the check, i = Len silently dropped the tail, and an i past the ring
// also zeroed a live slot through the mask.
func TestQueueRemoveAtOutOfRangePanics(t *testing.T) {
	// A wrapped ring: 8 slots, head at 3, six elements 3..8.
	build := func() *Queue[int] {
		var q Queue[int]
		for i := 0; i < 6; i++ {
			q.Push(i)
		}
		for i := 0; i < 3; i++ {
			q.Pop()
			q.Push(6 + i)
		}
		if len(q.buf) != 8 || q.head != 3 {
			t.Fatalf("test premise broken: ring of %d, head %d", len(q.buf), q.head)
		}
		return &q
	}
	for _, i := range []int{6, len(build().buf) + 1, -1} {
		q := build()
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("RemoveAt(%d) on a queue of %d did not panic", i, q.Len())
				}
			}()
			q.RemoveAt(i)
		}()
		if q.Len() != 6 {
			t.Fatalf("RemoveAt(%d): len = %d, want 6", i, q.Len())
		}
		for k := 0; k < 6; k++ {
			if q.At(k) != 3+k {
				t.Fatalf("RemoveAt(%d) changed element %d to %d, want %d", i, k, q.At(k), 3+k)
			}
		}
	}
}

func TestQueuePopDropsReference(t *testing.T) {
	var q Queue[*int]
	q.Push(new(int))
	q.Pop()
	if q.buf[0] != nil {
		t.Fatal("popped slot still references its element")
	}
	q.Push(new(int))
	q.Push(new(int))
	q.RemoveAt(0)
	if q.buf[(q.head+1)&(len(q.buf)-1)] != nil {
		t.Fatal("the slot RemoveAt vacated still references an element")
	}
	q.Pop()
	defer func() {
		if recover() == nil {
			t.Fatal("Pop on an empty queue did not panic")
		}
	}()
	q.Pop()
}
