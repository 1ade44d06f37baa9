package sim

import (
	"testing"
	"testing/quick"
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
	if n := testing.AllocsPerRun(1000, func() {
		q.Push(v)
		q.Push(v)
		q.Pop()
		q.Pop()
	}); n != 0 {
		t.Fatalf("steady-state push/pop allocates %.1f objects per cycle, want 0", n)
	}
	if q.Len() != 5 {
		t.Fatalf("len = %d, want 5", q.Len())
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
