package sim

import (
	"testing"
	"testing/quick"
)

func TestEngineOrdering(t *testing.T) {
	e := NewEngine()
	var order []int
	e.After(30*Microsecond, func() { order = append(order, 3) })
	e.After(10*Microsecond, func() { order = append(order, 1) })
	e.After(20*Microsecond, func() { order = append(order, 2) })
	e.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("events fired out of order: %v", order)
	}
	if e.Now() != 30*Microsecond {
		t.Fatalf("clock = %v, want 30us", e.Now())
	}
}

func TestEngineSameTimeFIFO(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.After(5*Microsecond, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-timestamp events not FIFO: %v", order)
		}
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine()
	var hits []Time
	e.After(10, func() {
		hits = append(hits, e.Now())
		e.After(5, func() { hits = append(hits, e.Now()) })
	})
	e.Run()
	if len(hits) != 2 || hits[0] != 10 || hits[1] != 15 {
		t.Fatalf("nested scheduling wrong: %v", hits)
	}
}

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine()
	var fired []int
	e.After(10, func() { fired = append(fired, 1) })
	e.After(20, func() { fired = append(fired, 2) })
	e.After(30, func() { fired = append(fired, 3) })
	e.RunUntil(20)
	if len(fired) != 2 {
		t.Fatalf("RunUntil(20) fired %v, want first two", fired)
	}
	if e.Now() != 20 {
		t.Fatalf("clock = %v, want 20", e.Now())
	}
	e.RunUntil(100)
	if len(fired) != 3 {
		t.Fatalf("remaining event did not fire: %v", fired)
	}
	if e.Now() != 100 {
		t.Fatalf("clock = %v after RunUntil(100)", e.Now())
	}
}

func TestEnginePastSchedulingPanics(t *testing.T) {
	e := NewEngine()
	e.After(10, func() {})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	e.At(5, func() {})
}

func TestEngineRunWhile(t *testing.T) {
	e := NewEngine()
	n := 0
	for i := 1; i <= 5; i++ {
		e.After(Time(i*10), func() { n++ })
	}
	exhausted := e.RunWhile(func() bool { return n < 3 })
	if exhausted {
		t.Fatal("RunWhile reported exhaustion with events remaining")
	}
	if n != 3 {
		t.Fatalf("n = %d, want 3", n)
	}
	exhausted = e.RunWhile(func() bool { return n < 100 })
	if !exhausted {
		t.Fatal("RunWhile should report exhaustion")
	}
	if n != 5 {
		t.Fatalf("n = %d, want 5", n)
	}
}

func TestEngineDeterminism(t *testing.T) {
	run := func(seed uint64) []Time {
		e := NewEngine()
		rng := NewRNG(seed)
		var stamps []Time
		var recur func(depth int)
		recur = func(depth int) {
			stamps = append(stamps, e.Now())
			if depth < 4 {
				k := rng.Intn(3) + 1
				for i := 0; i < k; i++ {
					e.After(Time(rng.Intn(1000)+1), func() { recur(depth + 1) })
				}
			}
		}
		e.After(1, func() { recur(0) })
		e.Run()
		return stamps
	}
	a, b := run(42), run(42)
	if len(a) != len(b) {
		t.Fatalf("non-deterministic event count: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic timestamp at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		in   Time
		want string
	}{
		{500, "500ns"},
		{1500, "1.500us"},
		{2 * Millisecond, "2.000ms"},
		{3 * Second, "3.000s"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("Time(%d).String() = %q, want %q", int64(c.in), got, c.want)
		}
	}
}

// Property: for any batch of non-negative delays, events fire in
// non-decreasing time order and the final clock equals the max delay.
func TestEngineOrderProperty(t *testing.T) {
	prop := func(delays []uint16) bool {
		e := NewEngine()
		var last Time = -1
		ok := true
		var maxd Time
		for _, d := range delays {
			d := Time(d)
			if d > maxd {
				maxd = d
			}
			e.After(d, func() {
				if e.Now() < last {
					ok = false
				}
				last = e.Now()
			})
		}
		e.Run()
		if len(delays) > 0 && e.Now() != maxd {
			return false
		}
		return ok
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
