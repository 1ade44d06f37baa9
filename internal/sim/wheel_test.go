package sim

import (
	"slices"
	"testing"
)

// refEvent is one event of the reference scheduler. Its seq is its id:
// ids are handed out in scheduling order.
type refEvent struct {
	at Time
	id int
}

// refModel is a naive reference scheduler — an unordered list scanned
// for the least (time, seq) — kept in lockstep with an Engine: every
// schedule goes to both, and every firing checks that the reference
// pops the same event at the same instant.
type refModel struct {
	t     *testing.T
	seed  uint64
	e     *Engine
	q     []*refEvent // pending, unordered
	ids   int         // events scheduled
	fired int
}

func newRefModel(t *testing.T, seed uint64) *refModel {
	return &refModel{t: t, seed: seed, e: NewEngine()}
}

// at schedules fn at absolute time when on both schedulers.
func (m *refModel) at(when Time, fn func()) {
	id := m.ids
	m.ids++
	m.q = append(m.q, &refEvent{at: when, id: id})
	m.e.At(when, func() {
		m.check(id)
		fn()
	})
}

// next returns the index in q of the pending event with the least
// (time, seq), or -1.
func (m *refModel) next() int {
	best := -1
	for i, r := range m.q {
		if best < 0 || r.at < m.q[best].at || (r.at == m.q[best].at && r.id < m.q[best].id) {
			best = i
		}
	}
	return best
}

// check runs first in every engine callback: the reference pops its
// least event, which must be the one firing, at the engine's clock.
func (m *refModel) check(id int) {
	best := m.next()
	if best < 0 {
		m.t.Fatalf("seed %d: engine fired id %d at %v but the reference is empty", m.seed, id, m.e.Now())
	}
	r := m.q[best]
	if r.id != id || r.at != m.e.Now() {
		m.t.Fatalf("seed %d: engine fired id %d at %v, reference expects id %d at %v",
			m.seed, id, m.e.Now(), r.id, r.at)
	}
	m.q = append(m.q[:best], m.q[best+1:]...)
	m.fired++
}

// runUntil runs the engine to stop and checks that exactly the events
// at or before stop fired.
func (m *refModel) runUntil(stop Time) {
	m.e.RunUntil(stop)
	if m.e.Now() != stop {
		m.t.Fatalf("seed %d: RunUntil(%v) left the clock at %v", m.seed, stop, m.e.Now())
	}
	if best := m.next(); best >= 0 && m.q[best].at <= stop {
		m.t.Fatalf("seed %d: RunUntil(%v) left id %d at %v unfired", m.seed, stop, m.q[best].id, m.q[best].at)
	}
}

// drain steps the engine to exhaustion, one event per Step, and checks
// that both schedulers end empty.
func (m *refModel) drain() {
	for {
		before := m.fired
		if !m.e.Step() {
			break
		}
		if m.fired != before+1 {
			m.t.Fatalf("seed %d: Step fired %d events, want 1", m.seed, m.fired-before)
		}
	}
	if len(m.q) > 0 {
		m.t.Fatalf("seed %d: engine exhausted but the reference still holds id %d", m.seed, m.q[m.next()].id)
	}
	if m.e.pending != 0 {
		m.t.Fatalf("seed %d: engine exhausted with %d pending", m.seed, m.e.pending)
	}
}

// TestEngineMatchesReferenceModel drives the wheel/pool engine and the
// reference scheduler with the same randomized script — delays spanning
// the current tick, the wheel range, and the far heap, plus nested
// scheduling — and requires the exact same firing order. This is the
// "identical (time, seq) order" contract of the timer wheel.
func TestEngineMatchesReferenceModel(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		m := newRefModel(t, seed)
		rng := NewRNG(seed)

		// Delay mix: same instant, same tick, inside the wheel span,
		// beyond the horizon (multiple wheel revolutions out).
		randDelay := func() Time {
			switch rng.Intn(4) {
			case 0:
				return 0
			case 1:
				return Time(rng.Intn(1 << tickBits))
			case 2:
				return Time(rng.Intn(wheelSlots << spanBits))
			default:
				return Time(rng.Intn(16 * wheelSlots << spanBits))
			}
		}

		var spawn func(depth int)
		spawn = func(depth int) {
			n := rng.Intn(3) + 1
			for i := 0; i < n; i++ {
				d := randDelay()
				m.at(m.e.Now()+d, func() {
					if depth < 3 && rng.Intn(2) == 0 {
						spawn(depth + 1)
					}
				})
			}
		}
		spawn(0)
		m.drain()
	}
}

// TestEngineMatchesReferenceModelDense holds the engine to the
// reference where the load is densest — the shape of a 16-node ring,
// whose 0.48 us hops fire as separate events:
//   - hundreds of events pending inside one 4.096 us span, ~15 ns
//     apart, a third of them at one identical instant;
//   - callbacks scheduling at their own instant and into the tick being
//     drained;
//   - events on the word boundaries of both occupancy bitmaps (fine
//     ticks and wheel spans), and one full wheel revolution (and two)
//     out;
//   - RunUntil stopping inside a tick, then scheduling into the tick it
//     stopped in.
func TestEngineMatchesReferenceModelDense(t *testing.T) {
	const span = 4096 // ns
	tick := Time(1) << tickBits
	word := Time(64) << tickBits     // the ticks one fine occupancy word covers
	spanWord := Time(64) << spanBits // the spans one wheel occupancy word covers
	wrap := Time(wheelSlots) << spanBits

	for seed := uint64(1); seed <= 6; seed++ {
		m := newRefModel(t, seed)
		e := m.e
		rng := NewRNG(seed)
		budget := 4000

		var react func()
		react = func() {
			if budget <= 0 {
				return
			}
			budget--
			now := e.Now()
			var at Time
			switch rng.Intn(8) {
			case 0, 1:
				at = now // same instant
			case 2:
				at = now + Time(rng.Intn(16)) // inside the tick being drained
			case 3:
				at = now + Time(rng.Intn(span))
			case 4:
				at = now + Time(rng.Intn(4))*tick + Time(rng.Intn(int(tick)))
			case 5:
				// Around the next word boundary of the bitmap.
				at = (now/word+1+Time(rng.Intn(2)))*word + Time(rng.Intn(3)) - 1
			case 6:
				at = now + wrap + Time(rng.Intn(3)-1)*tick + Time(rng.Intn(3)) - 1
			default:
				at = now + 2*wrap + Time(rng.Intn(int(tick)))
			}
			if at < now {
				at = now
			}
			m.at(at, react)
		}

		// The dense span: ~270 events ~15 ns apart and 130 at one
		// instant, interleaved in scheduling order.
		base := Time(1+rng.Intn(64)) * span
		hot := base + Time(1000+rng.Intn(2000))
		for i := 0; i < span/15; i++ {
			m.at(base+Time(i*15+rng.Intn(3)), react)
			if i%2 == 0 {
				m.at(hot, react)
			}
		}
		// Word boundaries and wrap edges at absolute times.
		for k := 1; k <= 8; k++ {
			w := base + Time(rng.Intn(2*wheelSlots/64)+1)*word
			sw := Time(rng.Intn(2*wheelSlots/64)+1) * spanWord
			for _, d := range []Time{-1, 0, 1, tick - 1, tick} {
				m.at(w+d, react)
				m.at(sw+d, react)
			}
			m.at(wrap*Time(k)+Time(rng.Intn(3))-1, react)
		}

		// Stop inside ticks all through the dense span (just before and
		// at the hot instant included), then in coarser steps over two
		// wheel revolutions.
		stops := []Time{hot - 1, hot}
		for i := 0; i < 38; i++ {
			stops = append(stops, base+Time(rng.Intn(span+span/4)))
		}
		for i := 1; i <= 20; i++ {
			stops = append(stops, base+span+Time(i)*wrap/8+Time(rng.Intn(int(tick))))
		}
		slices.Sort(stops)
		for _, stop := range stops {
			m.runUntil(stop)
			// Schedule into the tick RunUntil stopped in: at the stop
			// instant, and later in its tick.
			m.at(stop, react)
			m.at(stop+Time(rng.Intn(int(tick-stop%tick))), react)
		}
		m.drain()
		if m.fired < 3000 {
			t.Fatalf("seed %d: only %d events fired; the script lost its density", seed, m.fired)
		}
	}
}

// TestEngineFarWheelBoundary schedules events exactly at, just below
// and just above the wheel horizon and checks order and cascade
// accounting.
func TestEngineFarWheelBoundary(t *testing.T) {
	e := NewEngine()
	horizon := Time(wheelSlots << spanBits)
	var order []int
	e.After(horizon-1, func() { order = append(order, 1) })
	e.After(horizon, func() { order = append(order, 2) })   // far
	e.After(horizon+1, func() { order = append(order, 3) }) // far
	e.After(1, func() { order = append(order, 0) })
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("boundary events out of order: %v", order)
		}
	}
	st := e.Stats()
	if st.FarEvents != 2 {
		t.Fatalf("far events = %d, want 2", st.FarEvents)
	}
	if st.FarCascades != 2 {
		t.Fatalf("far cascades = %d, want 2", st.FarCascades)
	}
}
