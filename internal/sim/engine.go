// Package sim provides a deterministic discrete-event simulation engine
// used to model the BlueDBM hardware substrate: flash chips, buses,
// serial links, switches, and DMA engines.
//
// All simulated time is virtual. Components schedule callbacks on an
// Engine; the Engine executes them in (time, insertion) order, so a run
// with the same inputs and seeds is exactly reproducible.
//
// The engine is allocation-free on its steady-state path: events live
// in a pooled arena addressed by slot index, and the pending set is a
// hierarchical timer structure — near-future events in a wheel of
// 4.096 us spans, the span being drained split again into 16 ns
// buckets, each drained in turn into a short ascending run, and far
// timers in a min-heap (the engine's only heap) that cascades into the
// wheel as time advances. Firing order is exactly (time, insertion
// sequence), identical to a single global priority queue.
package sim

import (
	"errors"
	"fmt"
	"math/bits"
)

// ErrUnfinished reports a run whose engine drained — no event left to
// fire — before the run's completion fired: a callback was lost below.
var ErrUnfinished = errors.New("sim: the engine drained before the run finished")

// Time is a point in virtual time, in nanoseconds since simulation start.
type Time int64

// Duration aliases for readable schedule calls.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Seconds converts a virtual duration to floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Micros converts a virtual duration to floating-point microseconds.
func (t Time) Micros() float64 { return float64(t) / float64(Microsecond) }

func (t Time) String() string {
	switch {
	case t >= Second:
		return fmt.Sprintf("%.3fs", t.Seconds())
	case t >= Millisecond:
		return fmt.Sprintf("%.3fms", float64(t)/float64(Millisecond))
	case t >= Microsecond:
		return fmt.Sprintf("%.3fus", t.Micros())
	default:
		return fmt.Sprintf("%dns", int64(t))
	}
}

// Timer-wheel geometry: two wheels of the same shape. The near wheel's
// 256 buckets each hold one span of 2^spanBits ns (4.096 us); together
// they cover 1 048 576 ns (~1 ms) of near future — flash reads,
// programs, network hops and DMA all land here. Events beyond the
// horizon (3 ms erases, long think timers) wait in a far min-heap and
// cascade into the near wheel as the clock approaches them. The span
// being drained is opened into the fine wheel, whose 256 buckets each
// hold one tick of 2^tickBits ns (16 ns), sized as a calendar queue
// sizes its days: to hold a few events, so a drain orders a handful
// rather than the hundreds a busy ring puts in a span. Both wheels fit
// in 4 KiB and stay in the L1 cache; one wheel of 16 ns ticks over the
// same horizon would take 512 KiB, and its cache misses would make the
// engine's cost depend on whatever else shares the caches.
const (
	tickBits   = 4
	spanBits   = 12
	wheelSlots = 1 << (spanBits - tickBits)
	wheelMask  = wheelSlots - 1
	wheelWords = wheelSlots / 64
)

// eventSlot is pooled per-event storage. Slots are reused once their
// event has fired. The pool trades in int32 slot indexes rather than
// pointers; simlint's obligation check tracks the handle the same way.
//
//simlint:pool get=alloc put=release
type eventSlot struct {
	at   Time
	seq  uint64
	fn   func()
	next int32 // bucket chain when queued; free-list link when free; 0 ends both
}

// entry is a by-value run or heap element: ordering key plus the slot
// index.
type entry struct {
	at  Time
	seq uint64
	idx int32
}

func entryLess(a, b entry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// bucket is one wheel lane: an append-ordered chain of slots. The zero
// bucket is empty.
type bucket struct {
	head, tail int32
}

// wheel is a ring of wheelSlots buckets; occ mirrors the non-empty
// ones.
type wheel struct {
	lanes [wheelSlots]bucket
	occ   [wheelWords]uint64
}

// EngineStats is a snapshot of the engine's internal counters: how
// the timer structures absorbed the load, and how big the event pool
// grew. WheelEvents+FarEvents+CurEvents = total events scheduled.
type EngineStats struct {
	// Fired is the number of events executed.
	Fired uint64 `json:"fired"`
	// Pending is the number of live events waiting to fire.
	Pending int `json:"pending"`
	// WheelEvents counts events scheduled into a lane of the near or
	// the fine wheel (the near-future fast path).
	WheelEvents uint64 `json:"wheel_events"`
	// CurEvents counts events scheduled directly into the drain run of
	// the current tick (zero-delay kicks and same-tick rearms).
	CurEvents uint64 `json:"cur_events"`
	// FarEvents counts events scheduled beyond the wheel horizon into
	// the far heap.
	FarEvents uint64 `json:"far_events"`
	// FarCascades counts far-heap events re-bucketed into the wheel as
	// the clock advanced.
	FarCascades uint64 `json:"far_cascades"`
	// PoolSlots is the allocated capacity of the event pool (its
	// high-water mark of concurrently pending events, roughly).
	PoolSlots int `json:"pool_slots"`
}

// Engine is a discrete-event scheduler. The zero value is not usable;
// construct with NewEngine.
type Engine struct {
	now Time
	seq uint64

	// Event pool. Slot 0 is reserved: index 0 ends every chain.
	slots []eventSlot
	free  int32 // free-list head

	// run holds events with tick < fbase — the tick being drained plus
	// arrivals into it — ascending by (time, seq) from run[head]. Its
	// front is the global minimum.
	run  []entry
	head int

	// Fine wheel: lane t&wheelMask chains events whose tick t is in
	// [fbase, base<<(spanBits-tickBits)), the rest of the open span.
	fine  wheel
	fbase int64

	// Near wheel: lane s&wheelMask chains events whose span s is in
	// [base, base+wheelSlots).
	near wheel

	// Far heap: events with span ≥ horizon at scheduling time.
	far []entry

	pending int   // scheduled events not yet fired
	base    int64 // the span after the open one
	stats   EngineStats
}

// NewEngine returns an empty engine at time zero.
func NewEngine() *Engine {
	return &Engine{slots: make([]eventSlot, 1)}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Fired returns the number of events executed so far.
func (e *Engine) Fired() uint64 { return e.stats.Fired }

// Stats returns a snapshot of the engine's internal counters.
func (e *Engine) Stats() EngineStats {
	st := e.stats
	st.Pending = e.pending
	st.PoolSlots = len(e.slots)
	return st
}

// alloc takes a slot from the free list (or grows the pool) and
// stamps it with the event's key.
//
//simlint:hotpath
func (e *Engine) alloc(at Time, fn func()) int32 {
	var idx int32
	if e.free != 0 {
		idx = e.free
		e.free = e.slots[idx].next
	} else {
		idx = int32(len(e.slots))
		e.slots = append(e.slots, eventSlot{})
	}
	s := &e.slots[idx]
	s.at = at
	s.seq = e.seq
	s.fn = fn
	s.next = 0
	e.seq++
	return idx
}

// release recycles a slot.
//
//simlint:hotpath
func (e *Engine) release(idx int32) {
	s := &e.slots[idx]
	s.fn = nil
	s.next = e.free
	e.free = idx
}

// At schedules fn to run at absolute virtual time t. Scheduling in the
// past panics: it always indicates a modelling bug.
//
//simlint:hotpath
func (e *Engine) At(t Time, fn func()) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	idx := e.alloc(t, fn)
	e.pending++
	tick, span := int64(t)>>tickBits, int64(t)>>spanBits
	switch {
	case tick < e.fbase:
		// Inside the tick being drained (or fbase already advanced past
		// it): goes straight into the run. Correct by construction —
		// everything in the run is earlier than every bucketed/far event.
		e.runPush(entry{at: t, seq: e.slots[idx].seq, idx: idx})
		e.stats.CurEvents++
	case span < e.base:
		// Later in the open span.
		e.fine.push(e.slots, int(tick), idx)
		e.stats.WheelEvents++
	case span-e.base < wheelSlots:
		e.near.push(e.slots, int(span), idx)
		e.stats.WheelEvents++
	default:
		e.farPush(entry{at: t, seq: e.slots[idx].seq, idx: idx})
		e.stats.FarEvents++
	}
}

// After schedules fn to run d after the current time.
//
//simlint:hotpath
func (e *Engine) After(d Time, fn func()) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	e.At(e.now+d, fn)
}

// --- drain run (current tick) ----------------------------------------

// runPush inserts x into the run from the back. An arrival at the
// instant being fired carries the largest seq yet, so it passes only
// the later instants of its 16 ns tick; a drained bucket's events
// mostly arrive in seq order, so each passes only the few later
// instants already in.
//
//simlint:hotpath
func (e *Engine) runPush(x entry) {
	if len(e.run) == cap(e.run) && 2*e.head >= len(e.run) {
		// Reclaim the consumed front before growing, so a chain of
		// zero-delay events that never lets the run empty keeps
		// reusing its storage.
		e.run = e.run[:copy(e.run, e.run[e.head:])]
		e.head = 0
	}
	e.run = append(e.run, x)
	i := len(e.run) - 1
	for ; i > e.head && entryLess(x, e.run[i-1]); i-- {
		e.run[i] = e.run[i-1]
	}
	e.run[i] = x
}

//simlint:hotpath
func (e *Engine) runPop() entry {
	x := e.run[e.head]
	e.head++
	if e.head == len(e.run) {
		e.run, e.head = e.run[:0], 0
	}
	return x
}

// --- far heap --------------------------------------------------------

//simlint:hotpath
func (e *Engine) farPush(x entry) {
	e.far = append(e.far, x)
	i := len(e.far) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !entryLess(e.far[i], e.far[p]) {
			break
		}
		e.far[i], e.far[p] = e.far[p], e.far[i]
		i = p
	}
}

//simlint:hotpath
func (e *Engine) farPop() entry {
	h := e.far
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	e.far = h[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < n && entryLess(h[l], h[m]) {
			m = l
		}
		if r < n && entryLess(h[r], h[m]) {
			m = r
		}
		if m == i {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
	return top
}

// --- wheels ----------------------------------------------------------

// push appends idx to the chain of the lane at pos (a tick or a span:
// the lane is pos&wheelMask).
//
//simlint:hotpath
func (w *wheel) push(slots []eventSlot, pos int, idx int32) {
	l := pos & wheelMask
	b := &w.lanes[l]
	if b.head == 0 {
		b.head = idx
		w.occ[l>>6] |= 1 << uint(l&63)
	} else {
		slots[b.tail].next = idx
	}
	b.tail = idx
}

// dist returns the circular distance from pos to the first non-empty
// lane, or -1 if the wheel is empty. It reads the occupancy word of
// pos from pos on, the other words whole, then — unless pos began its
// word — the word of pos again, for the lanes below pos.
//
//simlint:hotpath
func (w *wheel) dist(pos int) int {
	for d := 0; d < wheelSlots; {
		l := (pos + d) & wheelMask
		if x := w.occ[l>>6] >> uint(l&63); x != 0 {
			return d + bits.TrailingZeros64(x)
		}
		d += 64 - l&63
	}
	return -1
}

// take empties the lane at pos and returns its chain.
//
//simlint:hotpath
func (w *wheel) take(pos int) bucket {
	l := pos & wheelMask
	b := w.lanes[l]
	w.lanes[l] = bucket{}
	w.occ[l>>6] &^= 1 << uint(l&63)
	return b
}

// spill empties the lane at pos of w. A fine
// lane — one tick — goes into the run, and fbase moves past its tick,
// so later arrivals for it follow it there. A near lane — one span —
// goes into the fine wheel, unless it holds one event: that goes into
// the run, as draining its tick would send it.
//
//simlint:hotpath
func (e *Engine) spill(w *wheel, pos int) {
	b := w.take(pos)
	for idx := b.head; idx != 0; {
		s := &e.slots[idx]
		next := s.next
		if w == &e.fine || b.head == b.tail {
			e.runPush(entry{at: s.at, seq: s.seq, idx: idx})
			e.fbase = int64(s.at)>>tickBits + 1
		} else {
			s.next = 0
			e.fine.push(e.slots, int(s.at>>tickBits), idx)
		}
		idx = next
	}
}

// cascade moves far-heap events whose span is now inside the horizon
// into the near wheel.
//
//simlint:hotpath
func (e *Engine) cascade() {
	horizon := e.base + wheelSlots
	for len(e.far) > 0 && int64(e.far[0].at)>>spanBits < horizon {
		x := e.farPop()
		e.near.push(e.slots, int(x.at>>spanBits), x.idx)
		e.stats.FarCascades++
	}
}

// ensureNext makes the earliest event the front of the run and
// reports whether one exists. It advances fbase and base (draining
// ticks, opening spans and cascading far timers) but never moves the
// clock or fires anything.
//
//simlint:hotpath
func (e *Engine) ensureNext() bool {
	for {
		if e.head < len(e.run) {
			return true
		}
		// The open span's ticks lie in [fbase, its end): none wraps.
		if e.fine.occ != [wheelWords]uint64{} {
			e.spill(&e.fine, int(e.fbase)+e.fine.dist(int(e.fbase)))
			continue
		}
		d := e.near.dist(int(e.base))
		if d < 0 {
			if len(e.far) == 0 {
				return false
			}
			// Jump the near wheel to the far minimum and refill: the
			// far minimum cascades, and its span opens next.
			e.base = int64(e.far[0].at) >> spanBits
			e.cascade()
			continue
		}
		span := e.base + int64(d)
		// A far timer may have come inside the horizon as base moved;
		// anything earlier than the found span must cascade first.
		if len(e.far) > 0 && int64(e.far[0].at)>>spanBits <= span {
			e.cascade()
			span = e.base + int64(e.near.dist(int(e.base)))
		}
		// Open it.
		e.base, e.fbase = span+1, span<<(spanBits-tickBits)
		e.spill(&e.near, int(span))
	}
}

// Step fires the next event, if any, and reports whether one fired.
//
//simlint:hotpath
func (e *Engine) Step() bool {
	if !e.ensureNext() {
		return false
	}
	x := e.runPop()
	s := &e.slots[x.idx]
	e.now = x.at
	fn := s.fn
	e.release(x.idx)
	e.pending--
	e.stats.Fired++
	fn()
	return true
}

// Run fires events until none remain.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// RunUntil fires events with timestamps <= t, then advances the clock to
// t (even if no event lands exactly there).
func (e *Engine) RunUntil(t Time) {
	for e.ensureNext() && e.run[e.head].at <= t {
		e.Step()
	}
	if t > e.now {
		e.now = t
	}
}

// RunWhile fires events until cond returns false or no events remain.
// It reports whether cond is still true (i.e. the run was exhausted
// before cond was satisfied).
//
//simlint:allow unused (a sched test runs a flood that never drains until the batch class completes, to check it is not starved)
func (e *Engine) RunWhile(cond func() bool) bool {
	for cond() {
		if !e.Step() {
			return true
		}
	}
	return false
}
