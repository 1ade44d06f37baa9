// Package isp is the unit scheduler of the in-store processor
// framework (paper §3, §4). Engines themselves are not a type here:
// an engine is a worker loop (sim.Lanes) over a node's flash reads,
// written in internal/ispvol, the executor the in-store kernels of
// internal/accel/* run on (Figure 20's ISP-F walk in accel/graph still
// keeps its own), and given the node's services (flash, network, host
// interface, DRAM buffer; Figure 2) through core.Node.
//
// Because multiple application instances compete for a finite number
// of hardware acceleration units, this package provides the FIFO
// request scheduler the paper describes in §4: an engine holds one unit
// from its grant until it has joined.
package isp

import (
	"fmt"

	"repro/internal/sim"
)

// Scheduler assigns hardware acceleration units to competing user
// applications with a simple FIFO policy (paper §4).
//
// Invariants, which hold under any interleaving of Submit and done —
// including callbacks that re-enqueue work or complete synchronously
// from inside a grant:
//
//   - at most `units` grants are outstanding at once;
//   - a fresh Submit never overtakes queued waiters, even if a unit
//     is momentarily free mid-handoff;
//   - each grant owns exactly one release: calling its done twice
//     panics instead of silently over-granting (the old failure mode:
//     with waiters queued, a double done handed the queue head a
//     phantom unit, so units+1 bodies ran concurrently and
//     Grants/busy drifted apart without tripping any check).
type Scheduler struct {
	name  string
	units int
	busy  int
	queue sim.Queue[func(done func())]

	// release bookkeeping: frees counts units returned but not yet
	// redistributed; draining marks the redistribution loop live so a
	// synchronous done inside a granted callback feeds the running
	// loop instead of recursing one stack frame per waiter.
	frees    int
	draining bool

	// stats
	Grants int64
	Waits  int64
}

// NewScheduler creates a scheduler over `units` identical acceleration
// units.
func NewScheduler(name string, units int) (*Scheduler, error) {
	if units <= 0 {
		return nil, fmt.Errorf("isp: scheduler %q needs at least one unit", name)
	}
	return &Scheduler{name: name, units: units}, nil
}

// Busy returns how many units are currently assigned.
//
//simlint:allow unused (probe: the ispvol tests check that every acceleration unit is released at drain)
func (s *Scheduler) Busy() int { return s.busy }

// Queued returns how many requests are waiting.
//
//simlint:allow unused (probe: the search unit test checks that a request queues behind the occupant)
func (s *Scheduler) Queued() int { return s.queue.Len() }

// Submit requests an acceleration unit. fn runs when one is assigned
// and must call done() exactly once to release it; queued requests
// are served FIFO. The queue check alongside busy keeps FIFO airtight:
// a free unit with waiters queued (transient during a drain) must go
// to the queue head, never to a fresh submission.
//
//simlint:once fn
func (s *Scheduler) Submit(fn func(done func())) {
	if s.busy < s.units && s.queue.Len() == 0 {
		s.busy++
		s.grant(fn)
		return
	}
	s.Waits++
	s.queue.Push(fn)
}

// grant starts fn on an assigned unit with a single-shot done.
//
//simlint:once fn
func (s *Scheduler) grant(fn func(done func())) {
	s.Grants++
	released := false
	fn(func() {
		if released {
			panic(fmt.Sprintf("isp: scheduler %q: done called twice for one grant", s.name))
		}
		released = true
		s.release()
	})
}

// release redistributes freed units: each goes to the queue head (the
// FIFO handoff) or, with no waiters, back to the pool. The loop is
// iterative — a granted callback that completes synchronously lands
// its free on the already-running drain instead of recursing, so a
// long chain of instant completions cannot overflow the stack.
func (s *Scheduler) release() {
	s.frees++
	if s.draining {
		return
	}
	s.draining = true
	for s.frees > 0 {
		s.frees--
		if s.queue.Len() > 0 {
			s.grant(s.queue.Pop())
			continue
		}
		s.busy--
		if s.busy < 0 {
			panic(fmt.Sprintf("isp: scheduler %q released more units than granted", s.name))
		}
	}
	s.draining = false
}
