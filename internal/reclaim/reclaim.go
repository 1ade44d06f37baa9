// Package reclaim is the one reclaim discipline of the stack's two
// log-structured layers: the FTL's garbage collector and the RFS
// segment cleaner (paper §4, where RFS does the FTL's work itself) are
// two instances of a Reclaimer. A pass takes a victim erase unit (an
// FTL block, an RFS segment), relocates its live pages and erases it.
// The layer keeps its mapping, its frontiers, its free pool, its
// counters and how a page moves; the Reclaimer keeps the unit table,
// the greedy victim rule, the trigger, the reserve gate, both drains,
// the relocation pump, the stall and the queue of operations waiting
// behind a pass.
//
// Concurrency rules (all in virtual time, single-threaded):
//   - A pass starts when an allocation finds the free pool at the
//     low-water mark (Hold). Its victim is sealed, so no new program
//     can target it, but programs already issued may still be in
//     flight: the pass relocates nothing until they have completed and
//     their mappings are installed (Unit.Programs, Wake). Before that
//     the victim's live pages look dead, and the erase would destroy
//     them under mappings installed moments later.
//   - Writes proceed during a pass while the free pool stays above a
//     reserve of one unit: their frontiers are disjoint from the victim.
//     At the reserve they queue behind the pass (Admit, Hold) and run
//     when it ends, so they can never starve the relocation destination.
//   - Reads resolve their mapping at issue time and never wait: a move
//     only copies, so a racing read still finds its data on the victim.
//     The one destructive step, the victim erase, waits until the reads
//     in flight against the victim drain (Unit.Reads, Wake). After
//     relocation no mapping points into the victim, so no new read can
//     resolve there. Whoever reads a unit registers here, and only here.
//   - Every move re-validates its page before it installs the copy: a
//     page invalidated mid-move is dropped, never resurrected.
//   - A pass that cannot relocate (no room, or a copy's program failed)
//     aborts and stalls the layer: allocations stop re-triggering the
//     same doomed pass and fail with ErrNoSpace once the pool is dry,
//     until an invalidation or an erase changes the economics.
package reclaim

import (
	"errors"
	"fmt"
)

// ErrNoSpace is what an allocation fails with when the free pool is dry
// and no pass can make room.
var ErrNoSpace = errors.New("reclaim: no free space and nothing to reclaim")

// reserveUnits is the free-unit floor below which writes wait behind a
// running pass: the last unit is the relocation destination, and a
// write that raced the pass for it would abort the pass and wedge the
// layer.
const reserveUnits = 1

// Unit is one erase unit's bookkeeping. The layer keeps it current;
// the Reclaimer reads it.
type Unit struct {
	Valid, Written  int  // pages holding live data; pages allocated
	Programs, Reads int  // operations in flight against the unit
	Bad, Active     bool // retired; a write frontier
}

// pass is one pass in progress.
type pass struct {
	on, running                 bool // a pass is on; its relocation has started
	victim, next                int  // the unit; its next page to scan
	inflight                    int  // moves started and not yet Done
	aborted, relocated, erasing bool
}

// Reclaimer runs one layer's passes: victim → relocate → erase.
type Reclaimer struct {
	Units []Unit
	// Free is the layer's free-unit count. The layer keeps it current
	// and calls Urgent when it changes.
	Free int
	// Urgent fires when Free changes and when a pass starts or ends
	// (the layer above feeds Urgency into its scheduler). It is never nil.
	Urgent func()
	// Pick, when set, names the victim of the pass about to start, or
	// returns -1 to leave it to the greedy rule.
	Pick func() int
	// Move starts relocating one page of a unit if it is live, and
	// reports whether it did; the layer ends each move it starts with Done.
	Move func(unit, page int) bool
	// Erase erases the victim and reports through done; Erased then
	// updates the layer (its pool, its wear, a retirement).
	Erase  func(unit int, done func(err error))
	Erased func(unit int, err error)
	// Passes counts the passes started; Aborts, when set, those aborted.
	Passes int64
	Aborts *int64

	pages, lowWater, depth int
	p                      pass
	stalled, pumping       bool
	queue, spare           []func() // ops waiting behind the pass; queue's other storage
	onErased               func(err error)
}

// New builds a reclaimer over units of pages each. A pass starts when
// the free pool drops to lowWater, which must be at least 1; it keeps
// up to depth moves in flight.
func New(units, pages, lowWater, depth int) (*Reclaimer, error) {
	if lowWater < 1 {
		return nil, fmt.Errorf("low-water mark %d: a pass needs at least one free unit to start from", lowWater)
	}
	r := &Reclaimer{Units: make([]Unit, units), Urgent: func() {}, pages: pages, lowWater: lowWater, depth: max(depth, 1)}
	r.onErased = r.erased
	return r, nil
}

// Urgency is how badly the layer needs its passes to run: 0 with the
// free pool at or above the low-water mark, rising to 1 as the pool
// runs dry. It measures the deficit below the trigger point, not pool
// fullness: while passes keep up, relocation deserves no device share.
func (r *Reclaimer) Urgency() float64 {
	return min(max(1-float64(r.Free)/float64(r.lowWater), 0), 1)
}

// Admit runs op now, or queues it behind the running pass when the
// free pool is at the reserve.
func (r *Reclaimer) Admit(op func()) {
	if r.p.on && r.Free <= reserveUnits {
		r.queue = append(r.queue, op)
		return
	}
	op()
}

// Hold is the gate of an allocation about to take a free unit. At the
// low-water mark it starts a pass and queues retry behind it; while a
// pass runs with the pool at the reserve it queues retry too. It
// reports whether retry was queued; if not, the caller allocates, and
// a dry pool then means ErrNoSpace with no pass in flight.
func (r *Reclaimer) Hold(retry func()) bool {
	if r.Free <= r.lowWater && !r.p.on && !r.stalled {
		v := -1
		if r.Pick != nil {
			v = r.Pick()
		}
		if v < 0 {
			v = r.greedy()
		}
		if v >= 0 {
			// Queued before the start: with a synchronous backend the
			// whole pass, drain included, can end inside it.
			r.queue = append(r.queue, retry)
			r.Passes++
			r.p = pass{on: true, victim: v}
			r.Urgent()
			r.Wake()
			return true
		}
	}
	if r.p.on && r.Free <= reserveUnits {
		r.queue = append(r.queue, retry)
		return true
	}
	return false
}

// greedy picks the sealed unit with the fewest valid pages (the lowest
// index on ties), skipping bad, active and all-valid units; -1 if none.
func (r *Reclaimer) greedy() int {
	best := -1
	for i := range r.Units {
		u := &r.Units[i]
		if u.Bad || u.Active || u.Written < r.pages || u.Valid == r.pages {
			continue
		}
		if best < 0 || u.Valid < r.Units[best].Valid {
			best = i
		}
	}
	return best
}

// Invalidate counts one valid page of unit dead. It shrinks some
// victim's relocation demand, so it clears a stall; a pass that still
// cannot fit aborts and stalls again, so this cannot loop.
func (r *Reclaimer) Invalidate(unit int) {
	r.Units[unit].Valid--
	r.stalled = false
}

// Wake re-checks the two drains a pass waits on: relocation starts once
// no program is in flight against the victim, the erase once no read
// is. The layer calls it after each program or read it counts out, a
// program only once it has installed the page's mapping.
func (r *Reclaimer) Wake() {
	p := &r.p
	switch {
	case !p.on:
	case !p.running:
		if r.Units[p.victim].Programs == 0 {
			p.running = true
			r.pump()
		}
	case p.relocated && !p.erasing && r.Units[p.victim].Reads == 0:
		p.erasing = true
		r.Erase(p.victim, r.onErased)
	}
}

// Done ends a move the pump started. abort fails the pass: there was no
// room for the copy, or its program failed.
//
//simlint:hotpath
func (r *Reclaimer) Done(abort bool) {
	r.p.inflight--
	r.p.aborted = r.p.aborted || abort
	r.pump()
}

// pump keeps up to depth moves in flight over the victim's pages, then
// erases the victim or ends the aborted pass. It is iterative: a move
// that completes inside Move re-enters through Done and returns at
// once, so a unit's page count never costs stack.
//
//simlint:hotpath
func (r *Reclaimer) pump() {
	p := &r.p
	if r.pumping || !p.running {
		return
	}
	r.pumping = true
	for !p.aborted && p.inflight < r.depth && p.next < r.pages {
		page := p.next
		p.next++
		p.inflight++
		if !r.Move(p.victim, page) {
			p.inflight--
		}
	}
	r.pumping = false
	switch {
	case p.inflight > 0:
	case p.aborted:
		r.stalled = true
		if r.Aborts != nil {
			*r.Aborts++
		}
		r.finish()
	default:
		p.relocated = true
		r.Wake()
	}
}

// erased is the victim erase's completion.
func (r *Reclaimer) erased(err error) {
	if err == nil {
		u := &r.Units[r.p.victim]
		u.Valid, u.Written = 0, 0
		r.stalled = false // fresh erased space: a stalled layer can progress
	}
	r.Erased(r.p.victim, err)
	r.finish()
}

// finish ends the pass and drains the ops queued behind it. The queue
// swaps between two backing arrays instead of growing a new one per
// pass; the one being drained is held by this call alone, so a drain
// nested in it (a drained op whose pass ends synchronously) queues into
// fresh storage. A drained op that starts the next pass requeues the
// rest behind it.
func (r *Reclaimer) finish() {
	r.p = pass{}
	r.Urgent()
	ops := r.queue
	r.queue, r.spare = r.spare[:0], nil
	for i, op := range ops {
		ops[i] = nil
		if r.p.on {
			r.queue = append(r.queue, op)
			continue
		}
		op()
	}
	r.spare = ops[:0]
}

// Check reports a reclaimer that has not drained: a pass still on, an
// op still queued, or a program or read still counted in flight.
func (r *Reclaimer) Check() error {
	if r.p.on || len(r.queue) > 0 {
		return fmt.Errorf("reclaim: pass on=%v over unit %d, %d ops queued", r.p.on, r.p.victim, len(r.queue))
	}
	for i, u := range r.Units {
		if u.Programs != 0 || u.Reads != 0 {
			return fmt.Errorf("reclaim: unit %d has %d programs and %d reads in flight", i, u.Programs, u.Reads)
		}
	}
	return nil
}
