package reclaim

import (
	"errors"
	"strings"
	"testing"
)

// space is a scripted layer over a Reclaimer: units of pages, a live
// flag per page, a free list and one frontier for writes and moves.
// Every program, read and erase it issues is held until the test runs
// it, so each interleaving is exact.
type space struct {
	t       *testing.T
	r       *Reclaimer
	pages   int
	live    map[int]bool
	free    []int
	front   int      // the unit being filled, -1 for none
	held    []func() // completions, in issue order
	moves   int      // moves the pump started
	dropped int      // moves whose page died mid-move
	erases  int
}

func newSpace(t *testing.T, units, pages, lowWater, depth int) *space {
	r, err := New(units, pages, lowWater, depth)
	if err != nil {
		t.Fatal(err)
	}
	s := &space{t: t, r: r, pages: pages, live: map[int]bool{}, front: -1}
	for u := 0; u < units; u++ {
		s.free = append(s.free, u)
	}
	r.Free = units
	r.Move, r.Erase, r.Erased = s.move, s.erase, s.erased
	return s
}

// alloc takes the next frontier page, or -1 when no unit is free.
func (s *space) alloc() int {
	if s.front >= 0 && s.r.Units[s.front].Written == s.pages {
		s.r.Units[s.front].Active = false
		s.front = -1
	}
	if s.front < 0 {
		if len(s.free) == 0 {
			return -1
		}
		s.front, s.free = s.free[0], s.free[1:]
		s.r.Free--
		u := &s.r.Units[s.front]
		u.Active, u.Written, u.Valid = true, 0, 0
	}
	u := &s.r.Units[s.front]
	u.Written++
	return s.front*s.pages + u.Written - 1
}

// program holds a program of ppn; done runs once it lands.
func (s *space) program(ppn int, done func()) {
	s.r.Units[ppn/s.pages].Programs++
	s.held = append(s.held, func() {
		done()
		s.r.Units[ppn/s.pages].Programs--
		s.r.Wake()
	})
}

// write is a host write of a fresh page: it may wait behind a pass.
func (s *space) write(result *error) {
	*result = errors.New("pending")
	var try func()
	try = func() {
		if s.r.Hold(try) {
			return
		}
		ppn := s.alloc()
		if ppn < 0 {
			*result = ErrNoSpace
			return
		}
		s.program(ppn, func() { s.install(ppn); *result = nil })
	}
	s.r.Admit(try)
}

func (s *space) install(ppn int) {
	s.live[ppn] = true
	s.r.Units[ppn/s.pages].Valid++
}

// kill invalidates a live page, as an overwrite or a trim does.
func (s *space) kill(ppn int) {
	if s.live[ppn] {
		delete(s.live, ppn)
		s.r.Invalidate(ppn / s.pages)
	}
}

// move is the Reclaimer's Move: read, re-validate, program, re-validate.
func (s *space) move(unit, page int) bool {
	src := unit*s.pages + page
	if !s.live[src] {
		return false
	}
	s.moves++
	s.held = append(s.held, func() { // the read
		if !s.live[src] {
			s.dropped++
			s.r.Done(false)
			return
		}
		dst := s.alloc()
		if dst < 0 {
			s.r.Done(true)
			return
		}
		s.program(dst, func() {
			if s.live[src] {
				s.kill(src)
				s.install(dst)
			} else {
				s.dropped++
			}
			s.r.Done(false)
		})
	})
	return true
}

func (s *space) erase(unit int, done func(error)) {
	s.held = append(s.held, func() { done(nil) })
}

func (s *space) erased(unit int, err error) {
	s.erases++
	s.free = append(s.free, unit)
	s.r.Free++
	s.r.Urgent()
}

// run completes the held operation at index i.
func (s *space) run(i int) {
	s.t.Helper()
	if i >= len(s.held) {
		s.t.Fatalf("no held operation %d of %d", i, len(s.held))
	}
	op := s.held[i]
	s.held = append(s.held[:i:i], s.held[i+1:]...)
	op()
}

// drain completes everything held, in order, until nothing is.
func (s *space) drain() {
	for len(s.held) > 0 {
		s.run(0)
	}
}

// fill writes and lands n pages.
func (s *space) fill(n int) []int {
	var ppns []int
	for i := 0; i < n; i++ {
		var err error
		s.write(&err)
		ppns = append(ppns, s.front*s.pages+s.r.Units[s.front].Written-1)
		s.drain()
		if err != nil {
			s.t.Fatalf("fill write %d: %v", i, err)
		}
	}
	return ppns
}

// TestProgramDrainBeforeRelocation: a sealed victim whose programs are
// still in flight holds no valid page yet; the pass waits for them and
// then moves every page they wrote, with no more than depth moves in
// flight at once.
func TestProgramDrainBeforeRelocation(t *testing.T) {
	s := newSpace(t, 4, 4, 1, 2)
	s.fill(4) // unit 0, sealed and all valid
	var errs [6]error
	for i := range errs { // unit 1 sealed with four programs held; unit 2 opened
		s.write(&errs[i])
	}
	if s.r.Passes != 1 {
		t.Fatalf("test premise: %d passes started", s.r.Passes)
	}
	if s.moves != 0 {
		t.Fatalf("the pass moved %d pages of a victim with programs in flight", s.moves)
	}
	s.run(0)
	s.run(0)
	s.run(0)
	if s.moves != 0 {
		t.Fatal("the pass started before the victim's last program landed")
	}
	s.run(0) // the last of unit 1's programs: relocation starts
	if s.moves != 2 {
		t.Fatalf("%d moves in flight, want the depth, 2", s.moves)
	}
	s.drain()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	if s.moves != 4 || s.erases != 1 || len(s.live) != 10 {
		t.Fatalf("%d moves, %d erases, %d live pages; want 4, 1, 10", s.moves, s.erases, len(s.live))
	}
	if err := s.r.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestReadDrainBeforeErase: the victim erase waits for the reads in
// flight against the victim, and issues as the last one drains.
func TestReadDrainBeforeErase(t *testing.T) {
	s := newSpace(t, 3, 2, 1, 1)
	ppns := s.fill(4) // units 0 and 1 sealed; the pool at the mark
	s.kill(ppns[0])
	s.r.Units[0].Reads++ // a read resolved into unit 0
	var err error
	s.write(&err)
	s.drain()
	if s.erases != 0 {
		t.Fatal("the victim was erased under a read in flight")
	}
	if !s.r.p.relocated || s.r.p.erasing {
		t.Fatalf("want relocation done and the erase waiting: %+v", s.r.p)
	}
	s.r.Units[0].Reads--
	s.r.Wake()
	s.drain()
	if s.erases != 1 || err != nil {
		t.Fatalf("%d erases after the read drained; write: %v", s.erases, err)
	}
	if err := s.r.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestInvalidatedMidMoveIsDropped: a page that dies while its move is
// in flight is not resurrected: the copy stays dead.
func TestInvalidatedMidMoveIsDropped(t *testing.T) {
	s := newSpace(t, 3, 2, 1, 1)
	ppns := s.fill(4)
	s.kill(ppns[0])
	var err error
	s.write(&err) // the pass reads ppns[1], the victim's one live page
	s.run(0)      // the read lands; the copy's program is held
	s.kill(ppns[1])
	s.drain()
	if s.dropped != 1 || s.live[ppns[1]] || len(s.live) != 3 {
		t.Fatalf("dropped %d, live %v", s.dropped, s.live)
	}
	if err != nil {
		t.Fatal(err)
	}
}

// TestNoProgressStallsUntilAnInvalidation: a pass with nowhere to move
// its victim's live pages aborts and stalls the layer; further writes
// fail with ErrNoSpace without re-running the pass, and an
// invalidation lets the next pass run and writes succeed again.
func TestNoProgressStallsUntilAnInvalidation(t *testing.T) {
	aborts := int64(0)
	s := newSpace(t, 2, 2, 1, 1)
	s.r.Aborts = &aborts
	ppns := s.fill(4) // both units full: nothing free, nowhere to move
	s.kill(ppns[0])
	var err error
	s.write(&err)
	s.drain()
	if !errors.Is(err, ErrNoSpace) || aborts != 1 || s.r.Passes != 1 {
		t.Fatalf("write: %v after %d passes, %d aborted", err, s.r.Passes, aborts)
	}
	s.write(&err)
	s.drain()
	if !errors.Is(err, ErrNoSpace) || s.r.Passes != 1 {
		t.Fatalf("a stalled layer re-ran the pass: %v, %d passes", err, s.r.Passes)
	}
	s.kill(ppns[1]) // unit 0 is now all dead: a pass needs no room
	s.write(&err)
	s.drain()
	if err != nil || s.r.Passes != 2 || s.erases != 1 {
		t.Fatalf("after an invalidation: %v, %d passes, %d erases", err, s.r.Passes, s.erases)
	}
	if err := s.r.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestLowWaterBelowOneRefused: a pass needs a free unit to start from.
func TestLowWaterBelowOneRefused(t *testing.T) {
	if _, err := New(4, 4, 0, 1); err == nil || !strings.Contains(err.Error(), "low-water") {
		t.Fatalf("low-water mark 0: %v", err)
	}
}

// TestNestedDrainsKeepTheQueue: finish keeps the order of ops queued
// behind a pass — a drained op that starts the next pass leaves the
// rest requeued behind whatever that pass queued — and the storage it
// reuses is never handed to two drains at once, though a synchronous
// backend nests one drain inside another: here an op drained from
// inside the outer drain queues two more and starts another pass
// before its queue-mate runs.
func TestNestedDrainsKeepTheQueue(t *testing.T) {
	r, err := New(4, 4, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	var ran []string
	op := func(name string, then func()) func() {
		return func() {
			ran = append(ran, name)
			if then != nil {
				then()
			}
		}
	}
	r.queue = []func(){op("w", nil), op("x", nil)}
	r.finish() // leaves two slots of spare storage behind
	r.queue = []func(){
		op("a", func() {
			r.queue = append(r.queue, op("c", func() {
				r.p.on = true // the next pass starts and queues two ops
				r.queue = append(r.queue, op("e", nil), op("f", nil))
			}), op("d", nil))
			r.finish() // a pass that ended inside a
		}),
		op("b", nil),
	}
	r.finish()
	r.finish()
	if got, want := strings.Join(ran, ""), "wxacefdb"; got != want {
		t.Fatalf("ran %q, want %q", got, want)
	}
}
