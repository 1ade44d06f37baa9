package reclaim

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/flashctl"
	"repro/internal/nand"
)

// rig is a scripted keying over a Log: keys map pages in a Go map, and
// one frontier takes pages for writes and moves alike, a write passing
// the gate (Hold) first. Every program, read and erase the port
// receives is held until the test runs it, so each interleaving is
// exact; reads on a host tag wait apart, in reads, until the test
// completes them itself.
type rig struct {
	t      *testing.T
	l      *Log
	fwd    map[uint64]int
	free   []int
	front  int      // the unit being filled, -1 for none
	held   []func() // the log's own completions and programs, in issue order
	reads  []func() // host reads
	moves  int      // move reads the port received
	erases int
	next   uint64 // the key the next write stores
}

func newRig(t *testing.T, units, pages, lowWater, depth int) *rig {
	r := &rig{t: t, fwd: map[uint64]int{}, front: -1}
	geo := nand.Geometry{Buses: 1, ChipsPerBus: 1, BlocksPerChip: units, PagesPerBlock: pages, PageSize: 1}
	l, err := New("rig", geo, 1, lowWater, depth, r, r)
	if err != nil {
		t.Fatal(err)
	}
	r.l = l
	for u := 0; u < units; u++ {
		r.free = append(r.free, u)
	}
	l.Free = units
	l.Alloc, l.Erased = r.alloc, r.erased
	return r
}

func (r *rig) Read(ppn int, tag uint8, cb func([]byte, error)) {
	done := func() { cb([]byte{byte(ppn)}, nil) }
	if tag != TagMove {
		r.reads = append(r.reads, done)
		return
	}
	r.moves++
	r.held = append(r.held, done)
}

func (r *rig) Program(ppn int, tag uint8, img []byte, cb func(error)) {
	r.held = append(r.held, func() { cb(nil) })
}

func (r *rig) Erase(ppn int, cb func(error)) {
	r.held = append(r.held, func() { cb(nil) })
}

func (r *rig) Lookup(key uint64) int {
	if ppn, ok := r.fwd[key]; ok {
		return ppn
	}
	return -1
}

func (r *rig) Map(key uint64, ppn int, _ bool) bool {
	if ppn < 0 {
		delete(r.fwd, key)
	} else {
		r.fwd[key] = ppn
	}
	return true
}

func (r *rig) Mapped() int { return len(r.fwd) }

// alloc is the rig's Alloc: the gate for a write, then the frontier.
func (r *rig) alloc(_ uint8, retry func()) (int, error) {
	if retry != nil && r.l.Hold(retry) {
		return -1, nil
	}
	for {
		if r.front >= 0 {
			if ppn := r.l.Take(r.front); ppn >= 0 {
				return ppn, nil
			}
			r.front = -1
		}
		if len(r.free) == 0 {
			return 0, ErrNoSpace
		}
		r.front, r.free = r.free[0], r.free[1:]
		r.l.Free--
		r.l.Open(r.front)
	}
}

func (r *rig) erased(unit int) {
	r.erases++
	r.free = append(r.free, unit)
	r.l.Free++
}

// write stores a fresh key; its outcome lands in *result.
func (r *rig) write(result *error) {
	*result = errors.New("pending")
	r.next++
	r.l.Write(r.next, []byte{0}, 0, func(err error) { *result = err })
}

// kill invalidates a live page, as an overwrite or a trim does.
func (r *rig) kill(ppn int) {
	if key := r.l.rev[ppn]; key != noKey {
		delete(r.fwd, key)
		r.l.Invalidate(ppn)
	}
}

// run completes the held operation at index i.
func (r *rig) run(i int) {
	r.t.Helper()
	if i >= len(r.held) {
		r.t.Fatalf("no held operation %d of %d", i, len(r.held))
	}
	op := r.held[i]
	r.held = append(r.held[:i:i], r.held[i+1:]...)
	op()
}

// drain completes everything held, in order, until nothing is.
func (r *rig) drain() {
	for len(r.held) > 0 {
		r.run(0)
	}
}

// fill writes and lands n pages, returning where they went.
func (r *rig) fill(n int) []int {
	var ppns []int
	for i := 0; i < n; i++ {
		var err error
		r.write(&err)
		r.drain()
		if err != nil {
			r.t.Fatalf("fill write %d: %v", i, err)
		}
		ppns = append(ppns, r.fwd[r.next])
	}
	return ppns
}

// TestProgramDrainBeforeRelocation: a sealed victim whose programs are
// still in flight holds no valid page yet; the pass waits for them and
// then moves every page they wrote, with no more than depth moves in
// flight at once.
func TestProgramDrainBeforeRelocation(t *testing.T) {
	r := newRig(t, 4, 4, 1, 2)
	r.fill(4) // unit 0, sealed and all valid
	var errs [6]error
	for i := range errs { // unit 1 sealed with four programs held; unit 2 opened
		r.write(&errs[i])
	}
	if r.l.Passes != 1 {
		t.Fatalf("test premise: %d passes started", r.l.Passes)
	}
	if r.moves != 0 {
		t.Fatalf("the pass moved %d pages of a victim with programs in flight", r.moves)
	}
	r.run(0)
	r.run(0)
	r.run(0)
	if r.moves != 0 {
		t.Fatal("the pass started before the victim's last program landed")
	}
	r.run(0) // the last of unit 1's programs: relocation starts
	if r.moves != 2 {
		t.Fatalf("%d moves in flight, want the depth, 2", r.moves)
	}
	r.drain()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	if r.moves != 4 || r.erases != 1 || r.l.Live() != 10 {
		t.Fatalf("%d moves, %d erases, %d live pages; want 4, 1, 10", r.moves, r.erases, r.l.Live())
	}
	if err := r.l.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestReadDrainBeforeErase: the victim erase waits for the reads in
// flight against the victim, and issues as the last one drains.
func TestReadDrainBeforeErase(t *testing.T) {
	r := newRig(t, 3, 2, 1, 1)
	ppns := r.fill(4) // units 0 and 1 sealed; the pool at the mark
	r.kill(ppns[0])
	var got []byte
	r.l.Read(ppns[1], 0, func(d []byte, _ error) { got = d }) // resolved into unit 0
	var err error
	r.write(&err)
	r.drain()
	if r.erases != 0 {
		t.Fatal("the victim was erased under a read in flight")
	}
	if !r.l.p.relocated || r.l.p.erasing {
		t.Fatalf("want relocation done and the erase waiting: %+v", r.l.p)
	}
	r.reads[0]()
	if got == nil || !r.l.p.erasing {
		t.Fatalf("the read drained (%v), the erase did not issue", got)
	}
	r.drain()
	if r.erases != 1 || err != nil {
		t.Fatalf("%d erases after the read drained; write: %v", r.erases, err)
	}
	if err := r.l.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestInvalidatedMidMoveIsDropped: a page that dies while its move is
// in flight is not resurrected: the copy stays dead.
func TestInvalidatedMidMoveIsDropped(t *testing.T) {
	r := newRig(t, 3, 2, 1, 1)
	ppns := r.fill(4)
	r.kill(ppns[0])
	moved := r.l.rev[ppns[1]]
	var err error
	r.write(&err) // the pass reads ppns[1], the victim's one live page
	r.run(0)      // the read lands; the copy's program is held
	r.kill(ppns[1])
	r.drain()
	if _, ok := r.fwd[moved]; ok || r.l.Moves != 1 || r.l.Live() != 3 {
		t.Fatalf("moves %d, live %d, the killed key mapped %v", r.l.Moves, r.l.Live(), ok)
	}
	if err != nil {
		t.Fatal(err)
	}
	if err := r.l.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestNoProgressStallsUntilAnInvalidation: a pass with nowhere to move
// its victim's live pages aborts and stalls the log; further writes
// fail with ErrNoSpace without re-running the pass, and an
// invalidation lets the next pass run and writes succeed again.
func TestNoProgressStallsUntilAnInvalidation(t *testing.T) {
	r := newRig(t, 2, 2, 1, 1)
	ppns := r.fill(4) // both units full: nothing free, nowhere to move
	r.kill(ppns[0])
	var err error
	r.write(&err)
	r.drain()
	if !errors.Is(err, ErrNoSpace) || r.l.Aborts != 1 || r.l.Passes != 1 {
		t.Fatalf("write: %v after %d passes, %d aborted", err, r.l.Passes, r.l.Aborts)
	}
	r.write(&err)
	r.drain()
	if !errors.Is(err, ErrNoSpace) || r.l.Passes != 1 {
		t.Fatalf("a stalled log re-ran the pass: %v, %d passes", err, r.l.Passes)
	}
	r.kill(ppns[1]) // unit 0 is now all dead: a pass needs no room
	r.write(&err)
	r.drain()
	if err != nil || r.l.Passes != 2 || r.erases != 1 {
		t.Fatalf("after an invalidation: %v, %d passes, %d erases", err, r.l.Passes, r.erases)
	}
	if err := r.l.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestWriteSizeChecked: a write of anything but one page image fails
// with flashctl.ErrDataSize before it takes an op or a page.
func TestWriteSizeChecked(t *testing.T) {
	r := newRig(t, 2, 2, 1, 1)
	var err error
	r.l.Write(1, []byte{1, 2}, 0, func(e error) { err = e })
	if !errors.Is(err, flashctl.ErrDataSize) || r.l.Writes != 0 || len(r.held) != 0 {
		t.Fatalf("a two-byte page: %v, %d writes, %d ops held", err, r.l.Writes, len(r.held))
	}
}

// TestNestedDrainsKeepTheQueue: finish keeps the order of ops queued
// behind a pass — a drained op that starts the next pass leaves the
// rest requeued behind whatever that pass queued — and the storage it
// reuses is never handed to two drains at once, though a synchronous
// port nests one drain inside another: here an op drained from inside
// the outer drain queues two more and starts another pass before its
// queue-mate runs.
func TestNestedDrainsKeepTheQueue(t *testing.T) {
	l := newRig(t, 4, 4, 1, 1).l
	var ran []string
	op := func(name string, then func()) func() {
		return func() {
			ran = append(ran, name)
			if then != nil {
				then()
			}
		}
	}
	l.queue = []func(){op("w", nil), op("x", nil)}
	l.finish() // leaves two slots of spare storage behind
	l.queue = []func(){
		op("a", func() {
			l.queue = append(l.queue, op("c", func() {
				l.p.on = true // the next pass starts and queues two ops
				l.queue = append(l.queue, op("e", nil), op("f", nil))
			}), op("d", nil))
			l.finish() // a pass that ended inside a
		}),
		op("b", nil),
	}
	l.finish()
	l.finish()
	if got, want := strings.Join(ran, ""), "wxacefdb"; got != want {
		t.Fatalf("ran %q, want %q", got, want)
	}
}
