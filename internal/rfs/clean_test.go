package rfs

// Regression tests for the segment cleaner's concurrency bugs, driven
// through a scripted stub Backend so every interleaving is exact:
//   - reads racing the cleaner (the victim erase must drain in-flight
//     reads; relocation must only copy);
//   - the no-progress cleaning livelock (a pass that cannot allocate
//     relocation space must fail deterministically with ErrNoSpace,
//     not re-trigger itself forever);
//   - the stale-backref window (a page invalidated while its
//     relocation is in flight must be dropped, never resurrected);
//   - the iterative cleaning pump (a huge segment cleans without one
//     stack frame per page).

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/nand"
	"repro/internal/reclaim"
	"repro/internal/sched"
)

// stubOp is one outstanding backend operation awaiting completion.
type stubOp struct {
	kind  string // "read", "write", "erase"
	ppn   int    // read/write
	seg   int    // erase
	clean bool
	data  []byte
	rcb   func([]byte, error)
	wcb   func(error)
}

// stubBackend is a fully scripted in-memory backend: with sync set it
// completes operations inline; otherwise they queue in pending and
// the test completes them one by one, in any order it likes.
type stubBackend struct {
	lay     Layout
	store   map[int][]byte
	sync    bool
	pending []stubOp
}

func newStub(lay Layout, sync bool) *stubBackend {
	return &stubBackend{lay: lay, store: make(map[int][]byte), sync: sync}
}

func (b *stubBackend) Layout() Layout { return b.lay }

func (b *stubBackend) Addr(ppn int) core.PageAddr {
	seg := ppn / b.lay.PagesPerSeg
	return core.PageAddr{Addr: nand.Addr{
		Chip:  seg / b.lay.SegsPerChip,
		Block: seg % b.lay.SegsPerChip,
		Page:  ppn % b.lay.PagesPerSeg,
	}}
}

func (b *stubBackend) ReadPage(ppn int, _ sched.Class, clean bool, cb func([]byte, error)) {
	op := stubOp{kind: "read", ppn: ppn, clean: clean, rcb: cb}
	if b.sync {
		b.complete(op)
		return
	}
	b.pending = append(b.pending, op)
}

func (b *stubBackend) WritePage(ppn int, _ sched.Class, clean bool, data []byte, cb func(error)) {
	op := stubOp{kind: "write", ppn: ppn, clean: clean, data: append([]byte(nil), data...), wcb: cb}
	if b.sync {
		b.complete(op)
		return
	}
	b.pending = append(b.pending, op)
}

func (b *stubBackend) EraseSeg(seg int, cb func(error)) {
	op := stubOp{kind: "erase", seg: seg, wcb: cb}
	if b.sync {
		b.complete(op)
		return
	}
	b.pending = append(b.pending, op)
}

func (b *stubBackend) complete(op stubOp) {
	switch op.kind {
	case "read":
		data, ok := b.store[op.ppn]
		if !ok {
			// Reading an erased or never-written page is the data-loss
			// symptom the erase-drain rule exists to prevent.
			op.rcb(nil, fmt.Errorf("stub: read of dead page %d", op.ppn))
			return
		}
		op.rcb(append([]byte(nil), data...), nil)
	case "write":
		b.store[op.ppn] = op.data
		op.wcb(nil)
	case "erase":
		base := op.seg * b.lay.PagesPerSeg
		for p := 0; p < b.lay.PagesPerSeg; p++ {
			delete(b.store, base+p)
		}
		op.wcb(nil)
	}
}

// pop removes and completes the first pending op matching kind (and
// clean flag when cleanOnly is set), failing the test if none exists.
func (b *stubBackend) pop(t *testing.T, kind string, clean bool) {
	t.Helper()
	for i, op := range b.pending {
		if op.kind == kind && op.clean == clean {
			b.pending = append(b.pending[:i:i], b.pending[i+1:]...)
			b.complete(op)
			return
		}
	}
	t.Fatalf("no pending %s (clean=%v) op; pending: %+v", kind, clean, b.pending)
}

// has reports whether a pending op of the kind exists.
func (b *stubBackend) has(kind string) bool {
	for _, op := range b.pending {
		if op.kind == kind {
			return true
		}
	}
	return false
}

// drain completes every pending op (FIFO) until none remain.
func (b *stubBackend) drain() {
	for len(b.pending) > 0 {
		op := b.pending[0]
		b.pending = b.pending[1:]
		b.complete(op)
	}
}

func stubPage(lay Layout, seed byte) []byte {
	p := make([]byte, lay.PageSize)
	for i := range p {
		p[i] = seed + byte(i)
	}
	return p
}

func mustAppend(t *testing.T, f *File, data []byte) {
	t.Helper()
	err := errors.New("append never completed")
	f.AppendPage(data, func(e error) { err = e })
	if err != nil {
		t.Fatalf("append: %v", err)
	}
}

// TestEraseWaitsForInflightReads pins the read/cleaner race fix: an
// app read resolved into the victim before cleaning must complete
// with its data before the victim erase issues (relocation only
// copies, so the data is still there), and the erase fires as soon as
// the read drains.
func TestEraseWaitsForInflightReads(t *testing.T) {
	lay := Layout{Chips: 1, SegsPerChip: 4, PagesPerSeg: 4, PageSize: 16, Lanes: 1}
	b := newStub(lay, true)
	fs, err := NewWithBackend(b, Config{CleanLowWater: 1})
	if err != nil {
		t.Fatal(err)
	}
	f, err := fs.Create("a")
	if err != nil {
		t.Fatal(err)
	}
	// Fill seg 0 and spill into seg 1 so seg 0 seals.
	for i := 0; i < 5; i++ {
		mustAppend(t, f, stubPage(lay, byte(i)))
	}
	// Overwrite pages 0..2: their seg-0 copies die, leaving page 3 the
	// only valid page of the sealed victim-to-be.
	for i := 0; i < 3; i++ {
		err := errors.New("overwrite never completed")
		f.WritePage(i, stubPage(lay, byte(0x40+i)), func(e error) { err = e })
		if err != nil {
			t.Fatalf("overwrite %d: %v", i, err)
		}
	}
	// One more append seals seg 1 and opens seg 2, dropping the free
	// pool to the low-water mark.
	mustAppend(t, f, stubPage(lay, 5))
	if fs.Cleaner.Free != 1 || fs.Cleaner.Passes != 0 {
		t.Fatalf("setup: free=%d cleans=%d", fs.Cleaner.Free, fs.Cleaner.Passes)
	}

	// From here every op is held so the interleaving is exact.
	b.sync = false

	// An app read of page 3 resolves into seg 0 and stays in flight.
	var got []byte
	readErr := errors.New("read never completed")
	f.ReadPage(3, func(d []byte, e error) { got, readErr = d, e })

	// The next append finds the pool low and starts cleaning seg 0.
	appendErr := errors.New("append never completed")
	f.AppendPage(stubPage(lay, 0x77), func(e error) { appendErr = e })
	if fs.Cleaner.Passes != 1 {
		t.Fatal("cleaner did not start")
	}

	// Let the relocation of page 3 run to completion.
	b.pop(t, "read", true)
	b.pop(t, "write", true)

	// Relocation is done — but the app read is still in flight, so the
	// erase must NOT be issued yet.
	if b.has("erase") {
		t.Fatal("victim erase issued while a read was in flight against the victim")
	}

	// Drain the read: it must return the page's original data (the
	// relocation only copied), and the erase must now issue.
	b.pop(t, "read", false)
	if readErr != nil || !bytes.Equal(got, stubPage(lay, 3)) {
		t.Fatalf("racing read corrupted: err=%v", readErr)
	}
	if !b.has("erase") {
		t.Fatal("erase did not issue after the last in-flight read drained")
	}
	b.drain() // erase + the deferred append
	if appendErr != nil {
		t.Fatalf("append queued behind cleaning failed: %v", appendErr)
	}
	if fs.SegsCleaned != 1 {
		t.Fatalf("SegsCleaned = %d", fs.SegsCleaned)
	}
	if err := fs.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Everything still reads back.
	b.sync = true
	want := [][]byte{stubPage(lay, 0x40), stubPage(lay, 0x41), stubPage(lay, 0x42),
		stubPage(lay, 3), stubPage(lay, 4), stubPage(lay, 5), stubPage(lay, 0x77)}
	for i, w := range want {
		var d []byte
		var e error = errors.New("pending")
		f.ReadPage(i, func(dd []byte, ee error) { d, e = dd, ee })
		if e != nil || !bytes.Equal(d, w) {
			t.Fatalf("page %d lost after cleaning: %v", i, e)
		}
	}
}

// TestNoProgressCleaningFailsDeterministically pins the livelock fix:
// when cleaning cannot allocate relocation space, the pending write
// must fail with ErrNoSpace (previously the end of the pass re-ran the
// retry, which re-triggered the same doomed pass forever), and an
// invalidation must clear the stall so the FS recovers.
func TestNoProgressCleaningFailsDeterministically(t *testing.T) {
	lay := Layout{Chips: 1, SegsPerChip: 2, PagesPerSeg: 2, PageSize: 16, Lanes: 1}
	b := newStub(lay, true)
	fs, err := NewWithBackend(b, Config{CleanLowWater: 1})
	if err != nil {
		t.Fatal(err)
	}
	fa, _ := fs.Create("a")
	fb, _ := fs.Create("b")
	fc, _ := fs.Create("c")
	// Interleave so each sealed segment keeps one valid page after the
	// removals: seg0 = {a0, b0}, seg1 = {a1, c0}.
	mustAppend(t, fa, stubPage(lay, 1))
	mustAppend(t, fb, stubPage(lay, 2))
	mustAppend(t, fa, stubPage(lay, 3))
	mustAppend(t, fc, stubPage(lay, 4))
	if err := fs.Remove("b"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Remove("c"); err != nil {
		t.Fatal(err)
	}

	// Appending now triggers a clean of seg 0 (one valid page), which
	// has nowhere to relocate: every frontier is full and the pool is
	// dry. Pre-fix this looped forever; post-fix the write fails.
	werr := errors.New("append never completed")
	fa.AppendPage(stubPage(lay, 5), func(e error) { werr = e })
	if !errors.Is(werr, reclaim.ErrNoSpace) {
		t.Fatalf("want ErrNoSpace, got %v", werr)
	}
	// Stalled: the next write does not re-run the doomed pass.
	cleans := fs.Cleaner.Passes
	fa.AppendPage(stubPage(lay, 5), func(e error) { werr = e })
	if !errors.Is(werr, reclaim.ErrNoSpace) || fs.Cleaner.Passes != cleans {
		t.Fatalf("FS not stalled after a no-progress clean: %v, %d more cleans", werr, fs.Cleaner.Passes-cleans)
	}
	if err := fs.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if out := fs.PoolOut(); out != 0 {
		t.Fatalf("the aborted clean left %d page ops out of the pool", out)
	}

	// An invalidation changes the economics: removing file a frees
	// both its pages, cleaning can now erase, and writes succeed.
	if err := fs.Remove("a"); err != nil {
		t.Fatal(err)
	}
	fd, _ := fs.Create("d")
	mustAppend(t, fd, stubPage(lay, 6))
	var d []byte
	var e error = errors.New("pending")
	fd.ReadPage(0, func(dd []byte, ee error) { d, e = dd, ee })
	if e != nil || !bytes.Equal(d, stubPage(lay, 6)) {
		t.Fatalf("post-recovery read: %v", e)
	}
	if fs.SegsCleaned == 0 {
		t.Fatal("recovery never cleaned a segment")
	}
	if err := fs.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if out := fs.PoolOut(); out != 0 {
		t.Fatalf("%d page ops out of the pool at drain", out)
	}
}

// TestInvalidateDuringCleanMove pins the stale-backref fix: a page
// whose overwrite (issued before the clean began) lands while the
// cleaner's copy of it is in flight must not be resurrected when the
// relocation write completes — the moved copy is dropped and the
// mapping keeps the new data.
func TestInvalidateDuringCleanMove(t *testing.T) {
	lay := Layout{Chips: 1, SegsPerChip: 4, PagesPerSeg: 4, PageSize: 16, Lanes: 1}
	b := newStub(lay, true)
	fs, err := NewWithBackend(b, Config{CleanLowWater: 1})
	if err != nil {
		t.Fatal(err)
	}
	f, err := fs.Create("a")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		mustAppend(t, f, stubPage(lay, byte(i)))
	}
	for i := 0; i < 3; i++ {
		err := errors.New("pending")
		f.WritePage(i, stubPage(lay, byte(0x40+i)), func(e error) { err = e })
		if err != nil {
			t.Fatal(err)
		}
	}
	// Seg 0 is sealed with page 3 its only valid page. Hold ops: issue
	// an overwrite of page 3 (its allocation happens now, sealing seg 1
	// and opening seg 2; only the completion is held), so it is already
	// past the cleaner's write-deferral gate when cleaning starts.
	b.sync = false
	owErr := errors.New("overwrite never completed")
	f.WritePage(3, stubPage(lay, 0x99), func(e error) { owErr = e })
	if fs.Cleaner.Passes != 0 {
		t.Fatal("setup: cleaning started too early")
	}

	// Trigger cleaning of seg 0; the cleaner reads page 3's old copy.
	appErr := errors.New("append never completed")
	f.AppendPage(stubPage(lay, 0x55), func(e error) { appErr = e })
	if fs.Cleaner.Passes != 1 {
		t.Fatal("cleaner did not start")
	}
	b.pop(t, "read", true) // cleaner's copy read completes; its write is now pending

	// The app overwrite of page 3 lands mid-move: the old ppn is
	// invalidated and the mapping points at the new page.
	b.pop(t, "write", false)
	if owErr != nil {
		t.Fatalf("overwrite: %v", owErr)
	}

	// Now the relocation write completes. Pre-fix it re-installed the
	// stale copy over the fresh mapping (resurrection) and
	// double-counted validity; post-fix the copy is dropped.
	b.pop(t, "write", true)
	b.drain()
	if appErr != nil {
		t.Fatalf("append: %v", appErr)
	}
	if err := fs.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if out := fs.PoolOut(); out != 0 {
		t.Fatalf("%d page ops out of the pool at drain", out)
	}
	b.sync = true
	var d []byte
	var e error = errors.New("pending")
	f.ReadPage(3, func(dd []byte, ee error) { d, e = dd, ee })
	if e != nil || !bytes.Equal(d, stubPage(lay, 0x99)) {
		t.Fatalf("overwrite lost to a resurrected clean move: err=%v data[0]=%x", e, d[0])
	}
}

// TestRemoveDuringCleanMove: same window, but the invalidation is a
// whole-file Remove. The moved copy must be dropped (no mapping, no
// double-invalidate) and the inode stays dead. An append to the doomed
// file, queued behind the clean when the Remove lands, completes
// without mapping its page, and every page op returns to the pool.
func TestRemoveDuringCleanMove(t *testing.T) {
	lay := Layout{Chips: 1, SegsPerChip: 4, PagesPerSeg: 4, PageSize: 16, Lanes: 1}
	b := newStub(lay, true)
	fs, err := NewWithBackend(b, Config{CleanLowWater: 1})
	if err != nil {
		t.Fatal(err)
	}
	keep, _ := fs.Create("keep")
	doomed, _ := fs.Create("doomed")
	mustAppend(t, doomed, stubPage(lay, 9))
	for i := 0; i < 6; i++ {
		mustAppend(t, keep, stubPage(lay, byte(i)))
	}
	for i := 0; i < 2; i++ {
		err := errors.New("pending")
		keep.WritePage(i, stubPage(lay, byte(0x40+i)), func(e error) { err = e })
		if err != nil {
			t.Fatal(err)
		}
	}
	// Seg 0 = {doomed:0 valid, keep:0 dead, keep:1 dead, keep:2 valid};
	// the pool is at the low-water mark.
	if fs.Cleaner.Free != 1 || fs.Cleaner.Units[0].Valid != 2 {
		t.Fatalf("setup: free=%d seg0.valid=%d", fs.Cleaner.Free, fs.Cleaner.Units[0].Valid)
	}
	b.sync = false
	appErr := errors.New("append never completed")
	keep.AppendPage(stubPage(lay, 0x55), func(e error) { appErr = e })
	if fs.Cleaner.Passes != 1 {
		t.Fatal("cleaner did not start")
	}
	b.pop(t, "read", true) // cleaner copies doomed's page; write pending
	dErr := errors.New("doomed append never completed")
	doomed.AppendPage(stubPage(lay, 0x66), func(e error) { dErr = e })

	live := fs.LiveMappings()
	if err := fs.Remove("doomed"); err != nil {
		t.Fatal(err)
	}
	if fs.LiveMappings() != live-1 {
		t.Fatalf("remove dropped %d mappings", live-fs.LiveMappings())
	}

	b.pop(t, "write", true) // relocation write lands after the Remove
	b.drain()
	if appErr != nil || dErr != nil {
		t.Fatalf("append: %v; append to the removed file: %v", appErr, dErr)
	}
	if err := fs.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Open("doomed"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("removed file resurrected: %v", err)
	}
	if out := fs.PoolOut(); out != 0 {
		t.Fatalf("%d page ops out of the pool at drain", out)
	}
}

// TestCleanDeepSegmentIterative exercises the iterative cleaning pump
// on a segment three orders of magnitude deeper than a real erase
// block, with a fully synchronous backend: pre-fix, each relocated
// page cost one recursive stack frame.
func TestCleanDeepSegmentIterative(t *testing.T) {
	lay := Layout{Chips: 1, SegsPerChip: 4, PagesPerSeg: 16384, PageSize: 4, Lanes: 1}
	b := newStub(lay, true)
	fs, err := NewWithBackend(b, Config{CleanLowWater: 1})
	if err != nil {
		t.Fatal(err)
	}
	f, err := fs.Create("deep")
	if err != nil {
		t.Fatal(err)
	}
	page := make([]byte, lay.PageSize)
	// Fill segs 0 and 1; the next append has to open seg 2, hit the
	// low-water mark and clean seg 0 — relocating 16K-1 valid pages
	// (page 0 is invalidated first so seg 0 is a legal victim).
	for i := 0; i < 2*lay.PagesPerSeg; i++ {
		mustAppend(t, f, page)
	}
	werr := errors.New("pending")
	f.WritePage(0, page, func(e error) { werr = e })
	if werr != nil {
		t.Fatal(werr)
	}
	mustAppend(t, f, page)
	if fs.SegsCleaned != 1 {
		t.Fatalf("SegsCleaned = %d (CleanMoves = %d)", fs.SegsCleaned, fs.CleanMoves)
	}
	if fs.CleanMoves < int64(lay.PagesPerSeg-1) {
		t.Fatalf("CleanMoves = %d, want >= %d", fs.CleanMoves, lay.PagesPerSeg-1)
	}
	if err := fs.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestCleanVictimWaitsForItsPrograms is the twin of the FTL's
// TestGCVictimScanWaitsForProgramMetadata: a sealed segment whose
// acknowledged-to-nobody appends are still programming holds no valid
// page yet, so it is the cheapest victim — and the cleaner must wait
// for those programs before it scans it. Otherwise it finds the
// segment empty, erases it, and the programs' mappings land on flash
// that no longer holds them.
func TestCleanVictimWaitsForItsPrograms(t *testing.T) {
	lay := Layout{Chips: 1, SegsPerChip: 4, PagesPerSeg: 4, PageSize: 16, Lanes: 1}
	b := newStub(lay, true)
	fs, err := NewWithBackend(b, Config{CleanLowWater: 1})
	if err != nil {
		t.Fatal(err)
	}
	f, err := fs.Create("a")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ { // seg 0, sealed and all valid
		mustAppend(t, f, stubPage(lay, byte(i)))
	}
	// Six appends held in flight: four seal seg 1 with nothing valid in
	// it yet, the fifth opens seg 2 and leaves one free segment, and the
	// sixth finds the pool at the low-water mark and starts a clean.
	b.sync = false
	errs := make([]error, 10)
	for i := 4; i < 10; i++ {
		errs[i] = errors.New("append never completed")
		f.AppendPage(stubPage(lay, byte(i)), func(e error) { errs[i] = e })
	}
	b.drain()
	for i, e := range errs {
		if e != nil {
			t.Fatalf("append %d: %v", i, e)
		}
	}
	if fs.SegsCleaned != 1 {
		t.Fatalf("test premise: %d segments cleaned", fs.SegsCleaned)
	}
	if err := fs.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	b.sync = true
	for i := 0; i < 10; i++ {
		var d []byte
		var e error = errors.New("pending")
		f.ReadPage(i, func(dd []byte, ee error) { d, e = dd, ee })
		if e != nil || !bytes.Equal(d, stubPage(lay, byte(i))) {
			t.Fatalf("page %d lost to the clean: %v", i, e)
		}
	}
	if out := fs.PoolOut(); out != 0 {
		t.Fatalf("%d page ops out of the pool at drain", out)
	}
}
