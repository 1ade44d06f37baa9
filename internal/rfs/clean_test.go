package rfs

// Regression tests for the segment cleaner with the file system's own
// namespace, driven through a scripted port (heldPort) so every
// interleaving is exact:
//   - the stale-mapping window (a page overwritten or removed while its
//     relocation is in flight must be dropped, never resurrected);
//   - the iterative cleaning pump (a huge segment cleans without one
//     stack frame per page).
// The rules both keyings of the page log share are keyings_test.go's.

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/nand"
)

// heldFS is a file system over a held port on geo, with cleaning at a
// low-water mark of one segment. When the test ends, its log must have
// drained and its mapping must hold.
func heldFS(t *testing.T, geo nand.Geometry) (*heldPort, *FS) {
	p := newHeldPort(t, geo)
	fs, err := newFS(p, geo, 1, 1, 1, Config{CleanLowWater: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := fs.Log.Check(); err != nil {
			t.Error(err)
		}
	})
	return p, fs
}

// stubGeo is one chip of four four-page segments.
var stubGeo = nand.Geometry{Buses: 1, ChipsPerBus: 1, BlocksPerChip: 4, PagesPerBlock: 4, PageSize: 16}

func stubPage(geo nand.Geometry, seed byte) []byte {
	p := make([]byte, geo.PageSize)
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

// TestInvalidateDuringCleanMove pins the stale-backref fix: a page
// whose overwrite (issued before the clean began) lands while the
// cleaner's copy of it is in flight must not be resurrected when the
// relocation write completes — the moved copy is dropped and the
// mapping keeps the new data.
func TestInvalidateDuringCleanMove(t *testing.T) {
	lay := stubGeo
	b, fs := heldFS(t, lay)
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
	if fs.Log.Passes != 0 {
		t.Fatal("setup: cleaning started too early")
	}

	// Trigger cleaning of seg 0; the cleaner reads page 3's old copy.
	appErr := errors.New("append never completed")
	f.AppendPage(stubPage(lay, 0x55), func(e error) { appErr = e })
	if fs.Log.Passes != 1 {
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
	if err := fs.Log.CheckInvariants(); err != nil {
		t.Fatal(err)
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
	lay := stubGeo
	b, fs := heldFS(t, lay)
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
	if fs.Log.Free != 1 || fs.Log.Units[0].Valid != 2 {
		t.Fatalf("setup: free=%d seg0.valid=%d", fs.Log.Free, fs.Log.Units[0].Valid)
	}
	b.sync = false
	appErr := errors.New("append never completed")
	keep.AppendPage(stubPage(lay, 0x55), func(e error) { appErr = e })
	if fs.Log.Passes != 1 {
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
	if err := fs.Log.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Open("doomed"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("removed file resurrected: %v", err)
	}
}

// TestCleanDeepSegmentIterative exercises the iterative cleaning pump
// on a segment three orders of magnitude deeper than a real erase
// block, with a fully synchronous backend: pre-fix, each relocated
// page cost one recursive stack frame.
func TestCleanDeepSegmentIterative(t *testing.T) {
	lay := nand.Geometry{Buses: 1, ChipsPerBus: 1, BlocksPerChip: 4, PagesPerBlock: 16384, PageSize: 4}
	_, fs := heldFS(t, lay)
	f, err := fs.Create("deep")
	if err != nil {
		t.Fatal(err)
	}
	page := make([]byte, lay.PageSize)
	// Fill segs 0 and 1; the next append has to open seg 2, hit the
	// low-water mark and clean seg 0 — relocating 16K-1 valid pages
	// (page 0 is invalidated first so seg 0 is a legal victim).
	for i := 0; i < 2*lay.PagesPerBlock; i++ {
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
	if fs.CleanMoves < int64(lay.PagesPerBlock-1) {
		t.Fatalf("CleanMoves = %d, want >= %d", fs.CleanMoves, lay.PagesPerBlock-1)
	}
	if err := fs.Log.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
