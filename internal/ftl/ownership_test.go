package ftl

import (
	"bytes"
	"runtime"
	"testing"

	"repro/internal/nand"
	"repro/internal/sim"
)

// A written page is one image from the logical write to the cell: the
// buffer WriteTagged allocates is the one the card stores, a GC move
// stores the image its read returned — the one the victim page still
// holds — and a program that fails on a bad block goes out again with
// the same image. These tests watch the FTL/backend boundary with a spy
// and compare what crossed it with what the card holds; the cards run
// under the image guard.

// spyBackend records every buffer that crosses the backend interface.
type spyBackend struct {
	Backend
	card    *nand.Card
	writes  []spyWrite     // every WritePage in issue order, outcome filled in on completion
	gcReads map[*byte]bool // first byte of every result a TagGC read delivered
}

type spyWrite struct {
	a        nand.Addr
	tag      IOTag
	img      []byte
	readBack bool // when it was issued, img was a buffer some GC read had delivered
	err      error
	stored   bool // on completion the card held img itself at a
}

func (b *spyBackend) ReadPage(a nand.Addr, tag IOTag, cb func([]byte, error)) {
	b.Backend.ReadPage(a, tag, func(data []byte, err error) {
		if tag == TagGC && err == nil {
			b.gcReads[&data[0]] = true
		}
		cb(data, err)
	})
}

func (b *spyBackend) WritePage(a nand.Addr, img []byte, tag IOTag, cb func(error)) {
	i := len(b.writes)
	b.writes = append(b.writes, spyWrite{a: a, tag: tag, img: img, readBack: b.gcReads[&img[0]]})
	b.Backend.WritePage(a, img, tag, func(err error) {
		stored := b.card.Peek(a)
		b.writes[i].err = err
		b.writes[i].stored = err == nil && len(stored) > 0 && &stored[0] == &img[0]
		cb(err)
	})
}

func newSpyHarness(t testing.TB, geo nand.Geometry, cfg Config) (*harness, *spyBackend) {
	spy := &spyBackend{gcReads: make(map[*byte]bool)}
	h := newHarnessOver(t, geo, nand.Reliability{}, cfg, func(b Backend) Backend {
		spy.Backend = b
		return spy
	})
	spy.card = h.card
	return h, spy
}

// churn seeds every logical page and then overwrites at random until
// the collector has moved pages, returning the last version written of
// each page.
func churn(t testing.TB, h *harness, geo nand.Geometry, overwrites int) map[int]byte {
	t.Helper()
	lpns := h.ftl.LogicalPages()
	version := make(map[int]byte)
	for lpn := 0; lpn < lpns; lpn++ {
		if err := h.write(t, lpn, page(geo, byte(lpn))); err != nil {
			t.Fatalf("seed lpn %d: %v", lpn, err)
		}
		version[lpn] = byte(lpn)
	}
	rng := sim.NewRNG(7)
	for i := 0; i < overwrites; i++ {
		lpn, v := rng.Intn(lpns), byte(rng.Intn(256))
		if err := h.write(t, lpn, page(geo, v)); err != nil {
			t.Fatalf("overwrite %d (lpn %d): %v", i, lpn, err)
		}
		version[lpn] = v
	}
	return version
}

// TestWriteTaggedImageReachesTheCard: the snapshot WriteTagged takes is
// an image of its own (never the caller's buffer, whatever its
// capacity), and that image — not a copy of it — is what the card
// stores. The caller scribbles on its buffer when the call returns and
// again when its callback fires; flash is unmoved.
func TestWriteTaggedImageReachesTheCard(t *testing.T) {
	geo := smallGeo()
	h, spy := newSpyHarness(t, geo, DefaultConfig())
	want := page(geo, 0x3c)
	// The caller's buffer has the capacity of an image: ownership must
	// not be inferred from it.
	buf := geo.PageImage(want)
	scribble := func() {
		b := buf[:cap(buf)]
		for i := range b {
			b[i] = 0xff
		}
	}
	h.ftl.WriteTagged(5, buf, 1, func(err error) {
		if err != nil {
			t.Error(err)
		}
		scribble()
	})
	scribble()
	h.eng.Run()

	if len(spy.writes) != 1 {
		t.Fatalf("%d programs for one write", len(spy.writes))
	}
	w := spy.writes[0]
	if !geo.IsPageImage(w.img) {
		t.Fatalf("the FTL handed down len %d cap %d, not a page image", len(w.img), cap(w.img))
	}
	if &w.img[0] == &buf[0] {
		t.Fatal("WriteTagged adopted the caller's buffer")
	}
	if !w.stored {
		t.Fatal("the card does not store the buffer WriteTagged allocated")
	}
	if got, err := h.read(t, 5); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("read back: err %v; the caller's scribbling reached flash", err)
	}
}

// TestGCMoveStoresTheBufferItRead: a relocation re-programs the image
// its read returned, which costs no payload byte (bench_test.go's
// TestRelocationAllocatesOnePage holds a move to zero allocations).
// Every GC program hands down a buffer some GC read delivered, and at
// its destination the card stores that very buffer.
func TestGCMoveStoresTheBufferItRead(t *testing.T) {
	geo := smallGeo()
	h, spy := newSpyHarness(t, geo, Config{OverProvision: 0.25, GCLowWater: 2})
	version := churn(t, h, geo, 3*h.ftl.LogicalPages())
	if h.ftl.GCMoves == 0 {
		t.Fatal("the churn never made the collector move a page")
	}
	moves := 0
	for _, w := range spy.writes {
		if w.tag != TagGC || w.err != nil {
			continue
		}
		moves++
		if !w.readBack {
			t.Fatalf("GC program at %v hands down a buffer no GC read delivered: the move copied", w.a)
		}
		if !w.stored {
			t.Fatalf("the card stores a copy of the moved page at %v", w.a)
		}
	}
	if int64(moves) != h.ftl.GCMoves {
		t.Fatalf("spy saw %d GC programs, the FTL counts %d moves", moves, h.ftl.GCMoves)
	}
	checkVersions(t, h, geo, version)
	if out := h.ftl.ops.Out(); out != 0 {
		t.Fatalf("%d page ops out of the pool at drain: every write, read and relocation must have returned its own", out)
	}
}

func checkVersions(t *testing.T, h *harness, geo nand.Geometry, version map[int]byte) {
	t.Helper()
	for lpn, v := range version {
		if got, err := h.read(t, lpn); err != nil || !bytes.Equal(got, page(geo, v)) {
			t.Fatalf("lpn %d after GC: err %v, wrong data", lpn, err)
		}
	}
}

// TestSharedReadResultIsCopiedBeforeRelocation (the name is from when a
// result clipped to the page was snapshotted before the move): a page
// image is the page and nothing behind it, so a backend that delivers
// GC reads clipped to the page — a device fake, a layer that copied —
// has delivered an image all the same. The move programs it back as it
// stands, and the card stores it.
func TestSharedReadResultIsCopiedBeforeRelocation(t *testing.T) {
	geo := smallGeo()
	var spy *spyBackend
	h := newHarnessOver(t, geo, nand.Reliability{}, Config{OverProvision: 0.25, GCLowWater: 2}, func(b Backend) Backend {
		spy = &spyBackend{Backend: clipGCReads{b}, gcReads: make(map[*byte]bool)}
		return spy
	})
	spy.card = h.card
	version := churn(t, h, geo, 3*h.ftl.LogicalPages())
	if h.ftl.GCMoves == 0 {
		t.Fatal("no GC move happened")
	}
	for _, w := range spy.writes {
		if w.tag == TagGC && (!w.readBack || !geo.IsPageImage(w.img) || w.err != nil || !w.stored) {
			t.Fatalf("GC program at %v: handed down the read result %v, image %v, err %v, stored %v",
				w.a, w.readBack, geo.IsPageImage(w.img), w.err, w.stored)
		}
	}
	checkVersions(t, h, geo, version)
}

// clipGCReads delivers every GC read clipped to the page.
type clipGCReads struct{ Backend }

func (b clipGCReads) ReadPage(a nand.Addr, tag IOTag, cb func([]byte, error)) {
	b.Backend.ReadPage(a, tag, func(data []byte, err error) {
		if tag == TagGC && err == nil {
			data = data[:len(data):len(data)]
		}
		cb(data, err)
	})
}

// TestBadBlockRetryResubmitsTheSameImage: a program that hits a bad
// block is issued again elsewhere with the very image that failed, and
// the card ends up storing that image with the right bytes.
func TestBadBlockRetryResubmitsTheSameImage(t *testing.T) {
	geo := smallGeo()
	h, spy := newSpyHarness(t, geo, DefaultConfig())
	// Block 0 of bus 0 is the least-worn free block the first write
	// opens its frontier in.
	h.card.MarkBad(nand.Addr{Bus: 0, Chip: 0, Block: 0})
	want := page(geo, 0x77)
	if err := h.write(t, 2, want); err != nil {
		t.Fatal(err)
	}
	if h.ftl.BadBlocks != 1 || len(spy.writes) != 2 {
		t.Fatalf("bad blocks %d, programs %d: want one failed program and one retry", h.ftl.BadBlocks, len(spy.writes))
	}
	first, retry := spy.writes[0], spy.writes[1]
	if first.err == nil || retry.err != nil {
		t.Fatalf("program outcomes %v, %v", first.err, retry.err)
	}
	if &first.img[0] != &retry.img[0] {
		t.Fatal("the retry programmed a different buffer than the one that failed")
	}
	if !retry.stored {
		t.Fatal("the card does not store the re-submitted image")
	}
	if got, err := h.read(t, 2); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("read back after the retry: err %v, wrong data", err)
	}
	if out := h.ftl.ops.Out(); out != 0 {
		t.Fatalf("%d page ops out of the pool at drain: the retried write holds one op throughout", out)
	}
}

// TestWritesAllocateOnePagePerProgram extends flashserver's
// TestPageOpsAllocateOnePage upward: under steady-state GC a logical
// write costs one page-sized buffer — the host write's image. The
// programs the collector adds cost none: a move programs back the image
// its read delivered, which is the one the victim page stores.
func TestWritesAllocateOnePagePerProgram(t *testing.T) {
	geo := smallGeo()
	h := newHarness(t, geo, nand.Reliability{}, Config{OverProvision: 0.25, GCLowWater: 2})
	churn(t, h, geo, 2*h.ftl.LogicalPages()) // into steady-state GC, pools warm
	f := h.ftl
	lpns := f.LogicalPages()
	rng := sim.NewRNG(3)
	buf := page(geo, 1)
	progs, moves, writes := f.FlashPrograms, f.GCMoves, f.HostWrites
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < 4*lpns; i++ {
		if err := h.write(t, rng.Intn(lpns), buf); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	progs, moves, writes = f.FlashPrograms-progs, f.GCMoves-moves, f.HostWrites-writes
	if moves == 0 || progs != writes+moves {
		t.Fatalf("window: %d host writes, %d moves, %d programs", writes, moves, progs)
	}
	got := float64(after.TotalAlloc - before.TotalAlloc)
	if budget := 1.15 * float64(writes) * float64(geo.PageSize); got >= budget {
		t.Errorf("%d host writes (%d programs, %d of them GC moves) allocated %.0f B, budget %.0f: more than one page per host write",
			writes, progs, moves, got, budget)
	}
}
