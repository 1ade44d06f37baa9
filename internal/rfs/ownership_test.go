package rfs

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/nand"
	"repro/internal/sched"
)

// A written page is one image from the file write to the cell: the
// buffer writePage allocates is the one the card stores, a cleaner move
// stores the image its read returned — the one the victim page still
// holds — and a program that fails on a bad block goes out again with
// the same image. These tests watch the FS/backend boundary with a spy
// and compare what crossed it with what the card holds; the cards run
// under the image guard.

// spyBackend records every buffer that crosses the backend interface.
type spyBackend struct {
	Backend
	card       *nand.Card
	writes     []spyWrite     // every WritePage in issue order, outcome filled in on completion
	cleanReads map[*byte]bool // first byte of every result a cleaner read delivered
	copied     int            // cleaner reads whose result was not the image stored at the page read
}

type spyWrite struct {
	ppn      int
	clean    bool
	img      []byte
	readBack bool // when it was issued, img was a buffer some cleaner read had delivered
	err      error
	stored   bool // on completion the card held img itself at ppn
}

func (b *spyBackend) ReadPage(ppn int, class sched.Class, clean bool, cb func([]byte, error)) {
	b.Backend.ReadPage(ppn, class, clean, func(data []byte, err error) {
		if clean && err == nil {
			b.cleanReads[&data[0]] = true
			if stored := b.card.Peek(b.Addr(ppn).Addr); len(stored) == 0 || &stored[0] != &data[0] {
				b.copied++
			}
		}
		cb(data, err)
	})
}

func (b *spyBackend) WritePage(ppn int, class sched.Class, clean bool, img []byte, cb func(error)) {
	i := len(b.writes)
	b.writes = append(b.writes, spyWrite{ppn: ppn, clean: clean, img: img, readBack: b.cleanReads[&img[0]]})
	b.Backend.WritePage(ppn, class, clean, img, func(err error) {
		stored := b.card.Peek(b.Addr(ppn).Addr)
		b.writes[i].err = err
		b.writes[i].stored = err == nil && len(stored) > 0 && &stored[0] == &img[0]
		cb(err)
	})
}

func newSpyHarness(t testing.TB, geo nand.Geometry) (*harness, *spyBackend) {
	spy := &spyBackend{cleanReads: make(map[*byte]bool)}
	h := newHarnessOver(t, geo, func(b Backend) Backend {
		spy.Backend = b
		return spy
	})
	spy.card = h.card
	return h, spy
}

// TestFileWriteImageReachesTheCard: the snapshot a file write takes is
// an image of its own — never the caller's buffer, whatever capacity it
// has, here a page cut out of a bigger buffer the way a bulk loader
// cuts them — and that image, not a copy, is what the card stores. The
// caller scribbles on its buffer when the call returns and again when
// its callback fires; flash is unmoved.
func TestFileWriteImageReachesTheCard(t *testing.T) {
	geo := smallGeo()
	h, spy := newSpyHarness(t, geo)
	f, err := h.fs.Create("a")
	if err != nil {
		t.Fatal(err)
	}
	const pages = 3
	big := make([]byte, pages*geo.PageSize)
	scribble := func() {
		for i := range big {
			big[i] = 0xff
		}
	}
	for p := 0; p < pages; p++ {
		copy(big, bytes.Repeat(pg(geo, byte(p)), pages)) // every slot holds page p
		buf := big[p*geo.PageSize : (p+1)*geo.PageSize]  // capacity runs into the next slot
		write := f.AppendPage
		if p == pages-1 {
			write = func(data []byte, cb func(error)) { f.WritePage(0, data, cb) } // overwrite, same path
		}
		write(buf, func(err error) {
			if err != nil {
				t.Error(err)
			}
			scribble()
		})
		scribble()
		h.eng.Run()
	}
	if len(spy.writes) != pages {
		t.Fatalf("%d programs for %d writes", len(spy.writes), pages)
	}
	for i, w := range spy.writes {
		if !h.fs.geo.IsPageImage(w.img) {
			t.Fatalf("write %d: the FS handed down len %d cap %d, not a page image", i, len(w.img), cap(w.img))
		}
		if &w.img[0] == &big[i*geo.PageSize] {
			t.Fatalf("write %d: the FS adopted the caller's buffer", i)
		}
		if !w.stored {
			t.Fatalf("write %d: the card does not store the buffer the FS allocated", i)
		}
	}
	for idx, want := range []byte{pages - 1, 1} {
		if got, err := h.readPage(t, f, idx); err != nil || !bytes.Equal(got, pg(geo, want)) {
			t.Fatalf("page %d: err %v; the caller's scribbling reached flash", idx, err)
		}
	}
}

// cleanerChurn overwrites a file that fills most of the card until the
// cleaner has moved pages, returning the last version of each page.
func cleanerChurn(t testing.TB, h *harness, geo nand.Geometry) (*File, []byte) {
	t.Helper()
	f, err := h.fs.Create("churn")
	if err != nil {
		t.Fatal(err)
	}
	pages := h.fs.lay.TotalPages() * 5 / 8
	version := make([]byte, pages)
	for i := 0; i < pages; i++ {
		if err := h.appendPage(t, f, pg(geo, byte(i))); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		version[i] = byte(i)
	}
	for i := 0; i < 4*pages && h.fs.CleanMoves < 8; i++ {
		idx := i * 7 % pages
		v := byte(0x80 + i)
		var werr error = errors.New("overwrite never completed")
		f.WritePage(idx, pg(geo, v), func(err error) { werr = err })
		h.eng.Run()
		if werr != nil {
			t.Fatalf("overwrite %d: %v", i, werr)
		}
		version[idx] = v
	}
	if h.fs.CleanMoves == 0 {
		t.Fatal("the churn never made the cleaner move a page")
	}
	return f, version
}

// TestCleanerMoveStoresTheBufferItRead: a cleaner move costs no payload
// byte. Its read delivers the image the victim page stores, the move
// hands that very buffer down, and the card stores it at the
// destination. (That a move allocates nothing at all is
// TestPageOpsAllocate's pin.)
func TestCleanerMoveStoresTheBufferItRead(t *testing.T) {
	geo := smallGeo()
	h, spy := newSpyHarness(t, geo)
	f, version := cleanerChurn(t, h, geo)
	moves := int64(0)
	for _, w := range spy.writes {
		if !w.clean || w.err != nil {
			continue
		}
		moves++
		if !w.readBack {
			t.Fatalf("cleaning program at ppn %d hands down a buffer no cleaning read delivered: the move copied", w.ppn)
		}
		if !w.stored {
			t.Fatalf("the card stores a copy of the moved page at ppn %d", w.ppn)
		}
	}
	if moves != h.fs.CleanMoves || spy.copied != 0 {
		t.Fatalf("spy saw %d cleaning programs, the FS counts %d moves; %d cleaner reads delivered a copy of the stored image",
			moves, h.fs.CleanMoves, spy.copied)
	}
	checkVersions(t, h, f, version)
	if err := h.fs.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func checkVersions(t *testing.T, h *harness, f *File, version []byte) {
	t.Helper()
	for idx, v := range version {
		if got, err := h.readPage(t, f, idx); err != nil || !bytes.Equal(got, pg(h.fs.geo, v)) {
			t.Fatalf("page %d after cleaning: err %v, wrong data", idx, err)
		}
	}
}

// clipCleanReads delivers every cleaner read clipped to the page.
type clipCleanReads struct{ Backend }

func (b clipCleanReads) ReadPage(ppn int, class sched.Class, clean bool, cb func([]byte, error)) {
	b.Backend.ReadPage(ppn, class, clean, func(data []byte, err error) {
		if clean && err == nil {
			data = data[:len(data):len(data)]
		}
		cb(data, err)
	})
}

// TestSharedReadResultIsCopiedBeforeCleaning (the name is from when a
// result clipped to the page was snapshotted before the move): a page
// image is the page and nothing behind it, so a cleaner read delivered
// clipped to the page — a device fake, a layer that copied — is an
// image all the same. The move programs it back as it stands.
func TestSharedReadResultIsCopiedBeforeCleaning(t *testing.T) {
	geo := smallGeo()
	spy := &spyBackend{cleanReads: make(map[*byte]bool)}
	h := newHarnessOver(t, geo, func(b Backend) Backend {
		spy.Backend = clipCleanReads{b}
		return spy
	})
	spy.card = h.card
	f, version := cleanerChurn(t, h, geo)
	for _, w := range spy.writes {
		if w.clean && (!w.readBack || !geo.IsPageImage(w.img) || w.err != nil) {
			t.Fatalf("cleaning program at ppn %d: handed down the read result %v, image %v, err %v",
				w.ppn, w.readBack, geo.IsPageImage(w.img), w.err)
		}
	}
	checkVersions(t, h, f, version)
}

// TestBadBlockRetryResubmitsTheSameImage: an append that hits a bad
// block is issued again on another segment with the very image that
// failed, and the card ends up storing that image with the right bytes.
func TestBadBlockRetryResubmitsTheSameImage(t *testing.T) {
	geo := smallGeo()
	h, spy := newSpyHarness(t, geo)
	h.card.MarkBad(nand.Addr{Bus: 0, Chip: 0, Block: 0}) // where the first append lands
	f, err := h.fs.Create("a")
	if err != nil {
		t.Fatal(err)
	}
	want := pg(geo, 0x5d)
	if err := h.appendPage(t, f, want); err != nil {
		t.Fatal(err)
	}
	if len(spy.writes) != 2 {
		t.Fatalf("%d programs: want one failed program and one retry", len(spy.writes))
	}
	first, retry := spy.writes[0], spy.writes[1]
	if !errors.Is(first.err, nand.ErrBadBlock) || retry.err != nil {
		t.Fatalf("program outcomes %v, %v", first.err, retry.err)
	}
	if &first.img[0] != &retry.img[0] {
		t.Fatal("the retry programmed a different buffer than the one that failed")
	}
	if !retry.stored {
		t.Fatal("the card does not store the re-submitted image")
	}
	if got, err := h.readPage(t, f, 0); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("read back after the retry: err %v, wrong data", err)
	}
	if out := h.fs.PoolOut(); out != 0 {
		t.Fatalf("%d page ops out of the pool after the retried append", out)
	}
}
