package rfs

import (
	"bytes"
	"testing"
)

// A written page is one image from the file write to the cell: the
// buffer a file write allocates is the one the card stores. The test
// watches the FS/port boundary with a spy and compares what crossed it
// with what the card holds; the card runs under the image guard. (How a
// move and a bad-block retry keep the image is the log's, tested on
// both keyings in keyings_test.go.)

// TestFileWriteImageReachesTheCard: the snapshot a file write takes is
// an image of its own — never the caller's buffer, whatever capacity it
// has, here a page cut out of a bigger buffer the way a bulk loader
// cuts them — and that image, not a copy, is what the card stores. The
// caller scribbles on its buffer when the call returns and again when
// its callback fires; flash is unmoved.
func TestFileWriteImageReachesTheCard(t *testing.T) {
	geo := smallGeo()
	h := newHarness(t, geo)
	spy := spyOn(h.fs.Log, h.card, geo)
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
		if !geo.IsPageImage(w.img) {
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
