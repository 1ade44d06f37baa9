package flashserver

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/ecc"
	"repro/internal/flashctl"
	"repro/internal/nand"
	"repro/internal/sim"
)

// Page images are immutable: a clean read hands the requester the very
// image the card stores, a read with bits to correct a private
// corrected copy, and the program path stores the one image WriteImage
// adopted (WritePhysical snapshots into one first). These tests pin
// those rules, the guard that catches a holder writing to an image, the
// failure mode view reassembly must catch, and the allocation budget.
// Every stack here runs with nand.Reliability.GuardImages on.

func writePage(t *testing.T, eng *sim.Engine, f *Iface, a nand.Addr, data []byte) {
	t.Helper()
	f.WritePhysical(a, data, func(err error) {
		if err != nil {
			t.Errorf("write %v: %v", a, err)
		}
	})
	eng.Run()
}

func readPage(t *testing.T, eng *sim.Engine, f *Iface, a nand.Addr) []byte {
	t.Helper()
	var got []byte
	f.ReadPhysical(a, func(d []byte, err error) {
		if err != nil {
			t.Errorf("read %v: %v", a, err)
		}
		got = d
	})
	eng.Run()
	return got
}

// TestCleanReadDeliversTheStoredImage: a read that draws no bit error
// copies nothing. Its result is a view of the image the card stores,
// check bytes behind it as spare capacity, and every other clean read
// of the page, concurrent or later, delivers that same image.
func TestCleanReadDeliversTheStoredImage(t *testing.T) {
	eng, card, srv := stack(t, 8)
	f := srv.NewIface()
	a := nand.Addr{Bus: 0, Chip: 0, Block: 0, Page: 0}
	want := pattern(8192, 0x5a)
	writePage(t, eng, f, a, want)

	var results [][]byte
	for i := 0; i < 2; i++ { // two in flight together
		f.ReadPhysical(a, func(d []byte, err error) {
			if err != nil {
				t.Error(err)
			}
			results = append(results, d)
		})
	}
	eng.Run()
	results = append(results, readPage(t, eng, f, a)) // and one later
	stored := card.Peek(a)
	for i, d := range results {
		if !testGeometry().IsPageImage(d) || !bytes.Equal(d, want) {
			t.Fatalf("read %d: len %d cap %d, or wrong bytes", i, len(d), cap(d))
		}
		if &d[0] != &stored[0] {
			t.Fatalf("read %d delivered a copy of the stored image", i)
		}
	}
}

// TestBadStoredImageIsCorrectedInACopy: the controller never corrects a
// stored image in place. An image programmed with one wrong bit is
// delivered corrected, in a private copy, while the card still holds
// the wrong bit; one with two wrong bits in a word fails with
// ErrUncorrectable and is left as it was.
func TestBadStoredImageIsCorrectedInACopy(t *testing.T) {
	eng, card, srv := stack(t, 8)
	f := srv.NewIface()
	codec, err := ecc.NewPageCodec(8192)
	if err != nil {
		t.Fatal(err)
	}
	want := pattern(8192, 0x33)
	program := func(a nand.Addr, flipBits ...int) []byte {
		raw, err := codec.EncodePage(want)
		if err != nil {
			t.Fatal(err)
		}
		for _, bit := range flipBits {
			ecc.FlipBit(raw, bit)
		}
		card.ProgramPage(a, raw, func(err error) {
			if err != nil {
				t.Fatal(err)
			}
		})
		eng.Run()
		return append([]byte(nil), raw...)
	}

	one := nand.Addr{Page: 0}
	asStored := program(one, 8*100+3)
	got := readPage(t, eng, f, one)
	if !bytes.Equal(got, want) {
		t.Fatal("a single wrong bit was not corrected")
	}
	if stored := card.Peek(one); &got[0] == &stored[0] || !bytes.Equal(stored, asStored) {
		t.Fatal("the correction was made in the stored image")
	}
	if n := srv.ctl.CorrectedBits.Value(); n != 1 {
		t.Fatalf("CorrectedBits %d, want 1", n)
	}

	two := nand.Addr{Page: 1}
	asStored = program(two, 8*4096, 8*4096+9) // both in the word at byte 4096
	f.ReadPhysical(two, func(d []byte, err error) {
		if !errors.Is(err, flashctl.ErrUncorrectable) || d != nil {
			t.Fatalf("two wrong bits in one word: %d bytes, err %v", len(d), err)
		}
	})
	eng.Run()
	if !bytes.Equal(card.Peek(two), asStored) {
		t.Fatal("a failed decode changed the stored image")
	}
	if err := card.CheckImages(); err != nil {
		t.Fatal(err)
	}
}

// TestSealDoesNotOutliveTheImage: a page written and read through the
// controller is sealed, and its clean reads stream the stored image
// undecoded. The erase of its block through the controller, and
// Card.Replace, each drop the seal with the image, so an image
// programmed at the same address around the controller with one wrong
// bit is decoded and delivered corrected.
func TestSealDoesNotOutliveTheImage(t *testing.T) {
	for _, drop := range []string{"erase", "Replace"} {
		t.Run(drop, func(t *testing.T) {
			eng, card, srv := stack(t, 8)
			f := srv.NewIface()
			a := nand.Addr{Bus: 1, Block: 4}
			want := pattern(8192, 0x6c)
			writePage(t, eng, f, a, want)
			if got := readPage(t, eng, f, a); &got[0] != &card.Peek(a)[0] {
				t.Fatal("a clean read of a sealed page did not deliver the stored image")
			}
			if n := len(card.Peek(a)); n != len(want) {
				t.Fatalf("a page written through the controller stores %d bytes: it is not sealed", n)
			}
			if drop == "erase" {
				f.Erase(a, func(err error) {
					if err != nil {
						t.Fatal(err)
					}
				})
				eng.Run()
			} else {
				card.Replace()
			}
			codec, err := ecc.NewPageCodec(8192)
			if err != nil {
				t.Fatal(err)
			}
			raw, err := codec.EncodePage(want)
			if err != nil {
				t.Fatal(err)
			}
			ecc.FlipBit(raw, 8*200+2)
			card.ProgramPage(a, raw, func(err error) {
				if err != nil {
					t.Fatal(err)
				}
			})
			eng.Run()
			if got := readPage(t, eng, f, a); !bytes.Equal(got, want) || srv.ctl.CorrectedBits.Value() != 1 {
				t.Fatalf("after %s and a hand-made image: page as written %v, %d bits corrected; want it corrected", drop, bytes.Equal(got, want), srv.ctl.CorrectedBits.Value())
			}
		})
	}
}

// TestFlippedReadsAcrossTheLifecycle: on a card where every read draws
// flips, a page written through the interface reads back, and so does
// its image relocated with WriteImage to a second page — the stored
// image, or the corrected copy a read delivered — each read there drawing
// flips of its own: the card fills every flipped copy's check bytes from
// its page, and under the guard proves them against the ones encoded.
// After the erase of the second block, or Replace, an image programmed
// there around the controller with one wrong check bit is decoded from
// its own check bytes: the wrong bit is corrected on top of the flips.
func TestFlippedReadsAcrossTheLifecycle(t *testing.T) {
	for _, src := range []string{"stored image", "corrected copy"} {
		for _, drop := range []string{"erase", "Replace"} {
			t.Run(src+"/"+drop, func(t *testing.T) {
				eng, card, srv := stackWith(t, 1e-4, 8, nil)
				f := srv.NewIface()
				geo := card.Geometry()
				want := pattern(geo.PageSize, 0x2d)
				from, to := nand.Addr{Block: 1}, nand.Addr{Bus: 1, Block: 2}
				flippedRead := func(a nand.Addr) ([]byte, int64) {
					t.Helper()
					flips, corrected := card.InjectedFlips.Value(), srv.ctl.CorrectedBits.Value()
					got := readPage(t, eng, f, a)
					if flips == card.InjectedFlips.Value() {
						t.Fatalf("the read of %v drew no flip", a)
					}
					return got, srv.ctl.CorrectedBits.Value() - corrected - (card.InjectedFlips.Value() - flips)
				}

				writePage(t, eng, f, from, want)
				got, _ := flippedRead(from)
				if !bytes.Equal(got, want) {
					t.Fatal("the source page does not read back")
				}
				img := card.Peek(from)[:geo.PageSize]
				if src == "corrected copy" {
					img = got
				}
				f.WriteImage(to, img, func(err error) {
					if err != nil {
						t.Fatal(err)
					}
				})
				eng.Run()
				if got, _ := flippedRead(to); !bytes.Equal(got, want) {
					t.Fatal("the relocated page does not read back")
				}

				if drop == "erase" {
					f.Erase(to, func(err error) {
						if err != nil {
							t.Fatal(err)
						}
					})
					eng.Run()
				} else {
					card.Replace()
				}
				codec, err := ecc.NewPageCodec(geo.PageSize)
				if err != nil {
					t.Fatal(err)
				}
				raw, err := codec.EncodePage(want)
				if err != nil {
					t.Fatal(err)
				}
				ecc.FlipBit(raw, 8*(geo.PageSize+40)+3) // a check bit of the word at byte 320
				card.ProgramPage(to, raw, func(err error) {
					if err != nil {
						t.Fatal(err)
					}
				})
				eng.Run()
				if got, extra := flippedRead(to); !bytes.Equal(got, want) || extra != 1 {
					t.Fatalf("after %s, a hand-made image: page as written %v, %d corrected beyond the flips; want its own wrong check bit corrected", drop, bytes.Equal(got, want), extra)
				}
			})
		}
	}
}

// TestScribbleAfterHandOffTripsTheProgram: an image is immutable from
// the moment an adopting call takes it. A writer that changes its image
// after WriteImage returned, before the write is acknowledged, has
// written to what the card is about to store; with the guard on, the
// program fails right there, naming the page, and no read ever sees the
// bytes — whether the card is already programming the image (its own
// checksum catches it) or the image still waits for a queue-depth
// credit (the server's, taken where WriteImage adopted it, does).
func TestScribbleAfterHandOffTripsTheProgram(t *testing.T) {
	for _, when := range []string{"while the card programs it", "before the controller takes it"} {
		t.Run(when, func(t *testing.T) {
			eng, card, srv := stack(t, 1)
			f := srv.NewIface()
			geo := card.Geometry()
			a := nand.Addr{Bus: 1, Chip: 1, Block: 5}
			img := geo.PageImage(pattern(geo.PageSize, 0x17))
			if when == "before the controller takes it" {
				f.Erase(nand.Addr{Block: 6}, func(error) {}) // holds the one credit
			}
			f.WriteImage(a, img, func(err error) { t.Errorf("the write of a scribbled image was acknowledged: %v", err) })
			if when == "while the card programs it" {
				eng.RunUntil(eng.Now() + nand.DefaultTiming().Program/2)
			}
			img[99] ^= 0x04
			defer func() {
				msg := fmt.Sprint(recover())
				if !strings.Contains(msg, a.String()) || !strings.Contains(msg, "found by program") {
					t.Fatalf("program of an image scribbled after hand-off: %q; want a failure naming %v and the program", msg, a)
				}
			}()
			eng.Run()
		})
	}
}

// TestScribbledReadResultTripsTheGuard: a read result is not the
// receiver's to modify. One that writes a single byte of it has written
// to the stored image; with the guard on, CheckImages reports the page,
// and the next read of it fails on the spot, naming the page and the
// operation, instead of surfacing layers up as wrong bytes.
func TestScribbledReadResultTripsTheGuard(t *testing.T) {
	eng, card, srv := stack(t, 8)
	f := srv.NewIface()
	a, other := nand.Addr{Bus: 1, Chip: 1, Block: 2, Page: 0}, nand.Addr{}
	writePage(t, eng, f, a, pattern(8192, 1))
	writePage(t, eng, f, other, pattern(8192, 2))
	if err := card.CheckImages(); err != nil {
		t.Fatal(err)
	}
	readPage(t, eng, f, a)[17] ^= 0x01

	if err := card.CheckImages(); err == nil || !strings.Contains(err.Error(), a.String()) {
		t.Fatalf("CheckImages after a scribble on %v: %v", a, err)
	}
	readPage(t, eng, f, other) // other pages still read
	defer func() {
		msg := fmt.Sprint(recover())
		if !strings.Contains(msg, a.String()) || !strings.Contains(msg, "found by read") {
			t.Fatalf("reading the scribbled page: %s; want a panic naming %v and the read", msg, a)
		}
	}()
	readPage(t, eng, f, a)
}

// TestWritePhysicalSnapshotsBeforeReturning: the caller may reuse its
// buffer as soon as WritePhysical returns — also when the op has to
// wait for a queue-depth credit and is issued much later.
func TestWritePhysicalSnapshotsBeforeReturning(t *testing.T) {
	eng, _, srv := stack(t, 1) // one credit: the later writes wait
	f := srv.NewIface()
	buf := make([]byte, 8192)
	for p := 0; p < 4; p++ {
		copy(buf, pattern(8192, byte(p)))
		f.WritePhysical(nand.Addr{Bus: 0, Chip: 0, Block: 0, Page: p}, buf, func(err error) {
			if err != nil {
				t.Error(err)
			}
		})
		for i := range buf {
			buf[i] = 0xff
		}
	}
	eng.Run()
	for p := 0; p < 4; p++ {
		if got := readPage(t, eng, f, nand.Addr{Bus: 0, Chip: 0, Block: 0, Page: p}); !bytes.Equal(got, pattern(8192, byte(p))) {
			t.Fatalf("page %d: the caller's later writes to its buffer reached flash", p)
		}
	}
}

// TestWritePhysicalNeverAdopts: WritePhysical copies whatever it is
// given. A caller's buffer that happens to have the shape of a page
// image, or to run on into the caller's next page, is still the
// caller's: it may scribble on all of it the moment the call returns.
func TestWritePhysicalNeverAdopts(t *testing.T) {
	eng, card, srv := stack(t, 8)
	f := srv.NewIface()
	geo := card.Geometry()
	// One big buffer cut into pages: every page but the last has the
	// capacity of an image.
	const pages = 3
	big := make([]byte, pages*geo.PageSize)
	ack := func(err error) {
		if err != nil {
			t.Error(err)
		}
		for i := range big { // and again from the callback
			big[i] = 0xee
		}
	}
	for p := 0; p < pages; p++ {
		copy(big[p*geo.PageSize:], pattern(geo.PageSize, byte(p)))
	}
	for p := 0; p < pages; p++ {
		page := big[p*geo.PageSize : (p+1)*geo.PageSize]
		if p == 0 && !geo.IsPageImage(page) {
			t.Fatal("test premise: the caller's page should look like an image")
		}
		f.WritePhysical(nand.Addr{Page: p}, page, ack)
	}
	for i := range big {
		big[i] = 0xff
	}
	eng.Run()
	for p := 0; p < pages; p++ {
		a := nand.Addr{Page: p}
		if stored := card.Peek(a); &stored[0] == &big[p*geo.PageSize] {
			t.Fatalf("page %d: flash stores the caller's buffer", p)
		}
		if got := readPage(t, eng, f, a); !bytes.Equal(got, pattern(geo.PageSize, byte(p))) {
			t.Fatalf("page %d: the caller's later writes to its buffer reached flash", p)
		}
	}
}

// TestWriteImageStoresTheBuffer: WriteImage adopts. The image the
// caller built is the buffer the card stores — nothing on the way
// copies it, and nothing adds check bytes to it.
func TestWriteImageStoresTheBuffer(t *testing.T) {
	eng, card, srv := stack(t, 8)
	f := srv.NewIface()
	geo := card.Geometry()
	want := pattern(geo.PageSize, 0x21)
	img := geo.PageImage(want)
	a := nand.Addr{Bus: 1}
	f.WriteImage(a, img, func(err error) {
		if err != nil {
			t.Error(err)
		}
	})
	eng.Run()
	stored := card.Peek(a)
	if len(stored) != geo.PageSize || &stored[0] != &img[0] {
		t.Fatal("the card does not store the image WriteImage was given")
	}
	if got := readPage(t, eng, f, a); !bytes.Equal(got, want) {
		t.Fatal("adopted image reads back wrong")
	}
}

// TestFailedWriteReturnsTheImage: a program that fails keeps nothing,
// so the issuer may send the very same image to another block — the
// FTL's and the file system's bad-block retry.
func TestFailedWriteReturnsTheImage(t *testing.T) {
	eng, card, srv := stack(t, 8)
	f := srv.NewIface()
	geo := card.Geometry()
	want := pattern(geo.PageSize, 0x42)
	img := geo.PageImage(want)
	bad, good := nand.Addr{Block: 1}, nand.Addr{Block: 2}
	card.MarkBad(bad)
	f.WriteImage(bad, img, func(err error) {
		if !errors.Is(err, nand.ErrBadBlock) {
			t.Fatalf("program of a bad block: %v", err)
		}
		if !geo.IsPageImage(img) || !bytes.Equal(img, want) {
			t.Fatal("the failed program damaged the image")
		}
		f.WriteImage(good, img, func(err error) {
			if err != nil {
				t.Error(err)
			}
		})
	})
	eng.Run()
	if stored := card.Peek(good); len(stored) == 0 || &stored[0] != &img[0] {
		t.Fatal("the re-submitted image is not what the card stores")
	}
	if got := readPage(t, eng, f, good); !bytes.Equal(got, want) {
		t.Fatal("re-submitted image reads back wrong")
	}
}

// TestWriteImageRejectsNonImages: an adopting call handed anything but
// an image — a buffer of any length but PageSize, whatever its
// capacity — fails with ErrDataSize in FIFO order, holds no queue-depth
// credit, leaks no controller tag and stores nothing. (A page-length
// buffer is an image by its shape; a holder that writes to it after
// handing it down fails its program: TestScribbleAfterHandOffTripsTheProgram.)
func TestWriteImageRejectsNonImages(t *testing.T) {
	eng, card, srv := stack(t, 2)
	f := srv.NewIface()
	geo := card.Geometry()
	var order []string
	ok := func(name string) func(error) {
		return func(err error) {
			order = append(order, name)
			if err != nil {
				t.Errorf("%s: %v", name, err)
			}
		}
	}
	rejected := func(name string) func(error) {
		return func(err error) {
			order = append(order, name)
			if !errors.Is(err, flashctl.ErrDataSize) {
				t.Errorf("%s: %v, want ErrDataSize", name, err)
			}
		}
	}
	f.WriteImage(nand.Addr{Page: 0}, geo.PageImage(pattern(geo.PageSize, 1)), ok("first"))
	f.WriteImage(nand.Addr{Page: 1}, make([]byte, 100, geo.StoredPageSize()), rejected("short"))
	f.WriteImage(nand.Addr{Page: 1}, make([]byte, geo.StoredPageSize()), rejected("long"))
	f.WriteImage(nand.Addr{Page: 1}, geo.PageImage(pattern(geo.PageSize, 3)), ok("last"))
	eng.Run()
	if want := []string{"first", "short", "long", "last"}; !slices.Equal(order, want) {
		t.Fatalf("completions %v, want %v", order, want)
	}
	if f.credits != 2 {
		t.Fatalf("credits = %d after rejected images, want the queue depth 2", f.credits)
	}
	if free := srv.ctl.FreeTags(); free != srv.ctl.Config().Tags {
		t.Fatalf("%d of %d controller tags free after rejected images", free, srv.ctl.Config().Tags)
	}
	if got := readPage(t, eng, f, nand.Addr{Page: 1}); !bytes.Equal(got, pattern(geo.PageSize, 3)) {
		t.Fatal("page 1 does not hold the one valid image written to it")
	}
}

func TestWritePhysicalRejectsWrongSize(t *testing.T) {
	eng, _, srv := stack(t, 8)
	f := srv.NewIface()
	var got error
	f.WritePhysical(nand.Addr{}, make([]byte, 100), func(err error) { got = err })
	eng.Run()
	if !errors.Is(got, flashctl.ErrDataSize) {
		t.Fatalf("short page: %v, want ErrDataSize", got)
	}
	// Nothing was issued or leaked: the interface still works.
	writePage(t, eng, f, nand.Addr{}, pattern(8192, 1))
}

// TestMisassembledReadFails: a burst that goes missing, arrives twice,
// arrives out of order or is not a view of the page buffer must fail
// the read with ErrShortRead through the normal FIFO completion —
// never deliver a short or shuffled page with a nil error — and leave
// the interface working.
func TestMisassembledReadFails(t *testing.T) {
	var held struct {
		off   int
		chunk []byte
	}
	cases := []struct {
		name   string
		tamper func(deliver readChunkFn, tag, off int, chunk []byte, last bool)
	}{
		{"dropped middle burst", func(deliver readChunkFn, tag, off int, chunk []byte, last bool) {
			if off != 2048 {
				deliver(tag, off, chunk, last)
			}
		}},
		{"dropped last burst", func(deliver readChunkFn, tag, off int, chunk []byte, last bool) {
			if !last {
				deliver(tag, off, chunk, last)
			}
		}},
		{"dropped first burst", func(deliver readChunkFn, tag, off int, chunk []byte, last bool) {
			if off != 0 {
				deliver(tag, off, chunk, last)
			}
		}},
		{"repeated burst", func(deliver readChunkFn, tag, off int, chunk []byte, last bool) {
			deliver(tag, off, chunk, last)
			if off == 2048 {
				deliver(tag, off, chunk, last)
			}
		}},
		{"swapped bursts", func(deliver readChunkFn, tag, off int, chunk []byte, last bool) {
			switch off {
			case 2048:
				held.off, held.chunk = off, chunk
			case 4096:
				deliver(tag, off, chunk, last)
				deliver(tag, held.off, held.chunk, false)
			default:
				deliver(tag, off, chunk, last)
			}
		}},
		{"burst that is a copy, not a view", func(deliver readChunkFn, tag, off int, chunk []byte, last bool) {
			if off == 2048 {
				chunk = append([]byte(nil), chunk...)
			}
			deliver(tag, off, chunk, last)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tampering := false
			eng, _, srv := stackWith(t, 0, 8, func(deliver readChunkFn, tag, off int, chunk []byte, last bool) {
				if tampering {
					tc.tamper(deliver, tag, off, chunk, last)
					return
				}
				deliver(tag, off, chunk, last)
			})
			f := srv.NewIface()
			a := nand.Addr{Bus: 0, Chip: 0, Block: 0, Page: 0}
			b := nand.Addr{Bus: 1, Chip: 0, Block: 0, Page: 0}
			writePage(t, eng, f, a, pattern(8192, 7))
			writePage(t, eng, f, b, pattern(8192, 8))

			tampering = true
			var order []string
			f.ReadPhysical(a, func(d []byte, err error) {
				order = append(order, "bad")
				if !errors.Is(err, ErrShortRead) {
					t.Errorf("err = %v, want ErrShortRead", err)
				}
				if d != nil {
					t.Errorf("failed read delivered %d bytes", len(d))
				}
			})
			eng.Run()
			tampering = false
			f.ReadPhysical(b, func(d []byte, err error) {
				order = append(order, "good")
				if err != nil || !bytes.Equal(d, pattern(8192, 8)) {
					t.Errorf("read after a failed read: err %v", err)
				}
			})
			eng.Run()
			if len(order) != 2 || order[0] != "bad" || order[1] != "good" {
				t.Fatalf("completions %v, want [bad good]", order)
			}
			if out := f.srv.pool.Out(); out != 0 || f.fifo.Len() != 0 {
				t.Fatalf("at drain %d page ops are out of the pool and %d in the FIFO", out, f.fifo.Len())
			}
		})
	}
}

// TestRejectedOpTakesNoCredit: an op that fails before it reaches the
// controller (here a write of a buffer that is not a page image) never
// held a queue-depth credit, so completing it must not mint one.
func TestRejectedOpTakesNoCredit(t *testing.T) {
	eng, _, srv := stack(t, 2)
	f := srv.NewIface()
	for i := 0; i < 5; i++ {
		f.WriteImage(nand.Addr{Page: i}, pattern(100, byte(i)), func(err error) {
			if !errors.Is(err, flashctl.ErrDataSize) {
				t.Errorf("err = %v", err)
			}
		})
	}
	eng.Run()
	if f.credits != 2 {
		t.Fatalf("credits = %d after rejected ops, want the queue depth 2", f.credits)
	}
	if out := f.srv.pool.Out(); out != 0 {
		t.Fatalf("%d rejected page ops never went back to the pool", out)
	}
}
