package flashctl

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/ecc"
	"repro/internal/nand"
)

// A read is decoded only when its bytes can differ from what the
// controller programmed: a clean read of a sealed page — one that
// stores a page image, PageSize bytes and no check bytes, which is what
// every program the controller issues stores — streams the stored image
// as it stands. These tests pin which pages are sealed, what keeps a
// seal from going stale, and the guard's proof that a skipped decode
// would have changed nothing.

// handProgram stores want at a around the controller, encoded at
// StoredPageSize with the given bits flipped: an unsealed image, which
// carries its own check bytes.
func handProgram(t *testing.T, r *rig, a nand.Addr, want []byte, flipBits ...int) {
	t.Helper()
	codec, err := ecc.NewPageCodec(len(want))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := codec.EncodePage(want)
	if err != nil {
		t.Fatal(err)
	}
	for _, bit := range flipBits {
		ecc.FlipBit(raw, bit)
	}
	r.card.ProgramPage(a, raw, func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	})
	r.eng.Run()
}

// read reads a under tag and returns the page, its corrections and error.
func (r *rig) read(t *testing.T, tag int, a nand.Addr) ([]byte, int, error) {
	t.Helper()
	delete(r.chunks, tag)
	if err := r.ctl.Issue(Command{Op: OpRead, Tag: tag, Addr: a}); err != nil {
		t.Fatal(err)
	}
	r.eng.Run()
	return r.chunks[tag], r.corrected[tag], r.readDone[tag]
}

// tryWrite drives the write protocol for one page and returns its outcome.
func (r *rig) tryWrite(t *testing.T, tag int, a nand.Addr, data []byte) error {
	t.Helper()
	if err := r.ctl.Issue(Command{Op: OpWrite, Tag: tag, Addr: a}); err != nil {
		t.Fatal(err)
	}
	r.eng.Run()
	if err := writePage(r.ctl, tag, data); err != nil {
		t.Fatal(err)
	}
	r.eng.Run()
	return r.writeDone[tag]
}

// TestOnlySealedCleanReadsSkipTheDecode: the controller trusts a seal.
// A bit that changes in a sealed stored image — which nothing but a
// broken holder can do — streams up uncorrected, because the read is not
// decoded; the same wrong bit in an image programmed around the
// controller is corrected, because that read is.
func TestOnlySealedCleanReadsSkipTheDecode(t *testing.T) {
	r := newRig(t, nand.Reliability{})
	want := pattern(8192, 9)
	sealedAt, handAt := nand.Addr{Block: 1}, nand.Addr{Block: 2}
	r.writePage(t, 0, sealedAt, want)
	handProgram(t, r, handAt, want, 8*300+1)
	ecc.FlipBit(r.card.Peek(sealedAt), 8*300+1)

	if got, corrected, err := r.read(t, 1, sealedAt); err != nil || corrected != 0 || bytes.Equal(got, want) {
		t.Fatalf("sealed page: err %v, %d corrected, page as written %v; want it streamed undecoded", err, corrected, bytes.Equal(got, want))
	}
	if got, corrected, err := r.read(t, 1, handAt); err != nil || corrected != 1 || !bytes.Equal(got, want) {
		t.Fatalf("hand-programmed page: err %v, %d corrected; want it decoded and corrected", err, corrected)
	}
}

// TestFailedProgramSealsNothing: only a program that succeeded stored
// what WriteImage encoded. A write that fails — the page is not erased,
// out of order, the card is dead — leaves the page as unsealed as it
// was, so an image programmed around the controller is still decoded.
func TestFailedProgramSealsNothing(t *testing.T) {
	r := newRig(t, nand.Reliability{})
	want := pattern(8192, 4)
	readsCorrected := func(a nand.Addr) {
		t.Helper()
		if got, corrected, err := r.read(t, 1, a); err != nil || corrected != 1 || !bytes.Equal(got, want) {
			t.Fatalf("%v: err %v, %d corrected; want the one wrong bit corrected", a, err, corrected)
		}
	}

	written := nand.Addr{Block: 1}
	handProgram(t, r, written, want, 8*64)
	if err := r.tryWrite(t, 0, written, want); !errors.Is(err, nand.ErrNotErased) {
		t.Fatalf("write over a written page: %v", err)
	}
	readsCorrected(written)

	skipped := nand.Addr{Block: 2, Page: 1}
	if err := r.tryWrite(t, 0, skipped, want); !errors.Is(err, nand.ErrOutOfOrder) {
		t.Fatalf("write out of order: %v", err)
	}
	handProgram(t, r, nand.Addr{Block: 2}, want)
	handProgram(t, r, skipped, want, 8*64)
	readsCorrected(skipped)

	r.card.Fail()
	if err := r.tryWrite(t, 0, written, want); !errors.Is(err, nand.ErrDead) {
		t.Fatalf("write to a dead card: %v", err)
	}
	if stored := r.card.Peek(written); len(stored) != r.card.Geometry().StoredPageSize() {
		t.Fatalf("a program that failed on a dead card left a %d-byte image: it sealed the page", len(stored))
	}
}

// TestGuardProvesTheSkip: a skipped decode is right because a sealed
// image is, byte for byte, the page WriteImage was handed. With the
// image guard on, a holder that writes to the image after handing it to
// WriteImage fails the next read of the page, which would otherwise
// stream the wrong page undecoded, naming the page. (A write before the
// program is the flash server's to catch, where it adopts the image.)
func TestGuardProvesTheSkip(t *testing.T) {
	t.Run("scribble after WriteImage", func(t *testing.T) {
		r := newRig(t, nand.Reliability{GuardImages: true})
		a := nand.Addr{Bus: 1, Chip: 1, Block: 3}
		raw := r.card.Geometry().PageImage(pattern(8192, 6))
		if err := r.writeImage(t, 0, a, raw); err != nil {
			t.Fatal(err)
		}
		raw[512] ^= 0x20
		defer func() {
			msg := fmt.Sprint(recover())
			if !strings.Contains(msg, a.String()) || !strings.Contains(msg, "found by read") {
				t.Fatalf("read: %q; want a failure naming %v and the read", msg, a)
			}
		}()
		r.read(t, 1, a)
	})
}

// A sealed page stores no check bytes: the controller does not encode
// at the program, and the card fills the check bytes of a read's
// private copy from its page when the read draws flips. These tests run
// on cards where every read draws flips (1e-4 is about seven per page),
// so every read below takes that path.

// oobBit is one bit of the check byte of the word at byte 320.
const oobBit = 8*(8192+40) + 3

// flippedRead reads a under tag and returns the page, how many bits the
// decode corrected beyond the flips the read drew, and the read's error.
func (r *rig) flippedRead(t *testing.T, tag int, a nand.Addr) ([]byte, int, error) {
	t.Helper()
	before := r.card.InjectedFlips.Value()
	got, corrected, err := r.read(t, tag, a)
	flips := r.card.InjectedFlips.Value() - before
	if flips == 0 {
		t.Fatalf("the read of %v drew no flip", a)
	}
	return got, corrected - int(flips), err
}

// writeImage drives the write protocol for one page with img as the
// image WriteImage adopts, and returns its outcome.
func (r *rig) writeImage(t *testing.T, tag int, a nand.Addr, img []byte) error {
	t.Helper()
	if err := r.ctl.Issue(Command{Op: OpWrite, Tag: tag, Addr: a}); err != nil {
		t.Fatal(err)
	}
	r.eng.Run()
	if err := r.ctl.WriteImage(tag, img); err != nil {
		t.Fatal(err)
	}
	r.eng.Run()
	return r.writeDone[tag]
}

// TestFlippedReadsFillOnlySealedPages: an image programmed around the
// controller, one check bit wrong, is decoded from the check bytes it
// stores — the wrong bit is corrected on top of the flips. A sealed page
// stores no check bit to get wrong: the card fills the flipped copy's
// check bytes from its page, and the decode corrects the flips alone.
func TestFlippedReadsFillOnlySealedPages(t *testing.T) {
	r := newRig(t, nand.Reliability{BitErrorRate: 1e-4})
	want := pattern(8192, 0x3e)
	hand, sealed := nand.Addr{Block: 1}, nand.Addr{Block: 3}
	handProgram(t, r, hand, want, oobBit)
	r.writePage(t, 0, sealed, want)
	if n := len(r.card.Peek(sealed)); n != len(want) {
		t.Fatalf("the controller's program stored %d bytes, want the %d-byte page alone", n, len(want))
	}

	if got, extra, err := r.flippedRead(t, 1, hand); err != nil || extra != 1 || !bytes.Equal(got, want) {
		t.Fatalf("hand-programmed page: err %v, %d corrected beyond the flips, page as written %v; want its own wrong check bit corrected", err, extra, bytes.Equal(got, want))
	}
	if got, extra, err := r.flippedRead(t, 1, sealed); err != nil || extra != 0 || !bytes.Equal(got, want) {
		t.Fatalf("sealed page: err %v, %d corrected beyond the flips, page as written %v; want the flips alone corrected", err, extra, bytes.Equal(got, want))
	}
}

// TestRelocatedImagesReadBackThroughFlips: a sealed page read back with
// flips, relocated through WriteImage to a second page — its stored
// image, or the corrected copy the read streamed — and read there with
// other flips returns the page both times, with the guard off (nothing
// is encoded but a flipped copy) and on (the card encodes every sealed
// image as it stores it, and checks every fill against that).
func TestRelocatedImagesReadBackThroughFlips(t *testing.T) {
	for _, guard := range []bool{false, true} {
		for _, src := range []string{"stored image", "corrected copy"} {
			t.Run(fmt.Sprintf("guard=%v/%s", guard, src), func(t *testing.T) {
				r := newRig(t, nand.Reliability{BitErrorRate: 1e-4, GuardImages: guard})
				want := pattern(8192, 0x51)
				from, to := nand.Addr{Block: 1}, nand.Addr{Bus: 1, Block: 2}
				r.writePage(t, 0, from, want)
				if got, _, err := r.flippedRead(t, 1, from); err != nil || !bytes.Equal(got, want) {
					t.Fatalf("read at the source: err %v, page as written %v", err, bytes.Equal(got, want))
				}
				img := r.card.Peek(from)
				if src == "corrected copy" {
					img = r.views[1][:len(want)]
					if &img[0] == &r.card.Peek(from)[0] {
						t.Fatal("test premise: a read that drew flips streams a copy")
					}
				}
				if err := r.writeImage(t, 0, to, img); err != nil {
					t.Fatal(err)
				}
				if got, _, err := r.flippedRead(t, 1, to); err != nil || !bytes.Equal(got, want) {
					t.Fatalf("read at the destination: err %v, page as written %v", err, bytes.Equal(got, want))
				}
			})
		}
	}
}

// TestFillDoesNotOutliveTheSeal: after the erase of a sealed page's
// block, or Replace, an image programmed at the same address around the
// controller is decoded from its own check bytes on a read that draws
// flips, wrong bit included.
func TestFillDoesNotOutliveTheSeal(t *testing.T) {
	for _, drop := range []string{"erase", "Replace"} {
		t.Run(drop, func(t *testing.T) {
			r := newRig(t, nand.Reliability{BitErrorRate: 1e-4})
			want := pattern(8192, 0x6c)
			a := nand.Addr{Bus: 1, Block: 4}
			r.writePage(t, 0, a, want)
			if drop == "erase" {
				if err := r.ctl.Issue(Command{Op: OpErase, Tag: 0, Addr: a}); err != nil {
					t.Fatal(err)
				}
				r.eng.Run()
				if err := r.eraseDone[0]; err != nil {
					t.Fatal(err)
				}
			} else {
				r.card.Replace()
			}
			handProgram(t, r, a, want, oobBit)
			if got, extra, err := r.flippedRead(t, 1, a); err != nil || extra != 1 || !bytes.Equal(got, want) {
				t.Fatalf("after %s: err %v, %d corrected beyond the flips, page as written %v; want the image's own wrong check bit corrected", drop, err, extra, bytes.Equal(got, want))
			}
		})
	}
}

// TestGuardProvesTheFill: on a guarded card the card encodes every
// sealed image eagerly as it stores it, and compares the check bytes it
// fills into every flipped copy with those. A fill that differs — here
// an encoder that changed since the program — fails the first read
// that draws flips, naming the page.
func TestGuardProvesTheFill(t *testing.T) {
	r := newRig(t, nand.Reliability{BitErrorRate: 1e-4, GuardImages: true})
	a := nand.Addr{Bus: 1, Chip: 1, Block: 3}
	r.writePage(t, 0, a, pattern(8192, 6))
	codec, err := ecc.NewPageCodec(8192)
	if err != nil {
		t.Fatal(err)
	}
	r.card.SetEncoder(func(raw []byte) error {
		err := codec.EncodeInPlace(raw)
		raw[len(raw)-1] ^= 1
		return err
	})
	defer func() {
		msg := fmt.Sprint(recover())
		if !strings.Contains(msg, a.String()) || !strings.Contains(msg, "found by read") {
			t.Fatalf("read: %q; want a failure naming %v and the read", msg, a)
		}
	}()
	r.read(t, 1, a)
}
