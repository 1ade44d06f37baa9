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
// controller encoded: a clean read of a page sealed by a program the
// controller issued streams the stored image as it stands. These tests
// pin who may seal, what keeps a seal from going stale, and the guard's
// proof that a skipped decode would have changed nothing.

// handProgram stores want at a around the controller, with the given
// bits of the encoded image flipped: an image no program sealed.
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
	if ok, _ := r.card.Sealed(written, r.card.Peek(written)); ok {
		t.Fatal("a program that failed on a dead card sealed the page")
	}
}

// TestGuardProvesTheSkip: with the image guard on, the controller still
// decodes every read it would deliver undecoded, and a sealed image that
// does not decode to itself fails that read, naming the page — whether
// the seal is wrong or the image was written to after WriteImage encoded
// it, while it crossed the link.
func TestGuardProvesTheSkip(t *testing.T) {
	cases := map[string]func(t *testing.T, r *rig, a nand.Addr, want []byte){
		"wrong seal": func(t *testing.T, r *rig, a nand.Addr, want []byte) {
			handProgram(t, r, a, want, 8*512+5)
			r.card.Seal(a)
		},
		"scribble after WriteImage": func(t *testing.T, r *rig, a nand.Addr, want []byte) {
			if err := r.ctl.Issue(Command{Op: OpWrite, Tag: 0, Addr: a}); err != nil {
				t.Fatal(err)
			}
			r.eng.Run()
			raw := make([]byte, r.ctl.StoredPageSize())
			copy(raw, want)
			if err := r.ctl.WriteImage(0, raw); err != nil {
				t.Fatal(err)
			}
			raw[512] ^= 0x20
			r.eng.Run()
			if err := r.writeDone[0]; err != nil {
				t.Fatal(err)
			}
		},
	}
	for name, setup := range cases {
		t.Run(name, func(t *testing.T) {
			r := newRig(t, nand.Reliability{GuardImages: true})
			a := nand.Addr{Bus: 1, Chip: 1, Block: 3}
			setup(t, r, a, pattern(8192, 6))
			defer func() {
				msg := fmt.Sprint(recover())
				if !strings.Contains(msg, a.String()) || !strings.Contains(msg, "does not decode to itself") {
					t.Fatalf("read: %q; want a failure naming %v", msg, a)
				}
			}()
			r.read(t, 1, a)
		})
	}
}
