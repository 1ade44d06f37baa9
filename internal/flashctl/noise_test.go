package flashctl

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/nand"
)

// TestNoiseStreamPinned: the injector's draws are a behavioural
// contract (BENCH_FAULT.json, every sim_digest). Two cards of one seed
// go through the same history — blocks at several erase counts, 2 000
// reads at BitErrorRate 1e-4 with wear scaling and read disturb on —
// one read raw, the other through a controller. The digest of what the
// card delivered, the flips it injected and what ECC made of them were
// captured before nand.Card split "draw the flip count" from "apply the
// flips"; a split that consumes one extra mix64 step, or bumps
// readSerial on a different read, moves all of them.
//
// The raw digest hashes the page bytes of every delivered image and the
// check bytes of every read that drew flips: the check bytes a sealed
// page stores are don't-care, those of its flipped copies are what the
// decode sees. It was computed before the controller stopped encoding at
// every program, and held across that change.
func TestNoiseStreamPinned(t *testing.T) {
	// 1e-4 puts flips in every read; at 5e-6 most reads draw none (and
	// deliver the stored image itself) and the rest one or two.
	t.Run("ber=1e-4", func(t *testing.T) {
		pinNoise(t, noiseRun(t, noiseReliability(1e-4, false)), noise{
			raw:       "077cd32be5fefd32d8b79e8c048fffb4aa016332e97ac554aeae3df6661e2b7a",
			data:      "a4c5eba524a003cbc11ede271ba38bea35d6b294bdd51e01f73b8fef36dacd62",
			flips:     22748,
			corrected: 21248, uncorrectable: 125,
		})
	})
	t.Run("ber=5e-6", func(t *testing.T) {
		pinNoise(t, noiseRun(t, noiseReliability(5e-6, false)), noise{
			raw:       "5dd2843e0e523477f95c8f2d6b8866733d12c008c1879bf4ae05f140f58c764a",
			data:      "5ede83a89a2c6ff52556e4eec760fe2ae1870eb1c654d035735e682dc0434d17",
			flips:     1113,
			corrected: 1113,
		})
	})
}

// TestLazyCheckBytesAreExact: under the image guard the controller
// encodes every program eagerly, and the card proves that the check
// bytes it fills into each flipped copy of a sealed page are the ones
// stored (or panics, naming the page). Without the guard the stored
// check bytes are never written. Both runs must deliver the same pages,
// draw the same flips and make the same corrections.
func TestLazyCheckBytesAreExact(t *testing.T) {
	guarded := noiseRun(t, noiseReliability(1e-4, true))
	if lazy := noiseRun(t, noiseReliability(1e-4, false)); lazy != guarded {
		t.Fatalf("without the guard %+v, with it %+v", lazy, guarded)
	}
}

// noise is what one noiseRun observed.
type noise struct {
	raw, data                       string // digests: delivered images, decoded pages
	flips, corrected, uncorrectable int64
}

func noiseReliability(ber float64, guard bool) nand.Reliability {
	return nand.Reliability{BitErrorRate: ber, EnduranceCycles: 4, ReadDisturb: 0.002, GuardImages: guard}
}

func pinNoise(t *testing.T, got, want noise) {
	t.Helper()
	if got.raw != want.raw {
		t.Errorf("digest of the delivered raw images: %s, want %s", got.raw, want.raw)
	}
	if got.data != want.data {
		t.Errorf("digest of the decoded pages: %s, want %s", got.data, want.data)
	}
	if got.flips != want.flips {
		t.Errorf("InjectedFlips %d, want %d", got.flips, want.flips)
	}
	if got.corrected != want.corrected {
		t.Errorf("CorrectedBits %d, want %d", got.corrected, want.corrected)
	}
	if got.uncorrectable != want.uncorrectable {
		t.Errorf("Uncorrectable %d, want %d", got.uncorrectable, want.uncorrectable)
	}
}

func noiseRun(t *testing.T, rel nand.Reliability) noise {
	raw, ecc := newRig(t, rel), newRig(t, rel)
	geo := testGeometry()

	// Blocks 0..3 of every chip, block b erased b times before it is
	// filled: four erase counts, the last at the endurance limit.
	var addrs []nand.Addr
	tag := 0
	for blk := 0; blk < 4; blk++ {
		for bus := 0; bus < geo.Buses; bus++ {
			for chip := 0; chip < geo.ChipsPerBus; chip++ {
				for _, r := range []*rig{raw, ecc} {
					for e := 0; e < blk; e++ {
						if err := r.ctl.Issue(Command{Op: OpErase, Tag: 0, Addr: nand.Addr{Bus: bus, Chip: chip, Block: blk}}); err != nil {
							t.Fatal(err)
						}
						r.eng.Run()
						if err := r.eraseDone[0]; err != nil {
							t.Fatal(err)
						}
					}
				}
				for p := 0; p < 4; p++ {
					a := nand.Addr{Bus: bus, Chip: chip, Block: blk, Page: p}
					data := pattern(geo.PageSize, byte(len(addrs)))
					raw.writePage(t, tag%128, a, data)
					ecc.writePage(t, tag%128, a, data)
					tag++
					addrs = append(addrs, a)
				}
			}
		}
	}

	// 2 000 reads in a fixed scrambled order, eight in flight at a time
	// so chips and buses interleave.
	rawSum, dataSum := sha256.New(), sha256.New()
	for i := 0; i < 2000; i += 8 {
		for k := 0; k < 8; k++ {
			a := addrs[(i+k)*37%len(addrs)]
			raw.card.ReadPage(a, func(img []byte, err error) {
				if err != nil {
					t.Fatal(err)
				}
				rawSum.Write(img[:geo.PageSize])
				if &img[0] != &raw.card.Peek(a)[0] { // drew flips: a private copy
					rawSum.Write(img[geo.PageSize:])
				}
			})
			delete(ecc.chunks, k)
			if err := ecc.ctl.Issue(Command{Op: OpRead, Tag: k, Addr: a}); err != nil {
				t.Fatal(err)
			}
		}
		raw.eng.Run()
		ecc.eng.Run()
		for k := 0; k < 8; k++ {
			dataSum.Write(ecc.chunks[k])
		}
	}

	if raw.card.InjectedFlips.Value() != ecc.card.InjectedFlips.Value() {
		t.Errorf("InjectedFlips %d (raw) / %d (decoded): one history, two noise streams", raw.card.InjectedFlips.Value(), ecc.card.InjectedFlips.Value())
	}
	return noise{
		raw:           hex.EncodeToString(rawSum.Sum(nil)),
		data:          hex.EncodeToString(dataSum.Sum(nil)),
		flips:         ecc.card.InjectedFlips.Value(),
		corrected:     ecc.ctl.CorrectedBits.Value(),
		uncorrectable: ecc.ctl.Uncorrectable.Value(),
	}
}
