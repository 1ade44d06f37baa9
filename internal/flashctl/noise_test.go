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
// one read raw, the other through a controller. The digest of every raw
// image the card delivered, the flips it injected and what ECC made of
// them were captured before nand.Card split "draw the flip count" from
// "apply the flips"; a split that consumes one extra mix64 step, or
// bumps readSerial on a different read, moves all of them.
func TestNoiseStreamPinned(t *testing.T) {
	// 1e-4 puts flips in every read; at 5e-6 most reads draw none (and
	// deliver the stored image itself) and the rest one or two.
	t.Run("ber=1e-4", func(t *testing.T) {
		noiseRun(t, 1e-4,
			"077cd32be5fefd32d8b79e8c048fffb4aa016332e97ac554aeae3df6661e2b7a",
			"a4c5eba524a003cbc11ede271ba38bea35d6b294bdd51e01f73b8fef36dacd62",
			22748, 21248, 125)
	})
	t.Run("ber=5e-6", func(t *testing.T) {
		noiseRun(t, 5e-6,
			"7798f83d564841a404819f1a969eb919fce027907ddf788db64bc11e9e5052b8",
			"5ede83a89a2c6ff52556e4eec760fe2ae1870eb1c654d035735e682dc0434d17",
			1113, 1113, 0)
	})
}

func noiseRun(t *testing.T, ber float64, wantRaw, wantData string, wantFlips, wantCorrected, wantUncorrectable int64) {
	rel := nand.Reliability{BitErrorRate: ber, EnduranceCycles: 4, ReadDisturb: 0.002}
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
				rawSum.Write(img)
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

	if got := hex.EncodeToString(rawSum.Sum(nil)); got != wantRaw {
		t.Errorf("digest of the delivered raw images: %s, want %s", got, wantRaw)
	}
	if got := hex.EncodeToString(dataSum.Sum(nil)); got != wantData {
		t.Errorf("digest of the decoded pages: %s, want %s", got, wantData)
	}
	if raw.card.InjectedFlips.Value() != wantFlips || ecc.card.InjectedFlips.Value() != wantFlips {
		t.Errorf("InjectedFlips %d (raw) / %d (decoded), want %d", raw.card.InjectedFlips.Value(), ecc.card.InjectedFlips.Value(), wantFlips)
	}
	if got := ecc.ctl.CorrectedBits.Value(); got != wantCorrected {
		t.Errorf("CorrectedBits %d, want %d", got, wantCorrected)
	}
	if got := ecc.ctl.Uncorrectable.Value(); got != wantUncorrectable {
		t.Errorf("Uncorrectable %d, want %d", got, wantUncorrectable)
	}
}
