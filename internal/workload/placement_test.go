package workload

import (
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/ftl"
	"repro/internal/ispvol"
	"repro/internal/sched"
)

// The placement a seeded volume gets from its FTLs, and the in-store
// scan bandwidth that follows from it: the paper's read bandwidth is
// every bus of both cards reading at once (Figure 13).

// scanPages is the scanned prefix of the volume: a third of a seeded
// one-node volume at core.DefaultParams' geometry.
const scanPages = 8192

// seededDefaultStack is one node at core.DefaultParams, a volume over
// its two cards and in-store engines, seeded whole, under the image
// guard.
func seededDefaultStack(t *testing.T) *Stack {
	t.Helper()
	p := core.DefaultParams(1)
	p.Reliability.GuardImages = true
	fcfg, icfg := ftl.DefaultConfig(), ispvol.DefaultConfig()
	st, err := Build(StackSpec{Params: p, Sched: sched.DefaultConfig(), FTL: &fcfg, ISP: &icfg})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Seed(RandomPages(5)); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestSeededVolumePlacesOverEveryChip: after Stack.Seed, logical pages
// [0, scanPages) lie on every chip of the node, none holding more than
// 1.25× the even share. (With free blocks handed out in block-index
// order, which is bus-major, they lay on 4 of the 16 chips at 4× each.)
func TestSeededVolumePlacesOverEveryChip(t *testing.T) {
	st := seededDefaultStack(t)
	addrs, err := st.V.PhysMap(0, scanPages)
	if err != nil {
		t.Fatal(err)
	}
	geo := st.C.Params.Geometry
	chipsPerCard := geo.Buses * geo.ChipsPerBus
	chips := make([]int, st.C.Params.CardsPerNode*chipsPerCard)
	for _, a := range addrs {
		chips[a.Card*chipsPerCard+a.Addr.Bus*geo.ChipsPerBus+a.Addr.Chip]++
	}
	even := scanPages / len(chips)
	if lo, hi := slices.Min(chips), slices.Max(chips); lo == 0 || 4*hi > 5*even {
		t.Errorf("pages [0, %d) per chip (card-major): %v; want every chip to hold some and none more than %d (1.25× the even share %d)",
			scanPages, chips, 5*even/4, even)
	}
	if err := st.Check(); err != nil {
		t.Error(err)
	}
}

// TestInStoreScanUsesEveryBus: an in-store search of [0, scanPages) on
// the seeded node reads at least 2.0 GB/s at the engine's derived read
// depth: four reads on each of the node's 16 chips, 64, which the
// default scheduler's accel token budget (64) admits whole. (On 4 chips
// it read 0.546 GB/s at any depth.)
func TestInStoreScanUsesEveryBus(t *testing.T) {
	const minGBs = 2.0
	st := seededDefaultStack(t)
	var res *ispvol.SearchResult
	var qerr error
	st.ISP.Search(0, ispvol.Range(0, scanPages), []byte("BLUEDBM"), ispvol.InStore,
		func(r *ispvol.SearchResult, err error) { res, qerr = r, err })
	st.C.Run()
	if qerr != nil || res == nil {
		t.Fatalf("search: %v (result %v)", qerr, res)
	}
	if res.Pages != scanPages || res.FailedPages != 0 {
		t.Errorf("scanned %d pages (%d failed), want %d", res.Pages, res.FailedPages, scanPages)
	}
	t.Logf("%.3f GB/s", res.Throughput/1e9)
	if gbs := res.Throughput / 1e9; gbs < minGBs {
		t.Errorf("in-store search reads %.3f GB/s, want at least %.2f", gbs, minGBs)
	}
	if err := st.Check(); err != nil {
		t.Error(err)
	}
}
