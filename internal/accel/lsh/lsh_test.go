package lsh

import (
	"errors"
	"testing"
	"testing/quick"

	"repro/internal/altstore"
	"repro/internal/core"
	"repro/internal/core/coretest"
	"repro/internal/hostmodel"
	"repro/internal/nand"
	"repro/internal/sim"
)

func TestHammingDistance(t *testing.T) {
	cases := []struct {
		a, b []byte
		want int
	}{
		{[]byte{0x00}, []byte{0x00}, 0},
		{[]byte{0xff}, []byte{0x00}, 8},
		{[]byte{0b1010}, []byte{0b0101}, 4},
		{make([]byte, 16), make([]byte, 16), 0},
	}
	for _, c := range cases {
		if got := HammingDistance(c.a, c.b); got != c.want {
			t.Errorf("hamming(%v,%v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
	long := make([]byte, 100)
	long2 := make([]byte, 100)
	long2[99] = 0x80
	long2[0] = 0x01
	if got := HammingDistance(long, long2); got != 2 {
		t.Errorf("tail handling: got %d, want 2", got)
	}
}

// Property: hamming is a metric-ish: symmetric, zero iff equal, and
// equals popcount of xor.
func TestHammingProperty(t *testing.T) {
	prop := func(a, b [24]byte) bool {
		d1 := HammingDistance(a[:], b[:])
		d2 := HammingDistance(b[:], a[:])
		if d1 != d2 {
			return false
		}
		n := 0
		for i := range a {
			x := a[i] ^ b[i]
			for ; x != 0; x &= x - 1 {
				n++
			}
		}
		return d1 == n
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func mkItems(n, size int, seed uint64) map[int][]byte {
	rng := sim.NewRNG(seed)
	items := make(map[int][]byte, n)
	for i := 0; i < n; i++ {
		b := make([]byte, size)
		rng.Bytes(b)
		items[i] = b
	}
	return items
}

func TestLSHFindsNearNeighbor(t *testing.T) {
	const itemBytes = 256
	items := mkItems(200, itemBytes, 1)
	ix, err := NewIndex(itemBytes, 8, 12, 2)
	if err != nil {
		t.Fatal(err)
	}
	for id, it := range items {
		if err := ix.Add(id, it); err != nil {
			t.Fatal(err)
		}
	}
	// Query = item 42 with a few flipped bits: LSH must shortlist 42.
	query := append([]byte(nil), items[42]...)
	for _, bit := range []int{3, 500, 1200} {
		query[bit/8] ^= 1 << (bit % 8)
	}
	cands, err := ix.Candidates(query)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, id := range cands {
		if id == 42 {
			found = true
		}
	}
	if !found {
		t.Fatalf("LSH bucket (size %d) missed the near neighbor", len(cands))
	}
	// Candidates should prune most of the dataset.
	if len(cands) > 150 {
		t.Fatalf("LSH pruned nothing: %d of 200 candidates", len(cands))
	}
}

func TestIndexValidation(t *testing.T) {
	if _, err := NewIndex(0, 4, 8, 1); err == nil {
		t.Fatal("zero item size accepted")
	}
	ix, _ := NewIndex(16, 2, 8, 1)
	if err := ix.Add(0, make([]byte, 5)); err == nil {
		t.Fatal("wrong item size accepted")
	}
	if _, err := ix.Candidates(make([]byte, 16)); err != ErrNoItems {
		t.Fatalf("empty index query: %v", err)
	}
}

// --- backend runners -------------------------------------------------

func lshCluster(t *testing.T) *core.Cluster {
	t.Helper()
	p := core.DefaultParams(1)
	p.Geometry.BlocksPerChip = 8
	p.Geometry.PagesPerBlock = 16
	c := coretest.NewCluster(t, p)
	return c
}

// seedItems stores items as flash pages at linear indices.
func seedItems(t *testing.T, c *core.Cluster, items map[int][]byte) []core.PageAddr {
	t.Helper()
	n := len(items)
	if err := c.SeedLinear(0, n, func(idx int, page []byte) {
		copy(page, items[idx])
	}); err != nil {
		t.Fatal(err)
	}
	addrs := make([]core.PageAddr, n)
	for i := 0; i < n; i++ {
		addrs[i] = core.LinearPage(c.Params, 0, i)
	}
	return addrs
}

func idsUpTo(n int) []int {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	return ids
}

func TestHostDRAMScalesWithThreads(t *testing.T) {
	ps := 8192
	items := mkItems(64, ps, 5)
	query := make([]byte, ps)
	rate := func(threads int) float64 {
		eng := sim.NewEngine()
		cpu, _ := hostmodel.New(eng, "h", hostmodel.DefaultConfig())
		cands := make([]int, 2000)
		for i := range cands {
			cands[i] = i % 64
		}
		res, err := RunHostDRAM(eng, cpu, items, cands, query, threads)
		if err != nil {
			t.Fatal(err)
		}
		return res.PerSec
	}
	r4, r8, r16 := rate(4), rate(8), rate(16)
	if !(r4 < r8 && r8 < r16) {
		t.Fatalf("DRAM rate not scaling: %f %f %f", r4, r8, r16)
	}
	// 22us per compare per thread: 4 threads ~180K/s.
	if r4 < 140e3 || r4 > 200e3 {
		t.Fatalf("4-thread DRAM rate %.0f, want ~180K", r4)
	}
}

func TestMixedDRAMCollapses(t *testing.T) {
	// Figure 17: 10% flash faults crater ram-cloud throughput; 5% disk
	// is worse still.
	ps := 8192
	items := mkItems(64, ps, 7)
	query := make([]byte, ps)
	cands := make([]int, 1500)
	for i := range cands {
		cands[i] = i % 64
	}
	run := func(pct int, disk bool) float64 {
		eng := sim.NewEngine()
		cpu, _ := hostmodel.New(eng, "h", hostmodel.DefaultConfig())
		var dev altstore.Device
		if disk {
			dev, _ = altstore.NewHDD(eng, "hdd", altstore.DefaultHDD())
		} else {
			dev, _ = altstore.NewSSD(eng, "ssd", altstore.DefaultSSD())
		}
		res, err := RunMixedDRAM(eng, cpu, dev, items, cands, query, 8, pct, 11)
		if err != nil {
			t.Fatal(err)
		}
		return res.PerSec
	}
	pure := run(0, false)
	flash10 := run(10, false)
	disk5 := run(5, true)
	if pure < 300e3 {
		t.Fatalf("pure DRAM at 8 threads %.0f, want > 300K", pure)
	}
	if flash10 > 100e3 {
		t.Fatalf("DRAM+10%%flash %.0f cmp/s, want < 100K (paper: <80K)", flash10)
	}
	if disk5 > 12e3 {
		t.Fatalf("DRAM+5%%disk %.0f cmp/s, want < 12K (paper: <10K)", disk5)
	}
	if !(disk5 < flash10 && flash10 < pure) {
		t.Fatalf("ordering broken: %f %f %f", pure, flash10, disk5)
	}
}

func TestSSDRandomVsSequential(t *testing.T) {
	// Figure 18: random off-the-shelf SSD is poor; sequentialized
	// accesses approach the throttled-BlueDBM level (~73K).
	ps := 8192
	items := mkItems(64, ps, 8)
	query := make([]byte, ps)
	cands := make([]int, 1200)
	for i := range cands {
		cands[i] = i % 64
	}
	run := func(seq bool) float64 {
		eng := sim.NewEngine()
		cpu, _ := hostmodel.New(eng, "h", hostmodel.DefaultConfig())
		ssd, _ := altstore.NewSSD(eng, "m2", altstore.DefaultSSD())
		res, err := RunSSD(eng, cpu, ssd, items, cands, query, 8, seq)
		if err != nil {
			t.Fatal(err)
		}
		return res.PerSec
	}
	rnd, seq := run(false), run(true)
	if rnd > 45e3 {
		t.Fatalf("random SSD %.0f cmp/s, should be well under throttled 73K", rnd)
	}
	if seq < 55e3 || seq > 76e3 {
		t.Fatalf("sequential SSD %.0f cmp/s, want ~60-73K (matching throttled)", seq)
	}
	if seq < 1.4*rnd {
		t.Fatalf("sequentializing should help dramatically: %f vs %f", seq, rnd)
	}
}

// TestRunFailingReadFailsTheRun: a candidate page that cannot be read
// fails the host-flash run with the read's own error, instead of
// returning the best of the candidates that could. (The in-store arm
// counts such a page instead: ispvol's TestEngineReadFaultsSurface,
// and the figures refuse a query that reports one.)
func TestRunFailingReadFailsTheRun(t *testing.T) {
	c := lshCluster(t)
	ps := c.Params.PageSize()
	items := mkItems(100, ps, 3)
	addrs := append(seedItems(t, c, items), core.LinearPage(c.Params, 0, len(items))) // never written
	res, err := RunHostFlash(c, 0, addrs, idsUpTo(len(addrs)), make([]byte, ps), 4, nil)
	if !errors.Is(err, nand.ErrReadFree) || res != nil {
		t.Fatalf("result %t, error %v; want no result and an error wrapping nand.ErrReadFree", res != nil, err)
	}
}

// lostDev is a secondary device whose reads never call back.
type lostDev struct{}

func (lostDev) Read(int, bool, func(error)) {}

// TestLostReadLeavesTheRunUnfinished: a secondary device that loses a
// read leaves its worker waiting with nothing scheduled, so the engine
// drains before the run joins. The run reports sim.ErrUnfinished, never
// the comparisons it did make as a result.
func TestLostReadLeavesTheRunUnfinished(t *testing.T) {
	eng := sim.NewEngine()
	cpu, err := hostmodel.New(eng, "h", hostmodel.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	items := mkItems(8, 512, 5)
	res, err := RunMixedDRAM(eng, cpu, lostDev{}, items, idsUpTo(len(items)), make([]byte, 512), 2, 100, 1)
	if !errors.Is(err, sim.ErrUnfinished) || res != nil {
		t.Fatalf("result %t, error %v; want no result and an error wrapping sim.ErrUnfinished", res != nil, err)
	}
}
