package spmv

import (
	"errors"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/core/coretest"
	"repro/internal/hostmodel"
	"repro/internal/sim"
)

func spmvCluster(t *testing.T) *core.Cluster {
	t.Helper()
	p := core.DefaultParams(1)
	p.Geometry.BlocksPerChip = 16
	c := coretest.NewCluster(t, p)
	return c
}

func denseVector(n int, seed uint64) []int64 {
	rng := sim.NewRNG(seed)
	x := make([]int64, n)
	for i := range x {
		x[i] = int64(rng.Intn(201) - 100)
	}
	return x
}

func TestEncodeDecodePage(t *testing.T) {
	in := []entry{{row: 1, col: 2, val: -7}, {row: 3, col: 0, val: 1 << 40}}
	page, err := EncodePage(in, 4096)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodePage(page)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != in[0] || got[1] != in[1] {
		t.Fatalf("round trip: %+v", got)
	}
	if _, err := EncodePage(make([]entry, 10000), 4096); !errors.Is(err, ErrTooDense) {
		t.Fatalf("dense page: %v", err)
	}
	if _, err := DecodePage([]byte{1, 0}); !errors.Is(err, ErrBadPage) {
		t.Fatalf("short page: %v", err)
	}
}

func TestEncodeDecodeProperty(t *testing.T) {
	prop := func(rows, cols []uint32, vals []int64) bool {
		n := len(rows)
		if len(cols) < n {
			n = len(cols)
		}
		if len(vals) < n {
			n = len(vals)
		}
		if n > 200 {
			n = 200
		}
		in := make([]entry, n)
		for i := 0; i < n; i++ {
			in[i] = entry{row: rows[i], col: cols[i], val: vals[i]}
		}
		page, err := EncodePage(in, 8192)
		if err != nil {
			return false
		}
		got, err := DecodePage(page)
		if err != nil || len(got) != n {
			return false
		}
		for i := range in {
			if got[i] != in[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestISPMatchesReference(t *testing.T) {
	c := spmvCluster(t)
	m, addrs, err := BuildRandom(c, 0, 300, 200, 12, 3)
	if err != nil {
		t.Fatal(err)
	}
	x := denseVector(200, 4)
	want, err := m.Reference(x)
	if err != nil {
		t.Fatal(err)
	}
	res, err := MultiplyISP(c, 0, m, addrs, x)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if res.Y[i] != want[i] {
			t.Fatalf("y[%d] = %d, want %d", i, res.Y[i], want[i])
		}
	}
	if res.NNZPerSec <= 0 {
		t.Fatal("no throughput recorded")
	}
}

func TestHostMatchesISP(t *testing.T) {
	// Large enough that the multiply is bandwidth-dominated, not
	// setup-latency-dominated: ~120 flash pages of non-zeros.
	c := spmvCluster(t)
	m, addrs, err := BuildRandom(c, 0, 5000, 150, 12, 5)
	if err != nil {
		t.Fatal(err)
	}
	x := denseVector(150, 6)
	isp, err := MultiplyISP(c, 0, m, addrs, x)
	if err != nil {
		t.Fatal(err)
	}
	c2 := spmvCluster(t)
	m2, addrs2, err := BuildRandom(c2, 0, 5000, 150, 12, 5)
	if err != nil {
		t.Fatal(err)
	}
	cpu, _ := hostmodel.New(c2.Eng, "h", hostmodel.DefaultConfig())
	host, err := MultiplyHost(c2, 0, m2, addrs2, x, cpu, 8)
	if err != nil {
		t.Fatal(err)
	}
	for i := range isp.Y {
		if isp.Y[i] != host.Y[i] {
			t.Fatalf("y[%d] differs: %d vs %d", i, isp.Y[i], host.Y[i])
		}
	}
	// The in-store path moves only the dense result over PCIe.
	if isp.BytesToHost >= host.BytesToHost/10 {
		t.Fatalf("ISP moved %d bytes, host %d; want 10x+ reduction",
			isp.BytesToHost, host.BytesToHost)
	}
	if isp.NNZPerSec <= host.NNZPerSec {
		t.Fatalf("ISP %.0f nnz/s should beat host %.0f", isp.NNZPerSec, host.NNZPerSec)
	}
}

func TestDimensionChecks(t *testing.T) {
	c := spmvCluster(t)
	m, addrs, err := BuildRandom(c, 0, 50, 40, 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Reference(make([]int64, 3)); !errors.Is(err, ErrDimension) {
		t.Fatalf("reference dim: %v", err)
	}
	if _, err := MultiplyISP(c, 0, m, addrs, make([]int64, 3)); !errors.Is(err, ErrDimension) {
		t.Fatalf("ISP dim: %v", err)
	}
	if _, _, err := BuildRandom(c, 0, 0, 5, 1, 1); err == nil {
		t.Fatal("zero rows accepted")
	}
	if m.NNZ() == 0 || m.Pages() == 0 {
		t.Fatal("empty matrix built")
	}
}

func vectorDigest(y []int64) uint64 {
	h := uint64(14695981039346656037)
	for _, v := range y {
		h = (h ^ uint64(v)) * 1099511628211
	}
	return h
}

// The two runners' schedules, pinned: no figure or artifact runs them.
// The matrix has more pages than engines x window (128), so the ISP
// multiply refills its lanes. The values were recorded before the
// runners moved onto sim.Lanes.
func TestMultiplyTimingPinned(t *testing.T) {
	x := denseVector(150, 6)

	c := spmvCluster(t)
	m, addrs, err := BuildRandom(c, 0, 8000, 150, 12, 5)
	if err != nil {
		t.Fatal(err)
	}
	if m.Pages() <= 128 {
		t.Fatalf("matrix has %d pages, want more than 128", m.Pages())
	}
	isp, err := MultiplyISP(c, 0, m, addrs, x)
	if err != nil {
		t.Fatal(err)
	}
	if isp.Elapsed != 883715 || isp.BytesToHost != 64000 || vectorDigest(isp.Y) != 0x79df1a3e4c512aae {
		t.Errorf("MultiplyISP: elapsed %d ns, %d B to host, digest %#x",
			int64(isp.Elapsed), isp.BytesToHost, vectorDigest(isp.Y))
	}

	c = spmvCluster(t)
	if m, addrs, err = BuildRandom(c, 0, 8000, 150, 12, 5); err != nil {
		t.Fatal(err)
	}
	cpu, err := hostmodel.New(c.Eng, "h", hostmodel.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	host, err := MultiplyHost(c, 0, m, addrs, x, cpu, 6)
	if err != nil {
		t.Fatal(err)
	}
	if host.Elapsed != 3347192 || host.BytesToHost != 1540096 || vectorDigest(host.Y) != 0x79df1a3e4c512aae {
		t.Errorf("MultiplyHost: elapsed %d ns, %d B to host, digest %#x",
			int64(host.Elapsed), host.BytesToHost, vectorDigest(host.Y))
	}
}
