package volume_test

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/core/coretest"
	"repro/internal/ftl"
	"repro/internal/sched"
	"repro/internal/volume"
)

// testMirrored builds a mirrored volume over a small multi-node
// cluster.
func testMirrored(t *testing.T, nodes int) (*core.Cluster, *sched.Scheduler, *volume.Volume) {
	t.Helper()
	p := core.DefaultParams(nodes)
	p.Geometry.BlocksPerChip = 8
	p.Geometry.PagesPerBlock = 8
	c := coretest.NewCluster(t, p)
	s, err := sched.New(c, sched.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	vcfg := volume.DefaultConfig()
	vcfg.Mirror = true
	v, err := volume.New(c, s, vcfg)
	if err != nil {
		t.Fatal(err)
	}
	return c, s, v
}

func TestMirrorNeedsTwoNodes(t *testing.T) {
	p := core.DefaultParams(1)
	c := coretest.NewCluster(t, p)
	s, err := sched.New(c, sched.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	vcfg := volume.DefaultConfig()
	vcfg.Mirror = true
	if _, err := volume.New(c, s, vcfg); err == nil {
		t.Fatal("mirrored volume on one node accepted")
	}
}

// readAll fetches pages [0,n) and fails the test on any error or
// mismatch against want(lpn).
func readAll(t *testing.T, c *core.Cluster, st *volume.Stream, n int, want func(lpn int) []byte) {
	t.Helper()
	got := make([][]byte, n)
	errs := make([]error, n)
	for lpn := 0; lpn < n; lpn++ {
		lpn := lpn
		st.Read(lpn, func(data []byte, err error) {
			got[lpn], errs[lpn] = data, err
		})
	}
	c.Run()
	for lpn := 0; lpn < n; lpn++ {
		if errs[lpn] != nil {
			t.Fatalf("read %d: %v", lpn, errs[lpn])
		}
		if !bytes.Equal(got[lpn], want(lpn)) {
			t.Fatalf("read %d: wrong data", lpn)
		}
	}
}

// TestMirroredCrashDegradedRebuild is the crash test of the fault
// domain work: write a mirrored volume, kill a whole node, verify
// degraded reads and writes stay correct, rebuild the node, then kill
// the OTHER node and verify every page — including pages updated while
// degraded — reads back correctly from the rebuilt copies alone.
func TestMirroredCrashDegradedRebuild(t *testing.T) {
	c, _, v := testMirrored(t, 2)
	st, err := v.NewStream("t", sched.Interactive)
	if err != nil {
		t.Fatal(err)
	}
	n := 96
	if n > v.Pages() {
		n = v.Pages()
	}
	version := make([]int, n)
	want := func(lpn int) []byte { return pageData(v.PageSize(), lpn^(version[lpn]<<8)) }

	writeAll := func(lpns []int) {
		t.Helper()
		werrs := 0
		for _, lpn := range lpns {
			st.Write(lpn, want(lpn), func(err error) {
				if err != nil {
					t.Errorf("write: %v", err)
					werrs++
				}
			})
		}
		c.Run()
		if werrs > 0 {
			t.Fatalf("%d write errors", werrs)
		}
	}
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	writeAll(all)
	readAll(t, c, st, n, want)
	base := v.Stats()

	// Kill node 1: every page lost either its primary or its replica.
	if err := v.KillNode(1); err != nil {
		t.Fatal(err)
	}
	// Degraded updates: overwrite a slice of pages with new versions.
	updated := all[:n/3]
	for _, lpn := range updated {
		version[lpn]++
	}
	writeAll(updated)
	readAll(t, c, st, n, want)
	deg := v.Stats().Delta(base)
	if deg.DegradedReads == 0 {
		t.Fatal("no degraded reads recorded after node kill")
	}
	if deg.DegradedWrites == 0 {
		t.Fatal("no degraded writes recorded after node kill")
	}

	// Rebuild node 1 and race more tenant updates against the pump.
	rebuilt := false
	if err := v.RebuildNode(1, func() { rebuilt = true }); err != nil {
		t.Fatal(err)
	}
	racing := all[n/3 : n/2]
	for _, lpn := range racing {
		version[lpn]++
		st.Write(lpn, want(lpn), func(err error) {
			if err != nil {
				t.Errorf("racing write: %v", err)
			}
		})
	}
	c.Run()
	if !rebuilt {
		t.Fatal("rebuild completion callback never fired")
	}
	if v.Rebuilding() {
		t.Fatal("Rebuilding() still true after completion")
	}
	if d := v.Stats().Delta(base); d.PagesRebuilt == 0 {
		t.Fatal("no pages rebuilt")
	}
	readAll(t, c, st, n, want)

	// The acid test: kill the OTHER node. Every page must now be served
	// from the copies node 1 holds — which only exist if the rebuild
	// restored them (and didn't clobber the racing updates).
	if err := v.KillNode(0); err != nil {
		t.Fatal(err)
	}
	readAll(t, c, st, n, want) // and coretest's drain check finds every mirrored context back in its pool
}

// TestMirroredCardKillAndReplace exercises the single-card fault path
// (kill one card, not a node) including the not-killed guard and the
// guard on a rebuild started before the replace.
func TestMirroredCardKillAndReplace(t *testing.T) {
	c, _, v := testMirrored(t, 2)
	st, _ := v.NewStream("t", sched.Interactive)
	n := 32
	for lpn := 0; lpn < n; lpn++ {
		st.Write(lpn, pageData(v.PageSize(), lpn), func(err error) {
			if err != nil {
				t.Errorf("write: %v", err)
			}
		})
	}
	c.Run()

	if err := v.ReplaceCard(0); !errors.Is(err, volume.ErrCardAlive) {
		t.Fatalf("ReplaceCard on live card: err = %v, want ErrCardAlive", err)
	}
	if err := v.KillCard(0); err != nil {
		t.Fatal(err)
	}
	readAll(t, c, st, n, func(lpn int) []byte { return pageData(v.PageSize(), lpn) })
	if v.Stats().DegradedReads == 0 {
		t.Fatal("no degraded reads after card kill")
	}
	if err := v.StartRebuild(0, func() {}); !errors.Is(err, volume.ErrNotRebuilding) {
		t.Fatalf("StartRebuild before ReplaceCard: err = %v, want ErrNotRebuilding", err)
	}
	if err := v.ReplaceCard(0); err != nil {
		t.Fatal(err)
	}
	done := false
	if err := v.StartRebuild(0, func() { done = true }); err != nil {
		t.Fatal(err)
	}
	c.Run()
	if !done {
		t.Fatal("card rebuild never completed")
	}
	readAll(t, c, st, n, func(lpn int) []byte { return pageData(v.PageSize(), lpn) })
}

// TestUnmirroredKillRejected: fault injection APIs require mirroring.
func TestUnmirroredKillRejected(t *testing.T) {
	_, _, v := testVolume(t, 2, ftl.DefaultConfig())
	if err := v.KillCard(0); !errors.Is(err, volume.ErrNotMirrored) {
		t.Fatalf("KillCard on unmirrored volume: err = %v, want ErrNotMirrored", err)
	}
	if err := v.KillNode(0); !errors.Is(err, volume.ErrNotMirrored) {
		t.Fatalf("KillNode on unmirrored volume: err = %v, want ErrNotMirrored", err)
	}
}

// TestFaultAPIsRejectOutOfRangeIndexes: a card or node index outside
// the volume fails with ErrOutOfRange instead of indexing past the card
// table, and leaves the volume untouched.
func TestFaultAPIsRejectOutOfRangeIndexes(t *testing.T) {
	c, _, v := testMirrored(t, 2)
	cases := []struct {
		name string
		call func(i int) error
		end  int // first index past the valid range
	}{
		{"KillCard", v.KillCard, v.Cards()},
		{"ReplaceCard", v.ReplaceCard, v.Cards()},
		{"StartRebuild", func(i int) error { return v.StartRebuild(i, nil) }, v.Cards()},
		{"KillNode", v.KillNode, c.Nodes()},
		{"RebuildNode", func(n int) error { return v.RebuildNode(n, nil) }, c.Nodes()},
	}
	for _, tc := range cases {
		for _, i := range []int{-1, tc.end} {
			if err := tc.call(i); !errors.Is(err, volume.ErrOutOfRange) {
				t.Errorf("%s(%d): err = %v, want ErrOutOfRange", tc.name, i, err)
			}
		}
	}
	if v.Rebuilding() {
		t.Fatal("a rejected call left a card rebuilding")
	}
	st, err := v.NewStream("t", sched.Interactive)
	if err != nil {
		t.Fatal(err)
	}
	var werr error = errors.New("never completed")
	st.Write(0, pageData(v.PageSize(), 0), func(err error) { werr = err })
	c.Run()
	if werr != nil {
		t.Fatalf("write after the rejected calls: %v (a card was killed)", werr)
	}
	if d := v.Stats(); d.DegradedWrites != 0 {
		t.Fatalf("%d degraded writes: a rejected call killed a card", d.DegradedWrites)
	}
}

// TestStatsSpanAReplace: ReplaceCard mounts a fresh FTL, and the volume
// keeps counting the ones it retired. Over four overwrite rounds with
// node 1 killed, replaced and rebuilt after the second, every NAND read
// the cards did is named by an FTL the volume counts — a host read, a
// move, a dropped move or a move's read fault — and no counter of a
// window that spans the replace goes negative.
func TestStatsSpanAReplace(t *testing.T) {
	c, _, v := testMirrored(t, 2)
	st, err := v.NewStream("t", sched.Interactive)
	if err != nil {
		t.Fatal(err)
	}
	round := func(r int) {
		for lpn := 0; lpn < v.Pages(); lpn++ {
			st.Write(lpn, pageData(v.PageSize(), lpn^r<<8), func(err error) {
				if err != nil {
					t.Errorf("round %d write: %v", r, err)
				}
			})
		}
		c.Run()
	}
	round(0)
	round(1)
	before := v.Stats()
	if err := v.KillNode(1); err != nil {
		t.Fatal(err)
	}
	rebuilt := false
	if err := v.RebuildNode(1, func() { rebuilt = true }); err != nil {
		t.Fatal(err)
	}
	c.Run()
	if !rebuilt {
		t.Fatal("rebuild never completed")
	}
	round(2)
	round(3)

	var reads, named int64
	for n := 0; n < c.Nodes(); n++ {
		for ci := 0; ci < c.Params.CardsPerNode; ci++ {
			reads += c.Node(n).Card(ci).Reads.Value()
		}
	}
	for i := 0; i < v.Cards(); i++ {
		for _, f := range v.FTLs(i) {
			l := f.Log
			named += l.Reads + l.Moves + l.Dropped + l.MoveReadFaults
		}
	}
	if reads != named {
		t.Errorf("the cards did %d NAND reads, the volume's FTLs name %d", reads, named)
	}
	d := reflect.ValueOf(v.Stats().Delta(before))
	for i := 0; i < d.NumField(); i++ {
		if f := d.Field(i); f.CanInt() && f.Int() < 0 || f.CanFloat() && f.Float() < 0 {
			t.Errorf("Stats.Delta over the replace: %s = %v", d.Type().Field(i).Name, f)
		}
	}
}
