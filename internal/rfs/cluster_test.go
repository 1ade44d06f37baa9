package rfs

// Tests for the cluster backend: striping over every node/card/chip,
// cleaning traffic admitted on the scheduler's Background class
// without starving realtime streams, and physical-address queries
// agreeing with what device-side engines actually read.

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/core/coretest"
	"repro/internal/sched"
	"repro/internal/sim"
)

// clusterParams shrinks flash so churn reaches cleaning quickly.
func clusterParams(nodes int) core.Params {
	p := core.DefaultParams(nodes)
	p.Geometry.ChipsPerBus = 2
	p.Geometry.BlocksPerChip = 4
	p.Geometry.PagesPerBlock = 8
	return p
}

func newClusterFS(t testing.TB, nodes, lowWater int) (*core.Cluster, *sched.Scheduler, *FS) {
	t.Helper()
	c := coretest.NewCluster(t, clusterParams(nodes))
	scfg := sched.DefaultConfig()
	scfg.MaxInflight = 16
	scfg.BatchSize = 16
	s, err := sched.New(c, scfg)
	if err != nil {
		t.Fatal(err)
	}
	fs, _, err := NewClusterFS(c, s, ClusterConfig{}, Config{CleanLowWater: lowWater})
	if err != nil {
		t.Fatal(err)
	}
	return c, s, fs
}

// clusterAppend writes pages [0, n) of the file with `depth` appends
// in flight, page content deterministic in the index.
func clusterAppend(t *testing.T, c *core.Cluster, f *File, n, depth int, gen func(idx int, page []byte)) {
	t.Helper()
	ps := f.PageSize()
	var firstErr error
	next := 0
	var issue func()
	issue = func() {
		if next >= n {
			return
		}
		idx := next
		next++
		buf := make([]byte, ps)
		gen(idx, buf)
		f.AppendPage(buf, func(err error) {
			if err != nil && firstErr == nil {
				firstErr = fmt.Errorf("append %d: %w", idx, err)
			}
			issue()
		})
	}
	for i := 0; i < depth && i < n; i++ {
		issue()
	}
	c.Run()
	if firstErr != nil {
		t.Fatal(firstErr)
	}
}

func idxPage(idx int, page []byte) {
	for i := range page {
		page[i] = byte(idx + i*7)
	}
}

// TestClusterStripingSpreadsAppends: one round of the FS's chip cursor
// must touch every chip of every card of every node exactly once —
// sequential file data exposes the whole appliance's parallelism.
func TestClusterStripingSpreadsAppends(t *testing.T) {
	c, _, fs := newClusterFS(t, 2, 4)
	f, err := fs.Create("stripe")
	if err != nil {
		t.Fatal(err)
	}
	clusterAppend(t, c, f, fs.chips, 16, idxPage)
	addrs, err := f.PhysicalAddrs()
	if err != nil {
		t.Fatal(err)
	}
	type chipKey struct{ node, card, bus, chip int }
	chips := map[chipKey]bool{}
	nodes := map[int]bool{}
	cards := map[int]bool{}
	for _, a := range addrs {
		chips[chipKey{a.Node, a.Card, a.Addr.Bus, a.Addr.Chip}] = true
		nodes[a.Node] = true
		cards[a.Card] = true
	}
	if len(chips) != fs.chips {
		t.Fatalf("%d appends touched %d distinct chips, want %d", fs.chips, len(chips), fs.chips)
	}
	if len(nodes) != 2 || len(cards) != c.Params.CardsPerNode {
		t.Fatalf("striping covered %d nodes, %d cards", len(nodes), len(cards))
	}
}

// TestClusterCleaningOnBackground: churn overwrites until the cleaner
// runs, with a realtime probe reading throughout. Cleaning traffic
// must be admitted on the Background class (visible in the scheduler's
// class accounting, sized at least as large as the relocation work),
// and the realtime stream must keep completing — cleaning never
// starves it.
func TestClusterCleaningOnBackground(t *testing.T) {
	c, s, fs := newClusterFS(t, 2, 16)
	f, err := fs.Create("churn")
	if err != nil {
		t.Fatal(err)
	}
	// Fill ~60% of the log, then overwrite it several times over: the
	// pool has to cross the low-water mark and clean repeatedly.
	pages := fs.totalPages() * 6 / 10
	clusterAppend(t, c, f, pages, 32, idxPage)

	s.ResetStats()
	probe := f.At(sched.Realtime)
	probeReads, probeErrs := 0, 0
	churning := true
	var probeLoop func()
	probeLoop = func() {
		if !churning {
			return
		}
		probe.ReadPage(probeReads%pages, func(_ []byte, err error) {
			probeReads++
			if err != nil {
				probeErrs++
			}
			probeLoop()
		})
	}
	probeLoop()

	writer := f.At(sched.Batch)
	buf := make([]byte, fs.PageSize())
	overwrites := fs.totalPages()
	done, werrs := 0, 0
	next := 0
	var churn func()
	churn = func() {
		if next >= overwrites {
			return
		}
		idx := next % pages
		next++
		idxPage(idx+1, buf)
		writer.WritePage(idx, buf, func(err error) {
			done++
			if err != nil {
				werrs++
			}
			if done == overwrites {
				churning = false
			}
			churn()
		})
	}
	for i := 0; i < 16; i++ {
		churn()
	}
	c.Run()

	if werrs > 0 || probeErrs > 0 {
		t.Fatalf("errors: %d writes, %d probe reads", werrs, probeErrs)
	}
	if fs.CleanMoves == 0 || fs.SegsCleaned == 0 {
		t.Fatalf("churn never reached cleaning: moves=%d segs=%d free=%d",
			fs.CleanMoves, fs.SegsCleaned, fs.FreeSegments())
	}
	if probeReads == 0 {
		t.Fatal("realtime probe starved: zero completions under cleaning")
	}
	snap := s.Snapshot()
	var bgOps, rtOps int64
	for _, cs := range snap.Classes {
		switch cs.Class {
		case "background":
			bgOps = cs.Ops
		case "realtime":
			rtOps = cs.Ops
		}
	}
	// Every relocation is a Background read + write, every reclaimed
	// segment a Background erase.
	if want := 2*fs.CleanMoves + fs.SegsCleaned; bgOps < want {
		t.Fatalf("background class saw %d ops, want >= %d (cleaning bypassed the scheduler?)", bgOps, want)
	}
	if rtOps != int64(probeReads) {
		t.Fatalf("realtime class saw %d ops, probe completed %d", rtOps, probeReads)
	}
	if err := fs.Log.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestClusterPhysicalAddrsMatchEngineReads: the Figure 8 contract —
// an in-store engine reading the addresses the file system reports
// (through the scheduler's Accel admission) must see exactly the
// bytes the host sees reading the file.
func TestClusterPhysicalAddrsMatchEngineReads(t *testing.T) {
	c, s, fs := newClusterFS(t, 2, 4)
	f, err := fs.Create("scan")
	if err != nil {
		t.Fatal(err)
	}
	const pages = 96
	clusterAppend(t, c, f, pages, 16, idxPage)
	addrs, err := f.PhysicalAddrs()
	if err != nil {
		t.Fatal(err)
	}
	if len(addrs) != pages {
		t.Fatalf("addrs = %d", len(addrs))
	}
	st, err := s.NewStream("engine", 0, sched.Accel)
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range addrs {
		var host, engine []byte
		herr := errors.New("host read pending")
		f.ReadPage(i, func(d []byte, e error) { host, herr = d, e })
		eerr := errors.New("engine read pending")
		addr := a
		var admit func()
		admit = func() {
			if err := st.Read(addr, func(d []byte, e error) { engine, eerr = d, e }); err == sched.ErrBackpressure {
				c.Eng.After(1000, admit)
			} else if err != nil {
				t.Fatal(err)
			}
		}
		admit()
		c.Run()
		if herr != nil || eerr != nil {
			t.Fatalf("page %d: host err=%v engine err=%v", i, herr, eerr)
		}
		if !bytes.Equal(host, engine) {
			t.Fatalf("page %d: engine read %x..., host read %x... at %v", i, engine[:4], host[:4], a)
		}
	}
}

// TestClusterOverwritesUnderCleaning: overwrites at depth 32 on a log
// of two chips keep sealing segments whose programs are still queued
// in the scheduler, and those are the cleaner's cheapest victims. The
// cleaner must wait for a victim's programs before it relocates and
// erases it: an erase that overtakes a queued program fails that
// program (pages of a block are programmed in order) or erases what it
// wrote. Every write succeeds, every page reads its last acknowledged
// version, and the invariants hold — at two scheduler depths, with the
// file overwritten in order and at random.
func TestClusterOverwritesUnderCleaning(t *testing.T) {
	for _, maxInflight := range []int{4, sched.DefaultConfig().MaxInflight} {
		for _, random := range []bool{false, true} {
			t.Run(fmt.Sprintf("inflight%d-random%v", maxInflight, random), func(t *testing.T) {
				overwriteUnderCleaning(t, maxInflight, random)
			})
		}
	}
}

func overwriteUnderCleaning(t *testing.T, maxInflight int, random bool) {
	p := core.DefaultParams(2)
	p.CardsPerNode = 1
	p.Geometry.Buses, p.Geometry.ChipsPerBus = 1, 1
	p.Geometry.BlocksPerChip, p.Geometry.PagesPerBlock = 8, 8
	c := coretest.NewCluster(t, p)
	scfg := sched.DefaultConfig()
	scfg.MaxInflight = maxInflight
	s, err := sched.New(c, scfg)
	if err != nil {
		t.Fatal(err)
	}
	fs, _, err := NewClusterFS(c, s, ClusterConfig{}, Config{CleanLowWater: 2})
	if err != nil {
		t.Fatal(err)
	}
	f, err := fs.Create("churn")
	if err != nil {
		t.Fatal(err)
	}
	const pages, rounds, depth = 40, 6, 32
	clusterAppend(t, c, f, pages, depth, idxPage)
	rng := sim.NewRNG(1)
	version := make([]int, pages)
	next := 0
	var werr error
	var issue func()
	issue = func() {
		if next >= pages*rounds {
			return
		}
		idx, v := next%pages, next/pages+1
		if random {
			idx = rng.Intn(pages)
		}
		next++
		buf := make([]byte, f.PageSize())
		idxPage(idx+v*pages, buf)
		f.WritePage(idx, buf, func(err error) {
			if err != nil && werr == nil {
				werr = fmt.Errorf("overwrite %d of page %d: %w", v, idx, err)
			}
			if err == nil {
				version[idx] = v // the last acknowledged, in completion order
			}
			issue()
		})
	}
	for i := 0; i < depth; i++ {
		issue()
	}
	c.Run()
	if werr != nil {
		t.Fatal(werr)
	}
	if fs.SegsCleaned == 0 {
		t.Fatal("test premise: the overwrites never cleaned a segment")
	}
	if err := fs.Log.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	want := make([]byte, f.PageSize())
	for idx := 0; idx < pages; idx++ {
		idxPage(idx+version[idx]*pages, want)
		var got []byte
		rerr := errors.New("read never completed")
		f.ReadPage(idx, func(d []byte, err error) { got, rerr = d, err })
		c.Run()
		if rerr != nil || !bytes.Equal(got, want) {
			t.Fatalf("page %d: err %v, not version %d", idx, rerr, version[idx])
		}
	}
}
