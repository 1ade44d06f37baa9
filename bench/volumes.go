package main

// volume-churn and cache-hotcold: logical pages of a volume over
// per-card FTLs, overwritten hard enough that garbage collection is in
// steady state — through volume.Stream directly, or through the
// host-DRAM cache above it.

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/ftl"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/volume"
)

type volDims struct {
	nodes         int
	blocksPerChip int
	// stable is the share of the logical space (at its top) that is
	// seeded once and never overwritten; volume-churn probes read it.
	stableShare float64
	// cachePages is the per-node cache capacity; 0 builds no cache.
	cachePages int
	age        int     // pages overwritten once after seeding, before the load starts
	writeShare float64 // bulk ops that write
	probeEvery sim.Time
	warm       int64
	rate       int64
}

const (
	cacheHotShare = 0.90 // accesses that go to the hot set
	// The hot set is 0.8× one node's cache and fits; the cold set is
	// 16× and does not.
	cacheHotFactor  = 0.8
	cacheColdFactor = 16
)

type volLoad struct {
	d    *driver
	st   stamper
	dims volDims
	stk  *stack

	vs []*volume.Stream // by stream id (volume-churn)
	cs []*cache.Stream  // by stream id (cache-hotcold)

	ver *versions // of the volume's logical pages

	churn     int // volume-churn: pages [0,churn) are overwritten, [churn,pages) are stable
	hot, cold int // cache-hotcold: hot set [0,hot), cold set [hot,hot+cold)
}

func buildVolume(dims volDims, seed uint64, sz sizing) (*instance, error) {
	// Small flash, so that seeding, ageing and warm-up reach steady-
	// state garbage collection within a second or two of host time.
	// Timing and bandwidth stay the paper's.
	p := core.DefaultParams(dims.nodes)
	p.Geometry.BlocksPerChip = dims.blocksPerChip
	c, err := core.NewCluster(p)
	if err != nil {
		return nil, err
	}
	s, err := sched.New(c, sched.DefaultConfig())
	if err != nil {
		return nil, err
	}
	vcfg := volume.DefaultConfig()
	vcfg.FTL = ftl.DefaultConfig() // over-provision 0.25
	v, err := volume.New(c, s, vcfg)
	if err != nil {
		return nil, err
	}
	w := &volLoad{st: stamper{seed: seed}, dims: dims, stk: &stack{c: c, s: s, v: v}}
	pages := v.Pages()
	w.ver = newVersions(&w.st, 0, pages, v.PageSize())

	layer := "volume"
	if dims.cachePages > 0 {
		layer = "cache"
		w.hot = int(cacheHotFactor*float64(dims.cachePages)) / dims.nodes * dims.nodes
		w.cold = cacheColdFactor * dims.cachePages / dims.nodes * dims.nodes
		if w.hot+w.cold > pages {
			return nil, fmt.Errorf("hot %d + cold %d pages exceed the %d-page volume", w.hot, w.cold, pages)
		}
		pages = w.hot + w.cold
	} else {
		w.churn = pages - int(dims.stableShare*float64(pages))
	}
	// Seed every page, then age the churn space (under the cache, the
	// cold set): overwrite dims.age scattered pages of it once, which
	// uses up the flash the seeding left free, so that garbage
	// collection is already running when the warm-up starts.
	aged := w.cold + w.churn
	err = seedVolume(v, c, w.ver, pages, 0, func(i int) int { return i })
	if err == nil {
		err = seedVolume(v, c, w.ver, dims.age, 1, func(i int) int { return w.hot + scatter(i, aged) })
	}
	if err != nil {
		return nil, err
	}
	if dims.cachePages > 0 {
		ca, err := cache.New(c, v, cache.DefaultConfig(dims.cachePages))
		if err != nil {
			return nil, err
		}
		w.stk.ca = ca
	}

	d := newDriver(c.Eng, layer, dims.probeEvery)
	w.d = d
	d.issue, d.newOp = w.issue, w.newOp
	// Bulk streams pick over the churn space and probes over the stable
	// region above it; under the cache both pick over the hot set (the
	// cold share of accesses is drawn at issue).
	bulk, probe := w.churn, pages-w.churn
	if w.stk.ca != nil {
		bulk, probe = w.hot, w.hot
	}
	err = d.deal(dims.nodes, seed, bulk, probe, func(str *stream) error {
		name := fmt.Sprintf("bench-%d", str.id)
		if w.stk.ca != nil {
			h, err := w.stk.ca.NewStream(name, str.node, str.class)
			w.cs = append(w.cs, h)
			return err
		}
		h, err := v.NewStream(name, str.class)
		w.vs = append(w.vs, h)
		return err
	})
	if err != nil {
		return nil, err
	}
	return &instance{d: d, st: w.stk, warm: dims.warm, window: sz.window(dims.rate)}, nil
}

// seedVolume writes version ver of pages page(0..n-1), 64 in flight.
func seedVolume(v *volume.Volume, c *core.Cluster, vers *versions, n int, ver uint32, page func(i int) int) error {
	vs, err := v.NewStream("bench-seed", sched.Batch)
	if err != nil {
		return err
	}
	err = pipelined(c.Eng, 64, n, func(i int, done func(error)) {
		lpn := page(i)
		vs.Write(lpn, vers.settled(lpn, ver), done)
	})
	if err != nil {
		return fmt.Errorf("seed volume: %w", err)
	}
	return nil
}

func (w *volLoad) newOp(str *stream) *op {
	o := &op{str: str}
	o.rcb = func(data []byte, err error) {
		w.d.done(o, 1, err == nil && w.ver.check(data, o.page, o.ver))
	}
	o.wcb = func(err error) {
		w.ver.wrote(o.page, o.ver, err)
		if err == nil {
			w.stk.hostWrites++
		}
		w.d.done(o, 1, err == nil)
	}
	return o
}

func (w *volLoad) issue(o *op) {
	str := o.str
	if w.stk.ca != nil {
		w.issueCached(o)
		return
	}
	write := false
	if str.probe {
		o.page = w.churn + str.pick.pick()
	} else {
		o.page = str.pick.pick()
		write = str.r.float() < w.dims.writeShare
	}
	if write {
		o.page = w.ver.idle(o.page, 0, w.churn, 1)
		o.ver = w.ver.next(o.page)
		w.d.begin(o, 1, opWrite)
		w.vs[str.id].Write(o.page, w.ver.buf, o.wcb)
		return
	}
	o.ver = w.ver.floor(o.page)
	w.d.begin(o, 1, opRead)
	w.vs[str.id].Read(o.page, o.rcb)
}

// issueCached draws from the hot set nine times in ten, else from the
// cold set. Every node reads every page, but a page is written only
// from node page%nodes: a single writer keeps versions ordered, and
// its flushes invalidate the other nodes' clean copies. The cache
// promises a node its own writes in order and nothing about when it
// sees another node's, so only the writer's reads have a version
// floor.
func (w *volLoad) issueCached(o *op) {
	str := o.str
	nodes := w.dims.nodes
	if str.r.float() < cacheHotShare {
		o.page = str.pick.pick()
	} else {
		o.page = w.hot + str.r.intn(w.cold)
	}
	if !str.probe && str.r.float() < w.dims.writeShare {
		lo, hi := 0, w.hot
		if o.page >= w.hot {
			lo, hi = w.hot, w.hot+w.cold
		}
		o.page = w.ver.idle(o.page-o.page%nodes+str.node, lo, hi, nodes)
		o.ver = w.ver.next(o.page)
		w.d.begin(o, 1, opWrite)
		w.cs[str.id].Write(o.page, w.ver.buf, o.wcb)
		return
	}
	o.ver = 0
	if o.page%nodes == str.node {
		o.ver = w.ver.floor(o.page)
	}
	w.d.begin(o, 1, opRead)
	w.cs[str.id].Read(o.page, o.rcb)
}
