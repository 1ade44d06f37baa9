package main

// Per-layer counters, read from outside through each layer's exported
// accessors at the two edges of the measured window and reported as
// deltas (gauges as the value at the window's end). Utilizations are
// windowed too: a pipe reports busy/now since time zero, so busy time
// is utilization × now and the window's share is the difference of
// two such products over the window's length.

import (
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/rfs"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/volume"
)

// stack is the set of layer handles a workload built. Layers a
// workload does not have stay nil and report zeros.
type stack struct {
	c  *core.Cluster
	s  *sched.Scheduler
	v  *volume.Volume
	ca *cache.Cache
	fs *rfs.FS

	// Kept by the workload itself, since the layer has no counter:
	// totals over ispvol query results, and host page writes completed.
	isp        ispTotals
	hostWrites int64
}

type ispTotals struct {
	queries, pagesScanned, failedPages, bytesToHost int64
}

// edge is every cumulative counter at one instant.
type edge struct {
	now sim.Time
	eng sim.EngineStats

	nandReads, nandPrograms, nandErases int64
	busBusy                             float64 // Σ over buses of busy ns
	buses                               int
	corrected, uncorrectable            int64

	segs, fabricBytes int64
	linkBusy          []float64 // busy ns per link direction

	rpcs, pagesUp int64
	pcieBusy      float64 // Σ over nodes of busy ns
	coreBusyMs    float64 // Σ over nodes
	cores         int

	vol   volume.Stats
	cache cache.Stats

	rfsWritten, rfsMoves int64

	isp        ispTotals
	hostWrites int64
}

func (st *stack) read() edge {
	c := st.c
	now := c.Eng.Now()
	e := edge{now: now, eng: c.Eng.Stats(), isp: st.isp, hostWrites: st.hostWrites}
	p := c.Params
	for n := 0; n < c.Nodes(); n++ {
		node := c.Node(n)
		for ci := 0; ci < p.CardsPerNode; ci++ {
			card := node.Card(ci)
			e.nandReads += card.Reads.Value()
			e.nandPrograms += card.Programs.Value()
			e.nandErases += card.Erases.Value()
			for b := 0; b < p.Geometry.Buses; b++ {
				e.busBusy += card.BusUtilization(b) * float64(now)
				e.buses++
			}
			ctl := node.Controller(ci)
			e.corrected += ctl.CorrectedBits.Value()
			e.uncorrectable += ctl.Uncorrectable.Value()
		}
		e.rpcs += node.Host.RPCs.Value()
		e.pagesUp += node.Host.PagesUp.Value()
		e.pcieBusy += node.Host.ToHostUtilization() * float64(now)
		e.coreBusyMs += node.CPU.Stats().CoreBusyMs
		e.cores += node.CPU.Config().Cores
	}
	e.segs = c.Net.SegsMoved.Value()
	e.fabricBytes = c.Net.BytesMoved.Value()
	for _, u := range c.Net.LinkUtilization() {
		e.linkBusy = append(e.linkBusy, u*float64(now))
	}
	if st.v != nil {
		e.vol = st.v.Stats()
	}
	if st.ca != nil {
		e.cache = st.ca.Stats()
	}
	if st.fs != nil {
		e.rfsWritten, e.rfsMoves = st.fs.PagesWritten, st.fs.CleanMoves
	}
	return e
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// layerCounters turns two edges (and the scheduler's snapshot, whose
// stats were reset at the first edge) into the per-layer counter
// metrics. Every name in counterDefs gets a value.
func (st *stack) layerCounters(a, b edge) map[string]float64 {
	span := float64(b.now - a.now)
	m := map[string]float64{}

	scheduled := float64(b.eng.WheelEvents-a.eng.WheelEvents) +
		float64(b.eng.CurEvents-a.eng.CurEvents) + float64(b.eng.FarEvents-a.eng.FarEvents)
	m["sim.events"] = float64(b.eng.Fired - a.eng.Fired)
	m["sim.wheel_share"] = ratio(float64(b.eng.WheelEvents-a.eng.WheelEvents), scheduled)
	m["sim.far_cascades"] = float64(b.eng.FarCascades - a.eng.FarCascades)
	m["sim.pool_slots"] = float64(b.eng.PoolSlots)

	m["nand.reads"] = float64(b.nandReads - a.nandReads)
	m["nand.programs"] = float64(b.nandPrograms - a.nandPrograms)
	m["nand.erases"] = float64(b.nandErases - a.nandErases)
	m["nand.bus_util"] = ratio(b.busBusy-a.busBusy, span*float64(b.buses))

	m["flashctl.corrected_bits"] = float64(b.corrected - a.corrected)
	m["flashctl.uncorrectable"] = float64(b.uncorrectable - a.uncorrectable)

	m["fabric.segs_moved"] = float64(b.segs - a.segs)
	m["fabric.bytes_moved"] = float64(b.fabricBytes - a.fabricBytes)
	maxLink := 0.0
	for i := range b.linkBusy {
		if u := ratio(b.linkBusy[i]-a.linkBusy[i], span); u > maxLink {
			maxLink = u
		}
	}
	m["fabric.link_util_max"] = maxLink

	nodes := float64(st.c.Nodes())
	m["hostif.rpcs"] = float64(b.rpcs - a.rpcs)
	m["hostif.pages_up"] = float64(b.pagesUp - a.pagesUp)
	m["hostif.pcie_util"] = ratio(b.pcieBusy-a.pcieBusy, span*nodes)
	m["hostmodel.cpu_util"] = ratio((b.coreBusyMs-a.coreBusyMs)*float64(sim.Millisecond), span*float64(b.cores))

	snap := st.s.Snapshot()
	m["sched.avg_batch"] = snap.AvgBatch
	m["sched.coalesced"] = float64(snap.Coalesced)
	m["sched.rejected"] = float64(snap.Rejected)
	m["sched.peak_queue"] = float64(snap.PeakQueue)
	for _, cs := range snap.Classes {
		m["sched."+cs.Class+".ops"] = float64(cs.Ops)
		m["sched."+cs.Class+".p99_us"] = cs.P99Us
	}

	vd := b.vol.Delta(a.vol)
	m["volume.host_reads"] = float64(vd.HostReads)
	m["volume.host_writes"] = float64(vd.HostWrites)
	m["volume.flash_programs"] = float64(vd.FlashPrograms)
	m["volume.flash_erases"] = float64(vd.FlashErases)
	m["volume.gc_moves"] = float64(vd.GCMoves)
	m["volume.min_free_blocks"] = float64(vd.MinFreeBlocks)
	m["volume.read_faults"] = float64(vd.ReadFaults)

	cd := b.cache.Delta(a.cache)
	m["cache.hit_rate"] = cd.HitRate
	m["cache.hits"] = float64(cd.Hits)
	m["cache.misses"] = float64(cd.Misses)
	m["cache.evictions"] = float64(cd.Evictions)
	m["cache.flushes"] = float64(cd.Flushes)
	m["cache.write_throughs"] = float64(cd.WriteThroughs)
	m["cache.inv_sent"] = float64(cd.InvalidationsSent)
	m["cache.inv_applied"] = float64(cd.InvalidationsApplied)

	written := float64(b.rfsWritten - a.rfsWritten)
	m["rfs.write_amp"] = ratio(written+float64(b.rfsMoves-a.rfsMoves), written)
	m["rfs.free_segments"], m["rfs.live_mappings"] = 0, 0
	if st.fs != nil {
		m["rfs.free_segments"] = float64(st.fs.FreeSegments())
		m["rfs.live_mappings"] = float64(st.fs.LiveMappings())
	}

	m["ispvol.queries"] = float64(b.isp.queries - a.isp.queries)
	m["ispvol.pages_scanned"] = float64(b.isp.pagesScanned - a.isp.pagesScanned)
	m["ispvol.failed_pages"] = float64(b.isp.failedPages - a.isp.failedPages)
	m["ispvol.bytes_to_host"] = float64(b.isp.bytesToHost - a.isp.bytesToHost)
	return m
}
