package main

// The metric registry: every name the benchmark prints, with its unit,
// direction and (end to end) regression bound. BENCHMARK.json lists the
// same names; TestBenchmarkJSONMatchesRegistry keeps the two together.
//
// Two clocks, named in the unit. "_sim" units are simulated (virtual)
// time of the modelled hardware and repeat exactly for a seed. Every
// other time is the simulator's own cost on the host, in seconds of
// process CPU time (see cpuTime) unless it says wall.

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end metrics only
	// Paired is the bound -compare holds the metric to, where both sides
	// ran the same seeds and a seed's two values are set side by side.
	Paired float64 `json:"-"`
}

const (
	higher = "higher"
	lower  = "lower"
)

// endToEnd is what a user of the appliance (sim_*) or of the simulator
// (the rest) would see. One op is one 8 KiB page read, written, or
// scanned by an engine, completed and verified.
//
// A metric has two bounds because it is compared in two ways. The
// driver sets runs on different seeds against each other, so Bound (the
// one in BENCHMARK.json) has to clear the spread between seeds: it is
// about three times the widest such spread seen on any workload
// (README.md has the numbers). -compare sets a seed's run on one commit
// against the same seed's run on the other, where the sim_* metrics and
// events_per_op repeat exactly and the allocation counts to four
// digits, so Paired is the tight bound the issue gave. Only host time
// keeps the wide bound both ways: on the defining machine it drifted by
// 30% within the hour even on the CPU clock.
var endToEnd = []metricDef{
	// page ops per second of process CPU time; median over the window's 10 equal-op-count segments
	{"host_ops_per_s", "op/s", higher, 0.25, 0.25},
	// sim.Engine.Fired() delta / ops
	{"events_per_op", "count", lower, 0.04, 0.02},
	// runtime.MemStats.Mallocs delta / ops
	{"allocs_per_op", "count", lower, 0.05, 0.02},
	// runtime.MemStats.TotalAlloc delta / ops; fresh-buffer payload copies show here
	{"alloc_bytes_per_op", "B", lower, 0.05, 0.02},
	// HeapAlloc after a forced GC once the window has drained: pools, slabs, NAND contents
	{"live_heap_mb", "MiB", lower, 0.05, 0.05},
	// process CPU time to build the stack, seed it and warm it up
	{"setup_s", "s", lower, 0.25, 0.25},
	// ops / simulated seconds of the window (× 8 KiB = the paper's GB/s)
	{"sim_ops_per_s", "op/s_sim", higher, 0.10, 0.02},
	// realtime probe latency from due time to completion, median
	{"sim_rt_p50_us", "us_sim", lower, 0.05, 0.02},
	// same, 99th percentile
	{"sim_rt_p99_us", "us_sim", lower, 0.20, 0.02},
	// same, 99.9th percentile (≥10 000 samples, so ten lie beyond it)
	{"sim_rt_p999_us", "us_sim", lower, 0.25, 0.05},
	// flash programs per host page write over the window; 1 on a window that writes nothing
	{"sim_write_amp", "ratio", lower, 0.10, 0.02},
}

// counterDefs are the per-layer counters: deltas over the window,
// gauges and utilizations as noted. A layer the workload does not
// build reports 0.
var counterDefs = []metricDef{
	{Name: "sim.events", Unit: "count", Better: lower},       // events fired
	{Name: "sim.wheel_share", Unit: "ratio", Better: higher}, // events scheduled into the near wheel ÷ all scheduled
	{Name: "sim.far_cascades", Unit: "count", Better: lower}, // far-heap events re-bucketed into the wheel
	{Name: "sim.pool_slots", Unit: "count", Better: lower},   // event pool capacity at the window's end (gauge)

	{Name: "nand.reads", Unit: "count", Better: lower},    // page reads, all cards
	{Name: "nand.programs", Unit: "count", Better: lower}, // page programs, all cards
	{Name: "nand.erases", Unit: "count", Better: lower},   // block erases, all cards
	{Name: "nand.bus_util", Unit: "ratio", Better: lower}, // mean flash-bus utilization over the window

	{Name: "flashctl.corrected_bits", Unit: "count", Better: lower}, // bit flips ECC repaired
	{Name: "flashctl.uncorrectable", Unit: "count", Better: lower},  // reads ECC failed

	{Name: "fabric.segs_moved", Unit: "count", Better: lower},    // segments put on a wire, every hop counted
	{Name: "fabric.bytes_moved", Unit: "B", Better: lower},       // payload bytes put on a wire, every hop counted
	{Name: "fabric.link_util_max", Unit: "ratio", Better: lower}, // utilization of the busiest link direction over the window

	{Name: "hostif.rpcs", Unit: "count", Better: lower},      // doorbells rung
	{Name: "hostif.pages_up", Unit: "count", Better: lower},  // pages DMA'd device to host
	{Name: "hostif.pcie_util", Unit: "ratio", Better: lower}, // mean device-to-host PCIe utilization over the window

	{Name: "hostmodel.cpu_util", Unit: "ratio", Better: lower}, // host core-time busy ÷ core-time available over the window

	{Name: "sched.avg_batch", Unit: "count", Better: higher}, // requests per doorbell
	{Name: "sched.coalesced", Unit: "count", Better: higher}, // duplicate reads merged into a queued read
	{Name: "sched.rejected", Unit: "count", Better: lower},   // admissions refused with backpressure
	{Name: "sched.peak_queue", Unit: "count", Better: lower}, // deepest admission queue on any node (gauge)
	{Name: "sched.realtime.ops", Unit: "count", Better: higher},
	{Name: "sched.realtime.p99_us", Unit: "us_sim", Better: lower},
	{Name: "sched.interactive.ops", Unit: "count", Better: higher},
	{Name: "sched.interactive.p99_us", Unit: "us_sim", Better: lower},
	{Name: "sched.batch.ops", Unit: "count", Better: higher},
	{Name: "sched.batch.p99_us", Unit: "us_sim", Better: lower},
	{Name: "sched.accel.ops", Unit: "count", Better: higher},
	{Name: "sched.accel.p99_us", Unit: "us_sim", Better: lower},
	{Name: "sched.background.ops", Unit: "count", Better: lower},
	{Name: "sched.background.p99_us", Unit: "us_sim", Better: lower},

	{Name: "volume.host_reads", Unit: "count", Better: lower},  // logical reads the FTLs served
	{Name: "volume.host_writes", Unit: "count", Better: lower}, // logical writes the FTLs took
	{Name: "volume.flash_programs", Unit: "count", Better: lower},
	{Name: "volume.flash_erases", Unit: "count", Better: lower},
	{Name: "volume.gc_moves", Unit: "count", Better: lower},         // pages garbage collection relocated
	{Name: "volume.min_free_blocks", Unit: "count", Better: higher}, // smallest free pool of any card at the window's end (gauge)
	{Name: "volume.read_faults", Unit: "count", Better: lower},

	{Name: "cache.hit_rate", Unit: "ratio", Better: higher},
	{Name: "cache.hits", Unit: "count", Better: higher},
	{Name: "cache.misses", Unit: "count", Better: lower},
	{Name: "cache.evictions", Unit: "count", Better: lower},
	{Name: "cache.flushes", Unit: "count", Better: lower},
	{Name: "cache.write_throughs", Unit: "count", Better: lower},
	{Name: "cache.inv_sent", Unit: "count", Better: lower},
	{Name: "cache.inv_applied", Unit: "count", Better: lower},

	{Name: "rfs.write_amp", Unit: "ratio", Better: lower},      // (pages written + pages the cleaner moved) ÷ pages written, over the window
	{Name: "rfs.free_segments", Unit: "count", Better: higher}, // free pool at the window's end (gauge)
	{Name: "rfs.live_mappings", Unit: "count", Better: lower},  // page mappings held at the window's end (gauge)

	{Name: "ispvol.queries", Unit: "count", Better: higher},
	{Name: "ispvol.pages_scanned", Unit: "count", Better: higher},
	{Name: "ispvol.failed_pages", Unit: "count", Better: lower},
	{Name: "ispvol.bytes_to_host", Unit: "B", Better: lower}, // result bytes DMA'd into origin hosts

	{Name: "host.wall_s", Unit: "s", Better: lower},              // wall time of the traced window
	{Name: "host.cpu_s", Unit: "s", Better: lower},               // process CPU time of the traced window; well under host.wall_s means the machine was taken away
	{Name: "host.gc_cycles", Unit: "count", Better: lower},       // Go GC cycles during the traced window
	{Name: "trace.overhead_share", Unit: "ratio", Better: lower}, // 1 − traced ÷ untraced host_ops_per_s
}

// rungDef is one rung of the ladder: one layer entry point, driven at
// depth 1 on a stack that holds only what lies beneath it.
type rungDef struct {
	name   string
	entry  string
	hasSim bool // has a simulated latency (two rungs are pure host code)
}

var rungs = []rungDef{
	{"sim.event", "Engine.After + Engine.Step", false},
	{"ecc.decode_page", "PageCodec.DecodePageInPlace", false},
	{"nand.read", "Card.ReadPage", true},
	{"flashserver.read", "Iface.ReadPhysical", true},
	{"flashserver.write", "Iface.WritePhysical", true},
	{"fabric.send_4hop", "Endpoint.Send, one page over 4 hops", true},
	{"core.isp_read", "Node.ISPReadDirect, local", true},
	{"core.host_read", "Node.HostRead, local", true},
	{"sched.read", "sched.Stream.Read, local", true},
	{"volume.read", "volume.Stream.Read", true},
	{"volume.write", "volume.Stream.Write in steady-state GC", true},
	{"cache.read_hit", "cache.Stream.Read of a resident page", true},
	{"rfs.append", "File.AppendPage", true},
	{"ispvol.search_page", "System.SearchFile ÷ pages", true},
}

// ladderDefs expands the rungs into their per-call metrics.
func ladderDefs() []metricDef {
	var out []metricDef
	for _, r := range rungs {
		out = append(out,
			metricDef{Name: r.name + ".host_ns", Unit: "ns", Better: lower},
			metricDef{Name: r.name + ".events", Unit: "count", Better: lower},
			metricDef{Name: r.name + ".allocs", Unit: "count", Better: lower},
			metricDef{Name: r.name + ".alloc_bytes", Unit: "B", Better: lower},
		)
		if r.hasSim {
			out = append(out, metricDef{Name: r.name + ".sim_us", Unit: "us_sim", Better: lower})
		}
	}
	return out
}

// perLayer is every per-layer metric: counters, then the ladder.
func perLayer() []metricDef {
	return append(append([]metricDef(nil), counterDefs...), ladderDefs()...)
}
