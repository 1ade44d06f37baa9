package experiments

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/workload"
)

// EngineConfig sizes the event-engine benchmark: the same synthetic
// full-stack load (scheduler admission, fabric traffic, NAND timing,
// host interface) replayed at several cluster sizes, measuring the
// simulation substrate itself — events/sec of wall-clock time —
// instead of the modeled hardware.
type EngineConfig struct {
	// NodeCounts are the cluster sizes to sweep (the ceiling on
	// cluster scale is the engine's events/sec, so the sweep shows how
	// the substrate holds up as the event population grows).
	NodeCounts []int `json:"node_counts"`
	// StreamsPerNode client streams issue from every node's host,
	// addressed across the whole cluster so fabric events are part of
	// the load.
	StreamsPerNode int    `json:"streams_per_node"`
	Depth          int    `json:"depth"`    // closed-loop outstanding per stream
	Requests       int    `json:"requests"` // completions per stream
	Pages          int    `json:"pages"`    // seeded read region per node
	Seed           uint64 `json:"seed"`

	Sched sched.Config `json:"sched"`
}

// DefaultEngineBench returns the standard sweep: 4/16/64 nodes under
// a mixed read/write, cluster-addressed, multi-class load. short cuts
// the sweep and the request counts for CI smoke runs.
func DefaultEngineBench(short bool) EngineConfig {
	cfg := EngineConfig{
		NodeCounts:     []int{4, 16, 64},
		StreamsPerNode: 8,
		Depth:          8,
		Requests:       128,
		Pages:          480,
		Seed:           42,
		Sched:          sched.DefaultConfig(),
	}
	if short {
		cfg.NodeCounts = []int{2, 4}
		cfg.Requests = 24
	}
	return cfg
}

// EnginePoint is the measurement at one cluster size.
type EnginePoint struct {
	Nodes     int   `json:"nodes"`
	Streams   int   `json:"streams"`
	Completed int64 `json:"completed"`

	// Events is the number of engine events fired by the measured run
	// (seeding excluded).
	Events uint64 `json:"events"`
	// VirtualSeconds is simulated time covered by the run.
	VirtualSeconds float64 `json:"virtual_seconds"`

	// Substrate speed: wall-clock cost of the event loop.
	WallSeconds    float64 `json:"wall_seconds"`
	EventsPerSec   float64 `json:"events_per_sec"`
	NsPerEvent     float64 `json:"ns_per_event"`
	AllocsPerEvent float64 `json:"allocs_per_event"`
	// The same cost per completed request: the two machine-independent
	// figures a simulator speed-up moves, and what the committed
	// trajectory is read for.
	EventsPerRequest float64 `json:"events_per_request"`
	AllocsPerRequest float64 `json:"allocs_per_request"`

	// Engine internals (see sim.EngineStats): how the timer structures
	// absorbed the load.
	Engine sim.EngineStats `json:"engine"`
}

// EngineResult is the JSON-ready outcome of the sweep.
type EngineResult struct {
	Config EngineConfig  `json:"config"`
	Points []EnginePoint `json:"points"`
}

// EngineRun is one sweep as BENCH_ENGINE.json keeps it: the result plus
// where and when it was measured. Wall-clock figures compare only
// between runs whose Machine matches; the per-request counts compare
// across all of them.
type EngineRun struct {
	Commit  string `json:"commit"`  // the commit measured; a trailing + marks uncommitted changes on top
	Date    string `json:"date"`    // UTC, YYYY-MM-DD
	Machine string `json:"machine"` // what the sweep ran on
	EngineResult
}

// EngineTrajectory is the committed BENCH_ENGINE.json: every recorded
// sweep, oldest first, so each simulator speed-up stays visible beside
// the one before it.
type EngineTrajectory struct {
	Runs []EngineRun `json:"runs"`
}

// engineSpecs deals dealStream's class/pattern mix across
// StreamsPerNode streams on every node, all addressing the whole
// cluster so the fabric, remote host paths and device queues of every
// node stay busy.
func engineSpecs(cfg EngineConfig, nodes int) []workload.StreamSpec {
	specs := make([]workload.StreamSpec, 0, nodes*cfg.StreamsPerNode)
	for n := 0; n < nodes; n++ {
		for i := 0; i < cfg.StreamsPerNode; i++ {
			class, pattern := dealStream(i)
			specs = append(specs, workload.StreamSpec{
				Name: fmt.Sprintf("n%02d-s%02d-%s-%s", n, i, class, pattern),
				Node: n, Target: -1, Class: class, Pattern: pattern,
				Seed: cfg.Seed + uint64(n*cfg.StreamsPerNode+i)*7919,
			})
		}
	}
	return specs
}

// EngineBench sweeps the synthetic full-stack load over
// cfg.NodeCounts and measures the event engine: events fired,
// wall-clock events/sec and ns/event, and heap allocations per event
// (runtime.MemStats mallocs over the measured run, which is why the
// benchmark runs the workload single-threaded and GC-quiesced).
func EngineBench(cfg EngineConfig) (EngineResult, error) {
	res := EngineResult{Config: cfg}
	for _, nodes := range cfg.NodeCounts {
		pt, err := enginePoint(cfg, nodes)
		if err != nil {
			return EngineResult{}, fmt.Errorf("engine bench at %d nodes: %w", nodes, err)
		}
		res.Points = append(res.Points, pt)
	}
	return res, nil
}

func enginePoint(cfg EngineConfig, nodes int) (EnginePoint, error) {
	st, err := physicalStack(nodes, cfg.Pages, cfg.Seed, cfg.Sched)
	if err != nil {
		return EnginePoint{}, err
	}
	c, specs := st.C, engineSpecs(cfg, nodes)

	// Quiesce the allocator so the mallocs delta is the event loop's,
	// not the cluster build's.
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	fired0 := c.Eng.Fired()
	v0 := c.Eng.Now()
	start := time.Now()

	loop, err := workload.RunClosedLoop(st.S, c, specs, cfg.Pages, cfg.Depth, cfg.Requests)

	wall := time.Since(start)
	runtime.ReadMemStats(&m1)
	if err != nil {
		return EnginePoint{}, err
	}
	if loop.Errors > 0 {
		return EnginePoint{}, fmt.Errorf("%d request errors", loop.Errors)
	}

	events := c.Eng.Fired() - fired0
	pt := EnginePoint{
		Nodes:          nodes,
		Streams:        len(specs),
		Completed:      loop.Completed,
		Events:         events,
		VirtualSeconds: (c.Eng.Now() - v0).Seconds(),
		WallSeconds:    wall.Seconds(),
		Engine:         c.Eng.Stats(),
	}
	if events > 0 {
		pt.EventsPerSec = float64(events) / wall.Seconds()
		pt.NsPerEvent = float64(wall.Nanoseconds()) / float64(events)
		pt.AllocsPerEvent = float64(m1.Mallocs-m0.Mallocs) / float64(events)
	}
	if loop.Completed > 0 {
		pt.EventsPerRequest = float64(events) / float64(loop.Completed)
		pt.AllocsPerRequest = float64(m1.Mallocs-m0.Mallocs) / float64(loop.Completed)
	}
	return pt, nil
}

// FormatEngineBench prints the sweep as a table.
func FormatEngineBench(res EngineResult) string {
	var t table
	t.row("engine: events/sec under the synthetic full-stack load")
	t.row("nodes", "streams", "events", "events/sec", "ns/event", "allocs/event", "events/req", "allocs/req", "virt s")
	for _, p := range res.Points {
		t.row(
			fmt.Sprintf("%d", p.Nodes),
			fmt.Sprintf("%d", p.Streams),
			fmt.Sprintf("%d", p.Events),
			f0(p.EventsPerSec),
			f1(p.NsPerEvent),
			f2(p.AllocsPerEvent),
			f1(p.EventsPerRequest),
			f1(p.AllocsPerRequest),
			f2(p.VirtualSeconds),
		)
	}
	return t.String()
}
