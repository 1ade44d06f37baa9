package experiments

// The fault-scenario experiment: durability, measured. A mirrored
// volume (cross-node replicas, internal/volume) serves realtime point
// reads and batch churn writes through three measured windows on one
// cluster:
//
//   - baseline: every copy healthy;
//   - degraded: a whole node is killed mid-window — reads fail over
//     to the surviving replica, writes land on one copy;
//   - rebuild: the node's cards are replaced blank and the rebuild
//     pump refills them from the survivors on the Background class,
//     gated by the same urgency-token machinery as GC, while the
//     foreground load keeps running.
//
// The headline numbers are the degraded-mode and rebuild-mode realtime
// p99 (vs baseline) and the time-to-rebuild: reconstruction must make
// steady progress without starving realtime.

import (
	"fmt"

	"repro/internal/ftl"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/volume"
	"repro/internal/workload"
)

// FaultConfig sizes the fault-scenario experiment.
type FaultConfig struct {
	Nodes    int    `json:"nodes"`
	Readers  int    `json:"readers"`  // realtime point-read probes
	Writers  int    `json:"writers"`  // batch churn-writer streams
	Depth    int    `json:"depth"`    // closed-loop outstanding per stream
	Requests int    `json:"requests"` // completions per writer per window
	Seed     uint64 `json:"seed"`

	// KillNode is the node killed in the degraded window; KillAfter is
	// the virtual delay into that window before it dies.
	KillNode  int      `json:"kill_node"`
	KillAfter sim.Time `json:"kill_after_ns"`

	Sched sched.Config `json:"sched"`
	FTL   ftl.Config   `json:"ftl"`
}

// DefaultFault returns the standard shape: a 4-node mirrored cluster,
// realtime probes against churn writers, one node killed and rebuilt.
// short cuts request counts for smoke runs.
func DefaultFault(short bool) FaultConfig {
	cfg := FaultConfig{
		Nodes:     4,
		Readers:   8,
		Writers:   4,
		Depth:     4,
		Requests:  768,
		Seed:      97,
		KillNode:  1,
		KillAfter: 500 * sim.Microsecond,
		Sched:     sched.DefaultConfig(),
		FTL:       ftl.Config{OverProvision: 0.25, GCLowWater: 4, WearLevelEvery: 64, GCPipeline: 16},
	}
	// Same admission shaping as the GC experiment: the dispatcher must
	// own the device window for class priority and the Background token
	// gate (GC and rebuild alike) to act.
	cfg.Sched.MaxInflight = 16
	cfg.Sched.BatchSize = 16
	if short {
		cfg.Requests = 192
	}
	return cfg
}

// FaultPhase is one measured window.
type FaultPhase struct {
	Loop   workload.LoopResult `json:"loop"`
	Sched  sched.Snapshot      `json:"sched"`
	Volume volume.Stats        `json:"volume"`
}

// FaultResult is the JSON-ready outcome.
type FaultResult struct {
	Config   FaultConfig `json:"config"`
	Baseline FaultPhase  `json:"baseline"`
	Degraded FaultPhase  `json:"degraded"`
	Rebuild  FaultPhase  `json:"rebuild"`

	// Realtime read tail latency per window, and each fault window's
	// ratio to the no-fault baseline.
	BaselineP99Us float64 `json:"realtime_p99_baseline_us"`
	DegradedP99Us float64 `json:"realtime_p99_degraded_us"`
	RebuildP99Us  float64 `json:"realtime_p99_rebuild_us"`
	DegradedX     float64 `json:"degraded_p99_x"`
	RebuildX      float64 `json:"rebuild_p99_x"`

	// RebuildMs is the virtual time from replacing the node's cards to
	// the last page restored, with the foreground load still running.
	RebuildMs      float64 `json:"rebuild_ms"`
	PagesRebuilt   int64   `json:"pages_rebuilt"`
	DegradedReads  int64   `json:"degraded_reads"`
	DegradedWrites int64   `json:"degraded_writes"`
}

// Fault runs the three-window fault scenario on one mirrored cluster.
func Fault(cfg FaultConfig) (FaultResult, error) {
	res := FaultResult{Config: cfg}
	if cfg.KillNode < 0 || cfg.KillNode >= cfg.Nodes {
		return res, fmt.Errorf("kill node %d out of range (%d nodes)", cfg.KillNode, cfg.Nodes)
	}
	spec := volumeSpec(cfg.Nodes, cfg.Sched, cfg.FTL)
	spec.Mirror = true
	st, err := seeded(spec, workload.RandomPages(cfg.Seed))
	if err != nil {
		return res, err
	}
	mixOf := func(seedSalt uint64) ([]workload.ClientSpec, error) {
		return probesAndChurn(st, cfg.Readers, cfg.Writers, cfg.Seed, volSalt^seedSalt)
	}
	// Warm the FTLs toward steady-state churn, unmeasured.
	warm, err := mixOf(warmSalt)
	if err != nil {
		return res, err
	}
	if _, err := st.Run(warm, cfg.Depth, cfg.Requests/4, nil); err != nil {
		return res, err
	}
	// Every window offers the same load. The whole point of the mirror
	// is that a node loss is absorbed, not surfaced: a window fails on
	// any workload-visible error.
	window := func(name string, fault func(*coRunner)) (FaultPhase, error) {
		specs, err := mixOf(0)
		if err != nil {
			return FaultPhase{}, err
		}
		w, err := measure(st, specs, cfg.Depth, cfg.Requests, fault)
		if err != nil {
			return FaultPhase{}, fmt.Errorf("%s window: %w", name, err)
		}
		return FaultPhase{Loop: w.Run.Loop, Sched: w.Sched, Volume: w.Volume}, nil
	}

	if res.Baseline, err = window("baseline", nil); err != nil {
		return res, err
	}

	// Window 2: the node dies mid-window; the mirror absorbs it.
	if res.Degraded, err = window("degraded", func(co *coRunner) {
		st.C.Eng.After(cfg.KillAfter, func() {
			if kerr := st.V.KillNode(cfg.KillNode); kerr != nil {
				co.fail(kerr)
			}
		})
	}); err != nil {
		return res, err
	}
	if res.Degraded.Volume.DegradedReads == 0 {
		return res, fmt.Errorf("degraded window: node kill produced no degraded reads")
	}

	// Window 3: replace the node's cards and rebuild them from the
	// survivors while the same load runs. The driver drains every
	// event, so the window ends only after the rebuild completes.
	var rebuildStart, rebuildEnd sim.Time
	if res.Rebuild, err = window("rebuild", func(co *coRunner) {
		rebuildStart = st.C.Eng.Now()
		if rerr := st.V.RebuildNode(cfg.KillNode, func() { rebuildEnd = st.C.Eng.Now() }); rerr != nil {
			co.fail(rerr)
		}
	}); err != nil {
		return res, err
	}
	if rebuildEnd == 0 {
		return res, fmt.Errorf("rebuild window: rebuild never completed")
	}
	if st.V.Rebuilding() {
		return res, fmt.Errorf("rebuild window: volume still rebuilding after drain")
	}
	if res.Rebuild.Volume.PagesRebuilt == 0 {
		return res, fmt.Errorf("rebuild window: no pages rebuilt")
	}

	res.BaselineP99Us = realtimeClass(res.Baseline.Sched).P99Us
	res.DegradedP99Us = realtimeClass(res.Degraded.Sched).P99Us
	res.RebuildP99Us = realtimeClass(res.Rebuild.Sched).P99Us
	res.DegradedX, res.RebuildX = ratio(res.DegradedP99Us, res.BaselineP99Us), ratio(res.RebuildP99Us, res.BaselineP99Us)
	res.RebuildMs = float64(rebuildEnd-rebuildStart) / float64(sim.Millisecond)
	res.PagesRebuilt = res.Rebuild.Volume.PagesRebuilt
	res.DegradedReads = res.Degraded.Volume.DegradedReads + res.Rebuild.Volume.DegradedReads
	res.DegradedWrites = res.Degraded.Volume.DegradedWrites + res.Rebuild.Volume.DegradedWrites
	return res, nil
}

// FormatFault renders the three windows.
func FormatFault(r FaultResult) string {
	var t table
	t.row("Window", "rt p50 us", "rt p99 us", "p99 vs base", "Kops/s", "degraded R", "degraded W", "rebuilt")
	rows := []struct {
		name string
		p    FaultPhase
		x    float64
	}{
		{"baseline", r.Baseline, 1},
		{"degraded", r.Degraded, r.DegradedX},
		{"rebuild", r.Rebuild, r.RebuildX},
	}
	for _, row := range rows {
		rt := realtimeClass(row.p.Sched)
		t.row(row.name, f1(rt.P50Us), f1(rt.P99Us), f2(row.x)+"x",
			f1(row.p.Sched.TotalOpsPerSec/1e3),
			fmt.Sprintf("%d", row.p.Volume.DegradedReads),
			fmt.Sprintf("%d", row.p.Volume.DegradedWrites),
			fmt.Sprintf("%d", row.p.Volume.PagesRebuilt))
	}
	head := fmt.Sprintf(
		"Fault scenario: node %d of %d killed mid-run on a mirrored volume, then rebuilt on Background\n"+
			"realtime p99 %.1f us baseline, %.1f us degraded (%.2fx), %.1f us during rebuild (%.2fx); %d pages rebuilt in %.1f ms\n",
		r.Config.KillNode, r.Config.Nodes,
		r.BaselineP99Us, r.DegradedP99Us, r.DegradedX, r.RebuildP99Us, r.RebuildX,
		r.PagesRebuilt, r.RebuildMs)
	return head + t.String()
}
