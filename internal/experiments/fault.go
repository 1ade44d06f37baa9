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
// steady progress without starving realtime. The rebuild-mode p99 is
// taken over the requests that complete between the replace and the
// last page restored; the rest of that window is the post-rebuild tail.

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/ftl"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/workload"
)

// faultConfig sizes the fault-scenario experiment.
type faultConfig struct {
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

// defaultFault returns the standard shape: a 4-node mirrored cluster,
// realtime probes against churn writers, one node killed and rebuilt.
// short cuts request counts for smoke runs.
func defaultFault(short bool) faultConfig {
	cfg := faultConfig{
		Nodes:     4,
		Readers:   8,
		Writers:   4,
		Depth:     4,
		Requests:  768,
		Seed:      97,
		KillNode:  1,
		KillAfter: 500 * sim.Microsecond,
		Sched:     ownedWindow(),
		FTL:       ftl.Config{OverProvision: 0.25, GCLowWater: 4, WearLevelEvery: 64, GCPipeline: 16},
	}
	if short {
		cfg.Requests = 192
	}
	return cfg
}

// faultResult is the JSON-ready outcome.
type faultResult struct {
	Config   faultConfig  `json:"config"`
	Baseline volumeWindow `json:"baseline"`
	Degraded volumeWindow `json:"degraded"`
	// Rebuild's Sched covers the replace to the last page restored; its
	// Loop and Volume the whole window.
	Rebuild volumeWindow `json:"rebuild"`

	// Realtime read tail latency per window, and each fault window's
	// ratio to the no-fault baseline; PostRebuildP99Us is the rebuild
	// window's realtime p99 after the last page restored.
	BaselineP99Us    float64 `json:"realtime_p99_baseline_us"`
	DegradedP99Us    float64 `json:"realtime_p99_degraded_us"`
	RebuildP99Us     float64 `json:"realtime_p99_rebuild_us"`
	PostRebuildP99Us float64 `json:"realtime_p99_post_rebuild_us"`
	DegradedX        float64 `json:"degraded_p99_x"`
	RebuildX         float64 `json:"rebuild_p99_x"`

	// RebuildMs is the virtual time from replacing the node's cards to
	// the last page restored, with the foreground load still running.
	RebuildMs      float64 `json:"rebuild_ms"`
	PagesRebuilt   int64   `json:"pages_rebuilt"`
	DegradedReads  int64   `json:"degraded_reads"`
	DegradedWrites int64   `json:"degraded_writes"`
}

// fault runs the three-window fault scenario on one mirrored cluster.
func fault(p core.Params, cfg faultConfig) (faultResult, error) {
	res := faultResult{Config: cfg}
	if cfg.KillNode < 0 || cfg.KillNode >= cfg.Nodes {
		return res, fmt.Errorf("kill node %d out of range (%d nodes)", cfg.KillNode, cfg.Nodes)
	}
	spec := volumeSpec(p, cfg.Nodes, cfg.Sched, cfg.FTL)
	spec.Mirror = true
	st, err := seeded(spec, workload.RandomPages(cfg.Seed))
	if err != nil {
		return res, err
	}
	mixOf := func(seedSalt uint64) ([]workload.ClientSpec, error) {
		return probesAndChurn(st, cfg.Readers, cfg.Writers, cfg.Seed, volSalt^seedSalt)
	}
	// Every window offers the same load. The whole point of the mirror
	// is that a node loss is absorbed, not surfaced: a window fails on
	// any workload-visible error.
	phase := func(name string, w workload.Window, err error) (volumeWindow, error) {
		if err != nil {
			return volumeWindow{}, fmt.Errorf("%s window: %w", name, err)
		}
		return keep(w), nil
	}
	window := func(name string, inject func(*coRunner)) (volumeWindow, error) {
		specs, err := mixOf(0)
		if err != nil {
			return volumeWindow{}, err
		}
		w, err := measure(st, specs, cfg.Depth, cfg.Requests, inject)
		return phase(name, w, err)
	}

	// Window 1, after a warm-up toward steady-state churn: no fault.
	w, err := warmThenMeasure(st, cfg.Depth, cfg.Requests, mixOf)
	if res.Baseline, err = phase("baseline", w, err); err != nil {
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
	// event, so the window ends only after the rebuild completes. The
	// scheduler's view is cut where the rebuild completes: the window's
	// own snapshot is then the post-rebuild tail.
	var rebuildStart, rebuildEnd sim.Time
	var during sched.Snapshot
	if res.Rebuild, err = window("rebuild", func(co *coRunner) {
		rebuildStart = st.C.Eng.Now()
		if rerr := st.V.RebuildNode(cfg.KillNode, func() {
			rebuildEnd, during = st.C.Eng.Now(), st.S.Snapshot()
			st.S.ResetStats()
		}); rerr != nil {
			co.fail(rerr)
		}
	}); err != nil {
		return res, err
	}
	if rebuildEnd == 0 {
		return res, fmt.Errorf("rebuild window: rebuild: %w", sim.ErrUnfinished)
	}
	if st.V.Rebuilding() {
		return res, fmt.Errorf("rebuild window: volume still rebuilding after drain")
	}
	if res.Rebuild.Volume.PagesRebuilt == 0 {
		return res, fmt.Errorf("rebuild window: no pages rebuilt")
	}

	_, res.BaselineP99Us = classLatency(res.Baseline.Sched, sched.Realtime)
	_, res.DegradedP99Us = classLatency(res.Degraded.Sched, sched.Realtime)
	_, res.PostRebuildP99Us = classLatency(res.Rebuild.Sched, sched.Realtime)
	res.Rebuild.Sched = during
	_, res.RebuildP99Us = classLatency(during, sched.Realtime)
	res.DegradedX, res.RebuildX = ratio(res.DegradedP99Us, res.BaselineP99Us), ratio(res.RebuildP99Us, res.BaselineP99Us)
	res.RebuildMs = float64(rebuildEnd-rebuildStart) / float64(sim.Millisecond)
	res.PagesRebuilt = res.Rebuild.Volume.PagesRebuilt
	res.DegradedReads = res.Degraded.Volume.DegradedReads + res.Rebuild.Volume.DegradedReads
	res.DegradedWrites = res.Degraded.Volume.DegradedWrites + res.Rebuild.Volume.DegradedWrites
	return res, nil
}

// formatFault renders the three windows.
func formatFault(r faultResult) string {
	out := Rows{Title: fmt.Sprintf(
		"Fault scenario: node %d of %d killed mid-run on a mirrored volume, then rebuilt on Background\n"+
			"realtime p99 %.1f us baseline, %.1f us degraded (%.2fx), %.1f us during rebuild (%.2fx), %.1f us after it; %d pages rebuilt in %.1f ms",
		r.Config.KillNode, r.Config.Nodes,
		r.BaselineP99Us, r.DegradedP99Us, r.DegradedX, r.RebuildP99Us, r.RebuildX, r.PostRebuildP99Us,
		r.PagesRebuilt, r.RebuildMs),
		Key: "Window", Cols: []Col{{"rt p50 us", "%.1f"}, {"rt p99 us", "%.1f"}, {"p99 vs base", "%.2fx"}, {"Kops/s", "%.1f"},
			{"degraded R", "%.0f"}, {"degraded W", "%.0f"}, {"rebuilt", "%.0f"}}}
	names, vsBase := []string{"baseline", "degraded", "rebuild"}, []float64{1, r.DegradedX, r.RebuildX}
	for i, w := range []volumeWindow{r.Baseline, r.Degraded, r.Rebuild} {
		p50, p99 := classLatency(w.Sched, sched.Realtime)
		out.add(names[i], p50, p99, vsBase[i], w.Sched.TotalOpsPerSec/1e3,
			float64(w.Volume.DegradedReads), float64(w.Volume.DegradedWrites), float64(w.Volume.PagesRebuilt))
	}
	return out.String()
}
