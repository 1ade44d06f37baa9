package experiments

// The GC-isolation experiment: the canonical flash QoS scenario the
// volume layer exists for. Latency-class tenants do point reads while
// churn writers overwrite the logical space, forcing the per-card
// FTLs into steady-state garbage collection. The same offered load
// runs twice:
//
//   - GC-aware: the scheduler's Background token budget defers
//     relocation I/O while latency-class queues are hot and escalates
//     it as free-block headroom shrinks;
//   - GC-oblivious: Background dispatches unthrottled, so a
//     collection's pipelined relocation floods the device window and
//     realtime reads queue behind it at the flash.
//
// The headline number is the realtime-class p99 ratio between the two.

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/ftl"
	"repro/internal/sched"
	"repro/internal/workload"
)

// gcConfig sizes the experiment.
type gcConfig struct {
	Nodes    int    `json:"nodes"`
	Readers  int    `json:"readers"`  // realtime point-read streams
	Writers  int    `json:"writers"`  // batch churn-writer streams
	Depth    int    `json:"depth"`    // closed-loop outstanding per stream
	Requests int    `json:"requests"` // completions per stream
	Seed     uint64 `json:"seed"`

	Sched sched.Config `json:"sched"`
	FTL   ftl.Config   `json:"ftl"`
}

// defaultGCIsolation returns the standard shape: a 2-node cluster
// whose volume is fully seeded, half the streams reading at realtime
// while the other half churns. short cuts request counts for smoke
// runs.
func defaultGCIsolation(short bool) gcConfig {
	cfg := gcConfig{
		Nodes:    2,
		Readers:  8,
		Writers:  4,
		Depth:    4,
		Requests: 768,
		Seed:     42,
		Sched:    ownedWindow(),
		FTL:      ftl.Config{OverProvision: 0.25, GCLowWater: 4, WearLevelEvery: 64, GCPipeline: 16},
	}
	if short {
		cfg.Requests = 192
	}
	return cfg
}

// gcResult is the JSON-ready outcome.
type gcResult struct {
	Config    gcConfig     `json:"config"`
	Aware     volumeWindow `json:"gc_aware"`
	Oblivious volumeWindow `json:"gc_oblivious"`

	// RealtimeP99*Us is each arm's realtime read tail latency under
	// identical offered load; ImprovementX is oblivious/aware.
	RealtimeP99AwareUs     float64 `json:"realtime_p99_aware_us"`
	RealtimeP99ObliviousUs float64 `json:"realtime_p99_oblivious_us"`
	ImprovementX           float64 `json:"p99_improvement_x"`
}

// runGCArm builds and seeds a fresh volume stack, warms it, then
// measures the probes+churn mix under the given GC dispatch policy.
func runGCArm(p core.Params, cfg gcConfig, gcDefer bool) (volumeWindow, error) {
	scfg := cfg.Sched
	scfg.GCDefer = gcDefer
	st, err := seeded(volumeSpec(p, cfg.Nodes, scfg, cfg.FTL), workload.RandomPages(cfg.Seed))
	if err != nil {
		return volumeWindow{}, err
	}
	w, err := warmThenMeasure(st, cfg.Depth, cfg.Requests, func(seedSalt uint64) ([]workload.ClientSpec, error) {
		return probesAndChurn(st, cfg.Readers, cfg.Writers, cfg.Seed, volSalt^seedSalt)
	})
	if err != nil {
		return volumeWindow{}, err
	}
	if w.Volume.GCMoves == 0 {
		return volumeWindow{}, fmt.Errorf("no garbage collection happened: the churn load is too light for the experiment to mean anything")
	}
	return keep(w), nil
}

// gcIsolation runs the same write-churn workload under GC-aware and
// GC-oblivious dispatch and compares realtime tail latency.
func gcIsolation(p core.Params, cfg gcConfig) (gcResult, error) {
	res := gcResult{Config: cfg}
	var err error
	if res.Aware, err = runGCArm(p, cfg, true); err != nil {
		return res, fmt.Errorf("gc-aware arm: %w", err)
	}
	if res.Oblivious, err = runGCArm(p, cfg, false); err != nil {
		return res, fmt.Errorf("gc-oblivious arm: %w", err)
	}
	_, res.RealtimeP99AwareUs = classLatency(res.Aware.Sched, sched.Realtime)
	_, res.RealtimeP99ObliviousUs = classLatency(res.Oblivious.Sched, sched.Realtime)
	res.ImprovementX = ratio(res.RealtimeP99ObliviousUs, res.RealtimeP99AwareUs)
	return res, nil
}

// formatGCIsolation renders the comparison.
func formatGCIsolation(r gcResult) string {
	out := Rows{Title: fmt.Sprintf(
		"GC isolation: %d realtime readers + %d churn writers, %d nodes, logical volume over per-card FTLs\n"+
			"realtime p99 %.1f us (GC-aware) vs %.1f us (GC-oblivious): %.1fx better under identical load",
		r.Config.Readers, r.Config.Writers, r.Config.Nodes,
		r.RealtimeP99AwareUs, r.RealtimeP99ObliviousUs, r.ImprovementX),
		Key: "Dispatch", Cols: []Col{{"rt p50 us", "%.1f"}, {"rt p99 us", "%.1f"}, {"Kops/s", "%.1f"},
			{"GC moves", "%.0f"}, {"erases", "%.0f"}, {"WA", "%.2f"}}}
	names := []string{"gc-aware", "gc-oblivious"}
	for i, a := range []volumeWindow{r.Aware, r.Oblivious} {
		p50, p99 := classLatency(a.Sched, sched.Realtime)
		out.add(names[i], p50, p99, a.Sched.TotalOpsPerSec/1e3,
			float64(a.Volume.GCMoves), float64(a.Volume.FlashErases), a.Volume.WriteAmp)
	}
	return out.String()
}
