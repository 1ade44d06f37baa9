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

	"repro/internal/ftl"
	"repro/internal/sched"
	"repro/internal/volume"
	"repro/internal/workload"
)

// GCIsolationConfig sizes the experiment.
type GCIsolationConfig struct {
	Nodes    int    `json:"nodes"`
	Readers  int    `json:"readers"`  // realtime point-read streams
	Writers  int    `json:"writers"`  // batch churn-writer streams
	Depth    int    `json:"depth"`    // closed-loop outstanding per stream
	Requests int    `json:"requests"` // completions per stream
	Seed     uint64 `json:"seed"`

	Sched sched.Config `json:"sched"`
	FTL   ftl.Config   `json:"ftl"`
}

// DefaultGCIsolation returns the standard shape: a 2-node cluster
// whose volume is fully seeded, half the streams reading at realtime
// while the other half churns. short cuts request counts for smoke
// runs.
func DefaultGCIsolation(short bool) GCIsolationConfig {
	cfg := GCIsolationConfig{
		Nodes:    2,
		Readers:  8,
		Writers:  4,
		Depth:    4,
		Requests: 768,
		Seed:     42,
		Sched:    sched.DefaultConfig(),
		FTL:      ftl.Config{OverProvision: 0.25, GCLowWater: 4, WearLevelEvery: 64, GCPipeline: 16},
	}
	// The dispatcher must own the device window for QoS (and the GC
	// token budget) to act: with a window wider than the offered load,
	// contention moves into the per-card FIFOs where class is
	// invisible. 16 slots per node keeps the admission queue — where
	// priority and GC deferral act — as the contention point.
	cfg.Sched.MaxInflight = 16
	cfg.Sched.BatchSize = 16
	if short {
		cfg.Requests = 192
	}
	return cfg
}

// GCArm is one run (GC-aware or GC-oblivious).
type GCArm struct {
	Loop   workload.LoopResult `json:"loop"`
	Sched  sched.Snapshot      `json:"sched"`
	Volume volume.Stats        `json:"volume"`
}

// GCIsolationResult is the JSON-ready outcome.
type GCIsolationResult struct {
	Config    GCIsolationConfig `json:"config"`
	Aware     GCArm             `json:"gc_aware"`
	Oblivious GCArm             `json:"gc_oblivious"`

	// RealtimeP99*Us is each arm's realtime read tail latency under
	// identical offered load; ImprovementX is oblivious/aware.
	RealtimeP99AwareUs     float64 `json:"realtime_p99_aware_us"`
	RealtimeP99ObliviousUs float64 `json:"realtime_p99_oblivious_us"`
	ImprovementX           float64 `json:"p99_improvement_x"`
}

// runGCArm builds and seeds a fresh volume stack, warms it, then
// measures the probes+churn mix under the given GC dispatch policy.
func runGCArm(cfg GCIsolationConfig, gcDefer bool) (GCArm, error) {
	scfg := cfg.Sched
	scfg.GCDefer = gcDefer
	st, err := seeded(volumeSpec(cfg.Nodes, scfg, cfg.FTL), workload.RandomPages(cfg.Seed))
	if err != nil {
		return GCArm{}, err
	}
	w, err := warmThenMeasure(st, cfg.Depth, cfg.Requests, func(seedSalt uint64) ([]workload.ClientSpec, error) {
		return probesAndChurn(st, cfg.Readers, cfg.Writers, cfg.Seed, volSalt^seedSalt)
	})
	if err != nil {
		return GCArm{}, err
	}
	if w.Volume.GCMoves == 0 {
		return GCArm{}, fmt.Errorf("no garbage collection happened: the churn load is too light for the experiment to mean anything")
	}
	return GCArm{Loop: w.Run.Loop, Sched: w.Sched, Volume: w.Volume}, nil
}

// GCIsolation runs the same write-churn workload under GC-aware and
// GC-oblivious dispatch and compares realtime tail latency.
func GCIsolation(cfg GCIsolationConfig) (GCIsolationResult, error) {
	res := GCIsolationResult{Config: cfg}
	var err error
	if res.Aware, err = runGCArm(cfg, true); err != nil {
		return res, fmt.Errorf("gc-aware arm: %w", err)
	}
	if res.Oblivious, err = runGCArm(cfg, false); err != nil {
		return res, fmt.Errorf("gc-oblivious arm: %w", err)
	}
	res.RealtimeP99AwareUs = realtimeClass(res.Aware.Sched).P99Us
	res.RealtimeP99ObliviousUs = realtimeClass(res.Oblivious.Sched).P99Us
	res.ImprovementX = ratio(res.RealtimeP99ObliviousUs, res.RealtimeP99AwareUs)
	return res, nil
}

// FormatGCIsolation renders the comparison.
func FormatGCIsolation(r GCIsolationResult) string {
	var t table
	t.row("Dispatch", "rt p50 us", "rt p99 us", "Kops/s", "GC moves", "erases", "WA")
	rows := []struct {
		name string
		a    GCArm
	}{
		{"gc-aware", r.Aware},
		{"gc-oblivious", r.Oblivious},
	}
	for _, row := range rows {
		rt := realtimeClass(row.a.Sched)
		t.row(row.name, f1(rt.P50Us), f1(rt.P99Us),
			f1(row.a.Sched.TotalOpsPerSec/1e3),
			fmt.Sprintf("%d", row.a.Volume.GCMoves),
			fmt.Sprintf("%d", row.a.Volume.FlashErases),
			f2(row.a.Volume.WriteAmp))
	}
	head := fmt.Sprintf(
		"GC isolation: %d realtime readers + %d churn writers, %d nodes, logical volume over per-card FTLs\n"+
			"realtime p99 %.1f us (GC-aware) vs %.1f us (GC-oblivious): %.1fx better under identical load\n",
		r.Config.Readers, r.Config.Writers, r.Config.Nodes,
		r.RealtimeP99AwareUs, r.RealtimeP99ObliviousUs, r.ImprovementX)
	return head + t.String()
}
