package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/workload"
)

// multiStreamConfig sizes the scheduler experiment: many concurrent
// tenant streams driving the cluster through internal/sched.
type multiStreamConfig struct {
	Nodes    int    `json:"nodes"`
	Streams  int    `json:"streams"`
	Depth    int    `json:"depth"`    // closed-loop outstanding per stream
	Requests int    `json:"requests"` // completions per stream
	Pages    int    `json:"pages"`    // seeded read region per node
	Seed     uint64 `json:"seed"`

	Sched sched.Config `json:"sched"`
}

// defaultMultiStream returns the standard experiment shape: 64
// streams over 4 nodes. short halves the cluster and cuts request
// counts for smoke runs (streams stay at 64 so the concurrency story
// is intact).
func defaultMultiStream(short bool) multiStreamConfig {
	cfg := multiStreamConfig{
		Nodes:    4,
		Streams:  64,
		Depth:    8,
		Requests: 192,
		Pages:    480,
		Seed:     42,
		Sched:    sched.DefaultConfig(),
	}
	if short {
		cfg.Nodes = 2
		cfg.Requests = 48
	}
	return cfg
}

// multiStreamResult is the JSON-ready outcome of one run.
type multiStreamResult struct {
	Config multiStreamConfig   `json:"config"`
	Loop   workload.LoopResult `json:"loop"`
	Sched  sched.Snapshot      `json:"sched"`
}

// multiStreamSpecs deals the streams — 1/8 realtime point reads, 3/8
// interactive, 4/8 batch — round-robin across nodes.
func multiStreamSpecs(cfg multiStreamConfig) []workload.StreamSpec {
	specs := make([]workload.StreamSpec, cfg.Streams)
	for i := range specs {
		specs[i] = dealStream(fmt.Sprintf("s%02d", i), i, i%cfg.Nodes, cfg.Seed+uint64(i)*7919)
	}
	return specs
}

// multiStream builds a cluster on p, seeds it, and drives cfg.Streams
// closed-loop streams through the scheduler.
func multiStream(p core.Params, cfg multiStreamConfig) (multiStreamResult, error) {
	st, err := physicalStack(p, cfg.Nodes, cfg.Pages, cfg.Seed, cfg.Sched)
	if err != nil {
		return multiStreamResult{}, err
	}
	res, err := workload.RunClosedLoop(st.S, st.C, multiStreamSpecs(cfg), cfg.Pages, cfg.Depth, cfg.Requests)
	if err != nil {
		return multiStreamResult{}, err
	}
	if res.Errors > 0 {
		return multiStreamResult{}, fmt.Errorf("multistream: %d request errors", res.Errors)
	}
	return multiStreamResult{Config: cfg, Loop: res, Sched: st.S.Snapshot()}, nil
}

// batchComparison contrasts the same multi-stream workload under
// three submission disciplines, isolating what batched flash I/O and
// deep queues buy (the paper's "thousands of requests in flight"
// claim, §3.3/§6.5).
type batchComparison struct {
	// Batched is the production scheduler: BatchSize-request
	// doorbells, MaxInflight-deep device window.
	Batched multiStreamResult `json:"batched"`
	// NoBatch keeps the deep device window but rings one doorbell per
	// request (BatchSize=1): every page pays the full software charge.
	NoBatch multiStreamResult `json:"nobatch"`
	// Depth1 is the naive host path: one request outstanding at a
	// time per node.
	Depth1 multiStreamResult `json:"depth1"`

	SpeedupVsNoBatch float64 `json:"speedup_vs_nobatch_x"`
	SpeedupVsDepth1  float64 `json:"speedup_vs_depth1_x"`
}

// compareBatching runs the three disciplines on identical workloads
// and reports throughput ratios.
func compareBatching(p core.Params, cfg multiStreamConfig) (batchComparison, error) {
	var cmp batchComparison
	var err error
	if cmp.Batched, err = multiStream(p, cfg); err != nil {
		return cmp, fmt.Errorf("batched: %w", err)
	}
	nb := cfg
	nb.Sched.BatchSize = 1
	if cmp.NoBatch, err = multiStream(p, nb); err != nil {
		return cmp, fmt.Errorf("nobatch: %w", err)
	}
	d1 := cfg
	d1.Sched.BatchSize = 1
	d1.Sched.MaxInflight = 1
	if cmp.Depth1, err = multiStream(p, d1); err != nil {
		return cmp, fmt.Errorf("depth1: %w", err)
	}
	cmp.SpeedupVsNoBatch = ratio(cmp.Batched.Sched.TotalOpsPerSec, cmp.NoBatch.Sched.TotalOpsPerSec)
	cmp.SpeedupVsDepth1 = ratio(cmp.Batched.Sched.TotalOpsPerSec, cmp.Depth1.Sched.TotalOpsPerSec)
	return cmp, nil
}

// formatMultiStream renders one run the way the figure formatters do.
func formatMultiStream(r multiStreamResult) string {
	out := Rows{Title: fmt.Sprintf(
		"Multi-stream scheduler: %d streams, %d nodes, depth %d, batch %d (%.1f avg)\n"+
			"total %.1f Kops/s  %.1f MB/s  in %s virtual  (%d coalesced, %d backpressure)",
		r.Config.Streams, r.Config.Nodes, r.Config.Depth, r.Config.Sched.BatchSize,
		r.Sched.AvgBatch, r.Sched.TotalOpsPerSec/1e3, r.Sched.TotalMBps,
		sim.Time(r.Sched.ElapsedMs*float64(sim.Millisecond)), r.Sched.Coalesced, r.Loop.Backpressure),
		Key: "Class", Cols: append([]Col{{"Ops", "%.0f"}}, cols("%.1f", "p50 us", "p99 us", "Kops/s", "MB/s")...)}
	for _, cs := range r.Sched.Classes {
		if cs.Ops > 0 {
			out.add(cs.Class, float64(cs.Ops), cs.P50Us, cs.P99Us, cs.OpsPerSec/1e3, cs.MBps)
		}
	}
	return out.String()
}

// formatBatchComparison renders the batched run, then the three-way
// comparison.
func formatBatchComparison(cmp batchComparison) string {
	out := Rows{Title: fmt.Sprintf("Scheduler submission disciplines (batched %.1fx vs nobatch, %.1fx vs depth1)",
		cmp.SpeedupVsNoBatch, cmp.SpeedupVsDepth1),
		Key: "Discipline", Cols: append(cols("%.0f", "Batch", "Window"), cols("%.1f", "Kops/s", "MB/s", "p99 us (rt)")...)}
	names := []string{"batched", "nobatch", "depth1"}
	for i, r := range []multiStreamResult{cmp.Batched, cmp.NoBatch, cmp.Depth1} {
		_, p99 := classLatency(r.Sched, sched.Realtime)
		out.add(names[i], float64(r.Config.Sched.BatchSize), float64(r.Config.Sched.MaxInflight),
			r.Sched.TotalOpsPerSec/1e3, r.Sched.TotalMBps, p99)
	}
	return formatMultiStream(cmp.Batched) + "\n" + out.String()
}
