package experiments

import (
	"fmt"

	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/workload"
)

// MultiStreamConfig sizes the scheduler experiment: many concurrent
// tenant streams driving the cluster through internal/sched.
type MultiStreamConfig struct {
	Nodes    int    `json:"nodes"`
	Streams  int    `json:"streams"`
	Depth    int    `json:"depth"`    // closed-loop outstanding per stream
	Requests int    `json:"requests"` // completions per stream
	Pages    int    `json:"pages"`    // seeded read region per node
	Seed     uint64 `json:"seed"`

	Sched sched.Config `json:"sched"`
}

// DefaultMultiStream returns the standard experiment shape: 64
// streams over 4 nodes. short halves the cluster and cuts request
// counts for smoke runs (streams stay at 64 so the concurrency story
// is intact).
func DefaultMultiStream(short bool) MultiStreamConfig {
	cfg := MultiStreamConfig{
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

// MultiStreamResult is the JSON-ready outcome of one run.
type MultiStreamResult struct {
	Config MultiStreamConfig   `json:"config"`
	Loop   workload.LoopResult `json:"loop"`
	Sched  sched.Snapshot      `json:"sched"`
}

// multiStreamSpecs deals dealStream's classes and patterns across the
// streams — 1/8 realtime point reads, 3/8 interactive, 4/8 batch —
// issued round-robin across nodes and addressed across the whole
// cluster.
func multiStreamSpecs(cfg MultiStreamConfig) []workload.StreamSpec {
	specs := make([]workload.StreamSpec, cfg.Streams)
	for i := range specs {
		class, pattern := dealStream(i)
		specs[i] = workload.StreamSpec{
			Name: fmt.Sprintf("s%02d-%s-%s", i, class, pattern),
			Node: i % cfg.Nodes, Target: -1, Class: class, Pattern: pattern,
			Seed: cfg.Seed + uint64(i)*7919,
		}
	}
	return specs
}

// MultiStream builds a cluster, seeds it, and drives cfg.Streams
// closed-loop streams through the scheduler.
func MultiStream(cfg MultiStreamConfig) (MultiStreamResult, error) {
	st, err := physicalStack(cfg.Nodes, cfg.Pages, cfg.Seed, cfg.Sched)
	if err != nil {
		return MultiStreamResult{}, err
	}
	res, err := workload.RunClosedLoop(st.S, st.C, multiStreamSpecs(cfg), cfg.Pages, cfg.Depth, cfg.Requests)
	if err != nil {
		return MultiStreamResult{}, err
	}
	if res.Errors > 0 {
		return MultiStreamResult{}, fmt.Errorf("multistream: %d request errors", res.Errors)
	}
	return MultiStreamResult{Config: cfg, Loop: res, Sched: st.S.Snapshot()}, nil
}

// BatchComparison contrasts the same multi-stream workload under
// three submission disciplines, isolating what batched flash I/O and
// deep queues buy (the paper's "thousands of requests in flight"
// claim, §3.3/§6.5).
type BatchComparison struct {
	// Batched is the production scheduler: BatchSize-request
	// doorbells, MaxInflight-deep device window.
	Batched MultiStreamResult `json:"batched"`
	// NoBatch keeps the deep device window but rings one doorbell per
	// request (BatchSize=1): every page pays the full software charge.
	NoBatch MultiStreamResult `json:"nobatch"`
	// Depth1 is the naive host path: one request outstanding at a
	// time per node.
	Depth1 MultiStreamResult `json:"depth1"`

	SpeedupVsNoBatch float64 `json:"speedup_vs_nobatch_x"`
	SpeedupVsDepth1  float64 `json:"speedup_vs_depth1_x"`
}

// MultiStreamBatchComparison runs the three disciplines on identical
// workloads and reports throughput ratios.
func MultiStreamBatchComparison(cfg MultiStreamConfig) (BatchComparison, error) {
	var cmp BatchComparison
	var err error
	if cmp.Batched, err = MultiStream(cfg); err != nil {
		return cmp, fmt.Errorf("batched: %w", err)
	}
	nb := cfg
	nb.Sched.BatchSize = 1
	if cmp.NoBatch, err = MultiStream(nb); err != nil {
		return cmp, fmt.Errorf("nobatch: %w", err)
	}
	d1 := cfg
	d1.Sched.BatchSize = 1
	d1.Sched.MaxInflight = 1
	if cmp.Depth1, err = MultiStream(d1); err != nil {
		return cmp, fmt.Errorf("depth1: %w", err)
	}
	cmp.SpeedupVsNoBatch = ratio(cmp.Batched.Sched.TotalOpsPerSec, cmp.NoBatch.Sched.TotalOpsPerSec)
	cmp.SpeedupVsDepth1 = ratio(cmp.Batched.Sched.TotalOpsPerSec, cmp.Depth1.Sched.TotalOpsPerSec)
	return cmp, nil
}

// FormatMultiStream renders one run the way the figure formatters do.
func FormatMultiStream(r MultiStreamResult) string {
	var t table
	t.row("Class", "Ops", "p50 us", "p99 us", "Kops/s", "MB/s")
	for _, cs := range r.Sched.Classes {
		if cs.Ops == 0 {
			continue
		}
		t.row(cs.Class, fmt.Sprintf("%d", cs.Ops), f1(cs.P50Us), f1(cs.P99Us),
			f1(cs.OpsPerSec/1e3), f1(cs.MBps))
	}
	head := fmt.Sprintf(
		"Multi-stream scheduler: %d streams, %d nodes, depth %d, batch %d (%.1f avg)\n"+
			"total %.1f Kops/s  %.1f MB/s  in %s virtual  (%d coalesced, %d backpressure)\n",
		r.Config.Streams, r.Config.Nodes, r.Config.Depth, r.Config.Sched.BatchSize,
		r.Sched.AvgBatch, r.Sched.TotalOpsPerSec/1e3, r.Sched.TotalMBps,
		sim.Time(r.Sched.ElapsedMs*float64(sim.Millisecond)), r.Sched.Coalesced, r.Loop.Backpressure)
	return head + t.String()
}

// FormatBatchComparison renders the three-way comparison.
func FormatBatchComparison(cmp BatchComparison) string {
	var t table
	t.row("Discipline", "Batch", "Window", "Kops/s", "MB/s", "p99 us (rt)")
	rows := []struct {
		name string
		r    MultiStreamResult
	}{
		{"batched", cmp.Batched},
		{"nobatch", cmp.NoBatch},
		{"depth1", cmp.Depth1},
	}
	for _, row := range rows {
		t.row(row.name,
			fmt.Sprintf("%d", row.r.Config.Sched.BatchSize),
			fmt.Sprintf("%d", row.r.Config.Sched.MaxInflight),
			f1(row.r.Sched.TotalOpsPerSec/1e3), f1(row.r.Sched.TotalMBps),
			f1(realtimeClass(row.r.Sched).P99Us))
	}
	return fmt.Sprintf("Scheduler submission disciplines (batched %.1fx vs nobatch, %.1fx vs depth1)\n",
		cmp.SpeedupVsNoBatch, cmp.SpeedupVsDepth1) + t.String()
}
