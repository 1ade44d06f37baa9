package sched

import "repro/internal/sim"

// classAgg accumulates one QoS class's metrics.
type classAgg struct {
	lat       sim.Hist // one sample per completion
	errors    int64
	rejected  int64
	coalesced int64
	bytes     int64
}

// stats is the scheduler-wide metrics state.
type stats struct {
	eng         *sim.Engine
	start       sim.Time
	classes     [NumClasses]classAgg
	batches     int64
	batchedReqs int64
}

// reset zeroes every metric and starts the window at eng's current
// time.
func (st *stats) reset(eng *sim.Engine) {
	*st = stats{}
	st.eng, st.start = eng, eng.Now()
}

func (st *stats) class(cl Class) *classAgg { return &st.classes[cl] }

// ClassSnapshot is one QoS class's slice of a Snapshot. Latencies are
// virtual microseconds; throughput is over the snapshot window.
type ClassSnapshot struct {
	Class     string `json:"class"`
	Ops       int64  `json:"ops"`
	Errors    int64  `json:"errors"`
	Rejected  int64  `json:"rejected"`
	Coalesced int64  `json:"coalesced"`
	sim.Latency
	OpsPerSec float64 `json:"ops_per_sec"`
	MBps      float64 `json:"mbps"`
}

// Snapshot is the scheduler's aggregate metrics view, shaped for JSON
// emission by cmd/bluedbm-bench.
type Snapshot struct {
	ElapsedMs      float64         `json:"elapsed_ms"`
	TotalOps       int64           `json:"total_ops"`
	TotalOpsPerSec float64         `json:"total_ops_per_sec"`
	TotalMBps      float64         `json:"total_mbps"`
	Batches        int64           `json:"batches"`
	AvgBatch       float64         `json:"avg_batch"`
	Rejected       int64           `json:"rejected"`
	Coalesced      int64           `json:"coalesced"`
	PeakQueue      int             `json:"peak_queue"`
	Classes        []ClassSnapshot `json:"classes"`
}

// Snapshot reports metrics accumulated since New or the last
// ResetStats, with rates computed over elapsed virtual time.
func (s *Scheduler) Snapshot() Snapshot {
	elapsed := s.eng.Now() - s.stats.start
	secs := elapsed.Seconds()
	out := Snapshot{
		ElapsedMs: float64(elapsed) / float64(sim.Millisecond),
		Batches:   s.stats.batches,
	}
	var bytes int64
	for cl := 0; cl < NumClasses; cl++ {
		agg := &s.stats.classes[cl]
		cs := ClassSnapshot{
			Class:     Class(cl).String(),
			Ops:       int64(agg.lat.Count()),
			Errors:    agg.errors,
			Rejected:  agg.rejected,
			Coalesced: agg.coalesced,
			Latency:   agg.lat.Summary(),
		}
		if secs > 0 {
			cs.OpsPerSec = sim.Finite(float64(cs.Ops) / secs)
			cs.MBps = sim.Finite(float64(agg.bytes) / secs / 1e6)
		}
		out.TotalOps += cs.Ops
		out.Rejected += agg.rejected
		out.Coalesced += agg.coalesced
		bytes += agg.bytes
		out.Classes = append(out.Classes, cs)
	}
	if secs > 0 {
		out.TotalOpsPerSec = sim.Finite(float64(out.TotalOps) / secs)
		out.TotalMBps = sim.Finite(float64(bytes) / secs / 1e6)
	}
	if s.stats.batches > 0 {
		out.AvgBatch = sim.Finite(float64(s.stats.batchedReqs) / float64(s.stats.batches))
	}
	for _, nq := range s.nodes {
		if nq.peak > out.PeakQueue {
			out.PeakQueue = nq.peak
		}
	}
	return out
}

// ResetStats zeroes all metrics and restarts the rate window at the
// current virtual time. Use it to exclude warmup or seeding phases.
func (s *Scheduler) ResetStats() {
	s.stats.reset(s.eng)
	for _, nq := range s.nodes {
		nq.peak = nq.qlen
	}
}
