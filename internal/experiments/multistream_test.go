package experiments

import (
	"encoding/json"
	"testing"
)

// TestMultiStreamShort is the acceptance check for the scheduler
// experiment: 64 concurrent streams drive the cluster through
// internal/sched, every QoS class reports latency percentiles, and
// the result marshals to JSON.
func TestMultiStreamShort(t *testing.T) {
	_, v := shortRun(t, "sched")
	r := v.(batchComparison).Batched
	cfg := r.Config
	if cfg.Streams < 64 {
		t.Fatalf("experiment must drive >= 64 streams, has %d", cfg.Streams)
	}
	if r.Loop.Errors != 0 {
		t.Fatalf("%d request errors", r.Loop.Errors)
	}
	if want := int64(cfg.Streams * cfg.Requests); r.Sched.TotalOps < want {
		t.Fatalf("total ops %d < %d", r.Sched.TotalOps, want)
	}
	for _, cs := range r.Sched.Classes {
		if cs.Class == "background" || cs.Class == "accel" {
			// Housekeeping and ISP classes: this experiment drives no
			// FTL and no in-store engines, so neither has traffic.
			continue
		}
		if cs.Ops == 0 {
			t.Fatalf("class %s has no samples", cs.Class)
		}
		if cs.P50Us <= 0 || cs.P99Us < cs.P50Us {
			t.Fatalf("class %s percentiles inconsistent: p50=%v p99=%v", cs.Class, cs.P50Us, cs.P99Us)
		}
	}
	if r.Sched.TotalOpsPerSec <= 0 || r.Sched.TotalMBps <= 0 {
		t.Fatal("throughput not reported")
	}
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(b) == 0 {
		t.Fatal("empty JSON")
	}
}

// TestMultiStreamBatchingWins guards the headline comparison: batched
// submission must beat one-doorbell-per-request, which must beat
// depth-1, by clear margins.
func TestMultiStreamBatchingWins(t *testing.T) {
	if testing.Short() {
		t.Skip("three full runs")
	}
	_, v := shortRun(t, "sched")
	cmp := v.(batchComparison)
	if cmp.SpeedupVsNoBatch < 1.5 {
		t.Fatalf("batched only %.2fx vs nobatch", cmp.SpeedupVsNoBatch)
	}
	if cmp.SpeedupVsDepth1 < 3 {
		t.Fatalf("batched only %.2fx vs depth1", cmp.SpeedupVsDepth1)
	}
}
