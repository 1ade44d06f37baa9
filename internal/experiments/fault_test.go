package experiments

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/sched"
)

// TestFaultShort is the acceptance check for the fault scenario: the
// node kill must produce degraded traffic with zero workload-visible
// errors, the rebuild must finish within the measured window and
// restore a nonzero page count, and the result must serialize.
func TestFaultShort(t *testing.T) {
	text, v := shortRun(t, "fault")
	r := v.(faultResult)
	for name, p := range map[string]volumeWindow{
		"baseline": r.Baseline, "degraded": r.Degraded, "rebuild": r.Rebuild,
	} {
		if p.Loop.Errors != 0 {
			t.Fatalf("%s: %d request errors leaked through the mirror", name, p.Loop.Errors)
		}
		if p.Loop.Completed == 0 {
			t.Fatalf("%s: no requests completed", name)
		}
	}
	if r.Baseline.Volume.DegradedReads != 0 || r.Baseline.Volume.DegradedWrites != 0 {
		t.Fatalf("baseline window saw degraded traffic: %+v", r.Baseline.Volume)
	}
	if r.DegradedReads == 0 || r.DegradedWrites == 0 {
		t.Fatalf("node kill produced no degraded traffic (reads=%d writes=%d)",
			r.DegradedReads, r.DegradedWrites)
	}
	if r.PagesRebuilt == 0 || r.RebuildMs <= 0 {
		t.Fatalf("rebuild did not run (pages=%d ms=%.2f)", r.PagesRebuilt, r.RebuildMs)
	}
	if r.BaselineP99Us <= 0 || r.DegradedP99Us <= 0 || r.RebuildP99Us <= 0 || r.PostRebuildP99Us <= 0 {
		t.Fatalf("missing realtime percentiles: %+v", r)
	}
	out, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(out), "pages_rebuilt") {
		t.Fatal("serialized result missing pages_rebuilt")
	}
	if !strings.Contains(text, "rebuild") {
		t.Fatalf("format output missing rebuild row:\n%s", text)
	}
}

// TestFaultRebuildHeadlineEndsAtRebuild: the rebuild headline's realtime
// samples are those of the replace to the last page restored, not of
// the drain after it, which the post-rebuild tail reports.
func TestFaultRebuildHeadlineEndsAtRebuild(t *testing.T) {
	_, v := shortRun(t, "fault")
	r := v.(faultResult)
	if got := r.Rebuild.Sched.ElapsedMs; got != r.RebuildMs {
		t.Errorf("the rebuild headline's samples span %.3f ms, the rebuild %.3f ms", got, r.RebuildMs)
	}
	if _, p99 := classLatency(r.Rebuild.Sched, sched.Realtime); p99 != r.RebuildP99Us {
		t.Errorf("realtime_p99_rebuild_us %.3f is not the rebuild span's realtime p99 %.3f", r.RebuildP99Us, p99)
	}
}
