package experiments

import (
	"encoding/json"
	"testing"
)

// TestGCIsolationShort is the acceptance check for the GC-isolation
// experiment: write churn must force real garbage collection in both
// arms, all requests must complete, and GC-aware dispatch must leave
// realtime tail latency no worse than GC-oblivious dispatch.
func TestGCIsolationShort(t *testing.T) {
	_, v := shortRun(t, "gc")
	r := v.(gcResult)
	for name, arm := range map[string]volumeWindow{"aware": r.Aware, "oblivious": r.Oblivious} {
		if arm.Loop.Errors != 0 {
			t.Fatalf("%s: %d request errors", name, arm.Loop.Errors)
		}
		if arm.Volume.GCMoves == 0 || arm.Volume.FlashErases == 0 {
			t.Fatalf("%s: no garbage collection (moves=%d erases=%d)", name, arm.Volume.GCMoves, arm.Volume.FlashErases)
		}
		if arm.Volume.GCAborts != 0 {
			t.Fatalf("%s: %d aborted collections under a sustainable load", name, arm.Volume.GCAborts)
		}
	}
	if r.RealtimeP99AwareUs <= 0 || r.RealtimeP99ObliviousUs <= 0 {
		t.Fatalf("missing realtime percentiles: %+v", r)
	}
	if r.RealtimeP99AwareUs > r.RealtimeP99ObliviousUs {
		t.Fatalf("GC-aware dispatch made realtime p99 worse: %.1fus vs %.1fus",
			r.RealtimeP99AwareUs, r.RealtimeP99ObliviousUs)
	}
	if _, err := json.Marshal(r); err != nil {
		t.Fatal(err)
	}
}
