package experiments

import (
	"encoding/json"
	"testing"
)

// TestGCIsolation is the acceptance check for the GC-isolation
// experiment, on the full-size config BENCH_GC pins: write churn must
// force real garbage collection in both arms, all requests must
// complete, and GC-aware dispatch must leave realtime tail latency no
// worse than GC-oblivious dispatch. The ordering means something only
// when both windows did comparable GC work, so that premise is checked
// first: at -short the two arms' moves differ by up to 2x, and the
// ordering there goes either way with the seed.
func TestGCIsolation(t *testing.T) {
	e := record(t, "gc")
	_, v, err := e.Run(e.Params, false)
	if err != nil {
		t.Fatal(err)
	}
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
	if a, o := float64(r.Aware.Volume.GCMoves), float64(r.Oblivious.Volume.GCMoves); a > 1.15*o || o > 1.15*a {
		t.Fatalf("the arms did not do comparable GC work: %.0f moves GC-aware against %.0f GC-oblivious", a, o)
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
