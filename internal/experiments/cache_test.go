package experiments

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// TestCacheTierShort: the smoke configuration must already show the
// tier's shape — hit rate rising with capacity, the committed
// acceptance bars (mean read latency ≥1.5x better at the 90% regime,
// probe p99 within 1.1x of cache-off under invalidation-heavy
// writes), and live coherence traffic.
func TestCacheTierShort(t *testing.T) {
	out, v := shortRun(t, "cache")
	res := v.(cacheResult)
	if len(res.Regimes) != 5 {
		t.Fatalf("%d regimes, want 5", len(res.Regimes))
	}
	byName := map[string]cacheRegimeArm{}
	for _, a := range res.Regimes {
		byName[a.Name] = a
	}
	if off := byName["off"]; off.Cache.Hits != 0 || off.CapacityPages != 0 {
		t.Fatalf("cache-off arm touched a cache: %+v", off.Cache)
	}
	if byName["hit90"].Cache.HitRate <= byName["hit10"].Cache.HitRate {
		t.Fatalf("hit rate not rising with capacity: hit10 %.2f vs hit90 %.2f",
			byName["hit10"].Cache.HitRate, byName["hit90"].Cache.HitRate)
	}
	if res.MeanReadImprovementX < 1.5 {
		t.Fatalf("mean read improvement %.2fx at the 90%% regime, want >= 1.5x",
			res.MeanReadImprovementX)
	}
	if res.InvalidationP99RatioX > 1.1 {
		t.Fatalf("invalidation-heavy probe p99 ratio %.2fx, want <= 1.1x",
			res.InvalidationP99RatioX)
	}
	if res.InvalOn.Cache.InvalidationsSent == 0 {
		t.Fatal("cache-on invalidation arm sent no invalidations")
	}
	if res.InvalOn.Cache.Flushes == 0 {
		t.Fatal("cache-on invalidation arm never flushed (write-back not exercised)")
	}
	// Perf-per-watt: the DRAM strawman must cost more watts than the
	// appliance arms, and the formatter must render every regime.
	if byName["dram"].Watts <= byName["hit90"].Watts {
		t.Fatalf("DRAM strawman watts %.0f not above appliance %.0f",
			byName["dram"].Watts, byName["hit90"].Watts)
	}
	for _, want := range []string{"off", "hit10", "hit50", "hit90", "dram", "ops/s/W"} {
		if !strings.Contains(out, want) {
			t.Fatalf("formatted output missing %q:\n%s", want, out)
		}
	}
}

// TestCacheTierDeterministic: two runs are byte-identical through
// JSON — the property that lets BENCH_CACHE.json be committed.
func TestCacheTierDeterministic(t *testing.T) {
	marshal := func(v any) []byte {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	_, first := shortRun(t, "cache")
	e := record(t, "cache")
	_, again, err := e.Run(e.Params, true)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(marshal(first), marshal(again)) {
		t.Fatal("the cache tier is nondeterministic across runs")
	}
}
