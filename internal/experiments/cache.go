package experiments

// The cache-tier experiment: quantifies the host-DRAM cache above the
// logical volume (internal/cache) the way the paper's §7/Figure 21
// cost argument is framed — how much DRAM does it take to get DRAM
// latency, and what does each regime cost in watts?
//
// Two parts:
//
//   - Hit regimes: the same hot/cold read workload runs with the cache
//     off, then with per-node capacity covering 10% / 50% / 90% of the
//     hot set, then against a DRAM-cluster strawman (capacity covering
//     the whole working set). Latency is measured client-side — cache
//     hits never enter the flash scheduler, so the scheduler's own
//     histograms cannot see them. Perf-per-watt weighs each arm's
//     read throughput against its power budget: the flash arms at the
//     appliance's cluster budget (Table 3 scaled), the strawman at a
//     RAM-cloud budget sized to hold the same modeled dataset.
//
//   - Invalidation-heavy pair: cross-node writers churn a shared hot
//     region while sparse realtime probes read it, with the cache on
//     and off at identical offered load. Write-back makes every flush
//     broadcast invalidations, so this is the cache's worst case; the
//     headline is the probe p99 ratio (on/off), which must stay ~1.

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/ftl"
	"repro/internal/hostmodel"
	"repro/internal/power"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/volume"
	"repro/internal/workload"
)

// cacheConfig sizes the experiment.
type cacheConfig struct {
	Nodes       int     `json:"nodes"`
	Readers     int     `json:"readers"`      // hot/cold reader streams
	Depth       int     `json:"depth"`        // outstanding per reader
	Requests    int     `json:"requests"`     // completions per reader
	HotDivisor  int     `json:"hot_divisor"`  // hot set = volume pages / divisor
	HotFraction float64 `json:"hot_fraction"` // accesses landing in the hot set

	InvalWriters  int `json:"inval_writers"`  // cross-node churn writers
	InvalRequests int `json:"inval_requests"` // completions per writer

	// FlashGBPerNode is the modeled per-node flash capacity the power
	// comparison assumes (the simulated geometry is shrunk for run
	// time; power is argued at the appliance's real scale, as the
	// paper's Table 3 does).
	FlashGBPerNode int `json:"flash_gb_per_node"`

	Seed  uint64       `json:"seed"`
	Sched sched.Config `json:"sched"`
	FTL   ftl.Config   `json:"ftl"`
}

// defaultCacheTier returns the standard shape: a 4-node cluster, two
// readers per node, hot set an eighth of the volume. short cuts
// request counts for smoke runs.
func defaultCacheTier(short bool) cacheConfig {
	cfg := cacheConfig{
		Nodes:          4,
		Readers:        8,
		Depth:          4,
		Requests:       1024,
		HotDivisor:     8,
		HotFraction:    0.9,
		InvalWriters:   4,
		InvalRequests:  512,
		FlashGBPerNode: 1024,
		Seed:           42,
		Sched:          ownedWindow(),
		FTL:            ftl.DefaultConfig(),
	}
	if short {
		cfg.Nodes = 2
		cfg.Readers = 4
		cfg.Requests = 256
		cfg.InvalWriters = 2
		cfg.InvalRequests = 128
	}
	return cfg
}

// cacheRegimeArm is one hit-regime run.
type cacheRegimeArm struct {
	Name string `json:"name"`
	// CapacityFrac is per-node cache capacity as a fraction of the hot
	// set (0 = cache off, -1 = whole working set, the DRAM strawman).
	CapacityFrac  float64 `json:"capacity_frac"`
	CapacityPages int     `json:"capacity_pages_per_node"`

	Result workload.RunResult `json:"result"`
	Cache  cache.Stats        `json:"cache"`
	Host   hostmodel.Stats    `json:"host"`
	Volume volume.Stats       `json:"volume"`

	Watts      float64 `json:"watts"`
	KopsPerSec float64 `json:"kops_per_sec"`
	OpsPerSecW float64 `json:"ops_per_sec_per_watt"`
}

// cacheInvalArm is one side of the invalidation-heavy pair.
type cacheInvalArm struct {
	Name   string             `json:"name"`
	Result workload.RunResult `json:"result"`
	Cache  cache.Stats        `json:"cache"`
	P99Us  float64            `json:"probe_p99_us"`
}

// cacheResult is the JSON-ready outcome.
type cacheResult struct {
	Config  cacheConfig      `json:"config"`
	Regimes []cacheRegimeArm `json:"regimes"`

	// MeanReadImprovementX is off-mean / 90%-regime-mean: the headline
	// read-latency win from keeping 90% of the hot set DRAM-resident.
	MeanReadImprovementX float64 `json:"mean_read_improvement_x"`

	InvalOff cacheInvalArm `json:"inval_off"`
	InvalOn  cacheInvalArm `json:"inval_on"`
	// InvalidationP99RatioX is on/off probe p99 under the
	// invalidation-heavy write mix; ~1.0 means coherence is free at
	// the tail.
	InvalidationP99RatioX float64 `json:"invalidation_p99_ratio_x"`
}

// cacheCapacity maps a regime fraction onto per-node frame count.
func cacheCapacity(frac float64, hot, pages int) int {
	if frac < 0 {
		return pages
	}
	return max(int(frac*float64(hot)), 1)
}

// cacheArmStack builds and seeds a fresh volume stack and reports its
// hot-set size (the hot set and the cache capacity are fractions of
// the real, post-overprovision page count, so the cache is attached
// by the caller once that is known).
func cacheArmStack(p core.Params, cfg cacheConfig) (st *workload.Stack, hot int, err error) {
	st, err = seeded(volumeSpec(p, cfg.Nodes, cfg.Sched, cfg.FTL), workload.RandomPages(cfg.Seed))
	if err != nil {
		return nil, 0, err
	}
	return st, st.V.Pages() / cfg.HotDivisor, nil
}

// readerMix builds the hot/cold reader mix on the stack's top surface
// (one stream per reader, round-robin across nodes).
func readerMix(cfg cacheConfig, st *workload.Stack, hot int, seedSalt uint64) ([]workload.ClientSpec, error) {
	m := mix{st: st}
	for i := 0; i < cfg.Readers; i++ {
		m.add(workload.ClientSpec{
			Name:   fmt.Sprintf("rd%02d", i),
			Pick:   workload.PickHotCold(st.V.Pages(), hot, cfg.HotFraction, 0),
			Record: true,
			Seed:   (cfg.Seed ^ seedSalt + uint64(i)*1299709) ^ hotSalt,
		}, i%cfg.Nodes, sched.Interactive)
	}
	return m.specs, m.err
}

// runCacheRegime runs one hit-regime arm on a fresh stack.
func runCacheRegime(p core.Params, cfg cacheConfig, name string, frac float64) (cacheRegimeArm, error) {
	arm := cacheRegimeArm{Name: name, CapacityFrac: frac}
	st, hot, err := cacheArmStack(p, cfg)
	if err != nil {
		return arm, err
	}
	if frac != 0 {
		arm.CapacityPages = cacheCapacity(frac, hot, st.V.Pages())
		if err := st.AttachCache(cache.DefaultConfig(arm.CapacityPages)); err != nil {
			return arm, err
		}
	}
	// The warm-up populates the caches (and, with the cache off,
	// equalizes FTL state across arms).
	w, err := warmThenMeasure(st, cfg.Depth, cfg.Requests, func(seedSalt uint64) ([]workload.ClientSpec, error) {
		return readerMix(cfg, st, hot, seedSalt)
	})
	if err != nil {
		return arm, err
	}
	arm.Result, arm.Volume, arm.Host, arm.Cache = w.Run, w.Volume, w.Host, w.Cache
	// The readers only read, so every volume read of a cached arm is
	// one miss's fill: any other read is traffic nothing accounts for.
	if frac != 0 && w.Volume.HostReads != w.Cache.Misses {
		return arm, fmt.Errorf("%d volume reads against %d cache misses", w.Volume.HostReads, w.Cache.Misses)
	}
	if frac < 0 {
		// DRAM strawman: a RAM cloud holding the appliance's modeled
		// dataset (per-node flash capacity x nodes).
		arm.Watts = power.RAMCloudBudget(cfg.Nodes*cfg.FlashGBPerNode, 256).Total()
	} else {
		arm.Watts = power.ClusterBudget(cfg.Nodes, p.CardsPerNode).Total()
	}
	ops := ratio(float64(w.Run.Loop.Completed)*1e6, w.Run.ElapsedUs)
	arm.KopsPerSec, arm.OpsPerSecW = ops/1e3, ratio(ops, arm.Watts)
	return arm, nil
}

// invalMix builds the invalidation-heavy mix: churn writers over a
// shared hot region plus one sparse realtime probe per node.
func invalMix(cfg cacheConfig, st *workload.Stack, hot int, seedSalt uint64) ([]workload.ClientSpec, error) {
	m := mix{st: st}
	for i := 0; i < cfg.InvalWriters; i++ {
		m.add(workload.ClientSpec{
			Name:      fmt.Sprintf("wr%02d", i),
			Pick:      workload.PickUniform(hot, 1),
			Depth:     2,
			ThinkTime: 2 * sim.Millisecond,
			Seed:      (cfg.Seed ^ seedSalt + 7 + uint64(i)*15485863) ^ hotSalt,
		}, i%cfg.Nodes, sched.Interactive)
	}
	for i := 0; i < cfg.Nodes; i++ {
		sp := probe(fmt.Sprintf("rt%02d", i), workload.PickUniform(hot, 0),
			(cfg.Seed^seedSalt+13+uint64(i)*32452843)^hotSalt)
		sp.Record = true
		m.add(sp, i, sched.Realtime)
	}
	return m.specs, m.err
}

// runCacheInval runs one side of the invalidation pair.
func runCacheInval(p core.Params, cfg cacheConfig, cached bool) (cacheInvalArm, error) {
	arm := cacheInvalArm{Name: "cache-off"}
	st, hot, err := cacheArmStack(p, cfg)
	if err != nil {
		return arm, err
	}
	if cached {
		arm.Name = "cache-on"
		if err := st.AttachCache(cache.DefaultConfig(cacheCapacity(0.9, hot, 0))); err != nil {
			return arm, err
		}
	}
	w, err := warmThenMeasure(st, 2, cfg.InvalRequests, func(seedSalt uint64) ([]workload.ClientSpec, error) {
		return invalMix(cfg, st, hot, seedSalt)
	})
	if err != nil {
		return arm, err
	}
	arm.Result, arm.Cache, arm.P99Us = w.Run, w.Cache, w.Run.Combined.P99Us
	return arm, nil
}

// cacheTier runs the full experiment: hit-regime sweep plus the
// invalidation-heavy pair.
func cacheTier(p core.Params, cfg cacheConfig) (cacheResult, error) {
	res := cacheResult{Config: cfg}
	regimes := []struct {
		name string
		frac float64
	}{
		{"off", 0},
		{"hit10", 0.1},
		{"hit50", 0.5},
		{"hit90", 0.9},
		{"dram", -1},
	}
	for _, r := range regimes {
		arm, err := runCacheRegime(p, cfg, r.name, r.frac)
		if err != nil {
			return res, fmt.Errorf("regime %s: %w", r.name, err)
		}
		res.Regimes = append(res.Regimes, arm)
	}
	res.MeanReadImprovementX = ratio(regimeMeanUs(res, "off"), regimeMeanUs(res, "hit90"))
	var err error
	if res.InvalOff, err = runCacheInval(p, cfg, false); err != nil {
		return res, fmt.Errorf("inval cache-off: %w", err)
	}
	if res.InvalOn, err = runCacheInval(p, cfg, true); err != nil {
		return res, fmt.Errorf("inval cache-on: %w", err)
	}
	res.InvalidationP99RatioX = ratio(res.InvalOn.P99Us, res.InvalOff.P99Us)
	return res, nil
}

// formatCacheTier renders the comparison.
func formatCacheTier(r cacheResult) string {
	var t table
	t.row("Regime", "cap/hot", "hit rate", "mean us", "p99 us", "Kops/s", "W", "ops/s/W")
	for _, a := range r.Regimes {
		frac := "-"
		if a.CapacityFrac > 0 {
			frac = f2(a.CapacityFrac)
		} else if a.CapacityFrac < 0 {
			frac = "all"
		}
		t.row(a.Name, frac, f2(a.Cache.HitRate),
			f1(a.Result.Combined.MeanUs), f1(a.Result.Combined.P99Us),
			f1(a.KopsPerSec), f1(a.Watts), f2(a.OpsPerSecW))
	}
	head := fmt.Sprintf(
		"Cache tier: %d hot/cold readers, %d nodes, host-DRAM write-back cache above the volume\n"+
			"mean read latency %.1f us (off) vs %.1f us (90%% hot set resident): %.1fx better\n",
		r.Config.Readers, r.Config.Nodes,
		regimeMeanUs(r, "off"), regimeMeanUs(r, "hit90"), r.MeanReadImprovementX)
	inval := fmt.Sprintf(
		"\nInvalidation-heavy: %d cross-node writers on the shared hot set + realtime probes\n"+
			"probe p99 %.1f us (cache-on, %d invalidations) vs %.1f us (cache-off): %.2fx\n",
		r.Config.InvalWriters,
		r.InvalOn.P99Us, r.InvalOn.Cache.InvalidationsSent, r.InvalOff.P99Us,
		r.InvalidationP99RatioX)
	return head + t.String() + inval
}

// regimeMeanUs is the named regime arm's mean read latency (0 when
// the sweep has no such arm).
func regimeMeanUs(r cacheResult, name string) float64 {
	for _, a := range r.Regimes {
		if a.Name == name {
			return a.Result.Combined.MeanUs
		}
	}
	return 0
}
