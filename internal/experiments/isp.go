package experiments

// The ISP-contention experiment: the QoS scenario the distributed
// in-store processing subsystem (internal/ispvol) exists for. A fleet
// of host tenant streams — realtime latency probes among them — reads
// the logical volume while distributed string-search queries scan a
// haystack striped over the same cards. The same offered load runs
// four ways:
//
//   - base:    host streams only — the no-ISP realtime p99 baseline;
//   - bypass:  queries read flash through the raw device interfaces,
//              invisible to the scheduler (the pre-fix bug path);
//   - isp-f:   queries admitted through the scheduler's Accel class
//              and token budget, then issued device-side (production);
//   - host-mediated: every haystack page crosses PCIe and is scanned
//              in host software at grep cost.
//
// The headline numbers: the isp-f arm beats host-mediated on query
// throughput while keeping realtime host p99 near the no-ISP
// baseline; the bypass arm shows what the scheduler fix prevents.

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/ftl"
	"repro/internal/ispvol"
	"repro/internal/sched"
	"repro/internal/workload"
)

// ispConfig sizes the experiment.
type ispConfig struct {
	Nodes        int    `json:"nodes"`
	HostStreams  int    `json:"host_streams"`  // concurrent host tenant streams
	QueryStreams int    `json:"query_streams"` // concurrent distributed queries
	QueryPages   int    `json:"query_pages"`   // logical pages per query scan
	Depth        int    `json:"depth"`         // closed-loop outstanding per host stream
	Requests     int    `json:"requests"`      // completions per primary host stream
	Needle       string `json:"needle"`
	Seed         uint64 `json:"seed"`

	Sched sched.Config  `json:"sched"`
	FTL   ftl.Config    `json:"ftl"`
	ISP   ispvol.Config `json:"isp"`
}

// defaultISPContention returns the standard shape: 32 host streams (a
// quarter of them realtime latency probes) sharing a 2-node volume
// with 4 concurrent distributed search queries. short cuts request
// counts and the query range for smoke runs.
func defaultISPContention(short bool) ispConfig {
	cfg := ispConfig{
		Nodes:        2,
		HostStreams:  32,
		QueryStreams: 4,
		// The query range must span the cards' chips (it is seeded
		// block-contiguous by the FTL frontiers), or the engines' chip
		// interleave has nothing to spread over.
		QueryPages: 2048,
		Depth:      4,
		Requests:   768,
		Needle:     "BlueDBM",
		Seed:       42,
		Sched:      ownedWindow(),
		FTL:        ftl.DefaultConfig(),
		ISP:        ispvol.DefaultConfig(),
	}
	// Hungry engines: each keeps 16 reads in flight. Under Accel
	// admission the token budget (half the 16-slot window) paces them
	// regardless; under Bypass the same demand hits the chips raw —
	// the full blast radius of the bug the scheduler fix contains.
	cfg.ISP.Window = 16
	if short {
		cfg.Requests = 192
		cfg.QueryPages = 1024
	}
	return cfg
}

// ispHaystack seeds deterministic random pages with the needle
// planted mid-page every 5th page and ACROSS the boundary between
// every 7k+3rd and 7k+4th page — adjacent logical pages live on
// different cards of the striped volume, so the committed benchmark
// itself exercises the distributed junction stitching.
func ispHaystack(seed uint64, needle []byte, ps int) workload.PageFiller {
	fill := workload.RandomPages(seed)
	split := len(needle) / 2
	return func(idx int, page []byte) {
		fill(idx, page)
		if len(needle) == 0 || len(needle) >= ps || split == 0 {
			return
		}
		if idx%5 == 2 {
			copy(page[ps/2:], needle)
		}
		if idx%7 == 3 {
			copy(page[ps-split:], needle[:split])
		}
		if idx%7 == 4 {
			copy(page, needle[split:])
		}
	}
}

// The arms, in run order; ispArms names them.
const (
	armBase = iota
	armBypass
	armISPF
	armHostMediated
)

var ispArms = []string{"base", "bypass", "isp-f", "host-mediated"}

// ispArm is one run's outcome.
type ispArm struct {
	Loop  workload.LoopResult `json:"loop"`
	Sched sched.Snapshot      `json:"sched"`

	Queries         int     `json:"queries"`
	QueryBytes      int64   `json:"query_bytes"`
	QueryMBps       float64 `json:"query_mbps"`
	MatchesPerQuery int64   `json:"matches_per_query"`
	RealtimeP50Us   float64 `json:"realtime_p50_us"`
	RealtimeP99Us   float64 `json:"realtime_p99_us"`
}

// ispResult is the JSON-ready outcome.
type ispResult struct {
	Config       ispConfig `json:"config"`
	Base         ispArm    `json:"base"`
	Bypass       ispArm    `json:"bypass"`
	ISPF         ispArm    `json:"isp_f"`
	HostMediated ispArm    `json:"host_mediated"`

	// QuerySpeedupX is isp-f query throughput over host-mediated at
	// identical offered host load.
	QuerySpeedupX float64 `json:"query_speedup_x"`
	// P99*X is each arm's realtime host p99 over the no-ISP baseline.
	P99ISPFX    float64 `json:"p99_ispf_vs_base_x"`
	P99BypassX  float64 `json:"p99_bypass_vs_base_x"`
	P99HostMedX float64 `json:"p99_hostmed_vs_base_x"`
}

// runISPArm builds a fresh cluster+scheduler+volume+ispvol, seeds the
// haystack, then measures the host mix with the arm's query load
// co-running for exactly the measurement window.
func runISPArm(p core.Params, cfg ispConfig, mode int) (ispArm, error) {
	spec := volumeSpec(p, cfg.Nodes, cfg.Sched, cfg.FTL)
	icfg := cfg.ISP
	if mode == armBypass {
		icfg.Admission = ispvol.Bypass
	}
	spec.ISP = &icfg
	st, err := workload.Build(spec)
	if err != nil {
		return ispArm{}, err
	}
	if cfg.QueryPages > st.V.Pages() {
		return ispArm{}, fmt.Errorf("query range %d exceeds the %d-page volume", cfg.QueryPages, st.V.Pages())
	}
	needle := []byte(cfg.Needle)
	if err := st.Seed(ispHaystack(cfg.Seed, needle, st.V.PageSize())); err != nil {
		return ispArm{}, err
	}
	specs, err := hostMix(st, cfg.HostStreams, cfg.Seed)
	if err != nil {
		return ispArm{}, err
	}
	var tally searchTally
	w, err := measure(st, specs, cfg.Depth, cfg.Requests, func(co *coRunner) {
		if mode != armBase {
			searchLoad(co, st.ISP, ispvol.Range(0, cfg.QueryPages), needle, placement(mode == armHostMediated), cfg.QueryStreams, &tally)
		}
	})
	if err != nil {
		return ispArm{}, err
	}
	if mode != armBase && tally.queries == 0 {
		return ispArm{}, fmt.Errorf("no %s query completed inside the host window; raise Requests or shrink QueryPages", ispArms[mode])
	}
	arm := ispArm{
		Loop: w.Run.Loop, Sched: w.Sched,
		Queries: tally.queries, QueryBytes: tally.bytes, MatchesPerQuery: tally.matches,
		QueryMBps: tally.mbps(w.Sched.ElapsedMs),
	}
	arm.RealtimeP50Us, arm.RealtimeP99Us = classLatency(w.Sched, sched.Realtime)
	return arm, nil
}

// ispContention runs the four arms on identical offered load and
// reports the cross-arm ratios. Query results are cross-validated:
// every arm's distributed/bypass/host-mediated scans must agree on
// the per-query match count, or the experiment fails.
func ispContention(p core.Params, cfg ispConfig) (ispResult, error) {
	res := ispResult{Config: cfg}
	for m, arm := range []*ispArm{&res.Base, &res.Bypass, &res.ISPF, &res.HostMediated} {
		var err error
		if *arm, err = runISPArm(p, cfg, m); err != nil {
			return res, fmt.Errorf("%s arm: %w", ispArms[m], err)
		}
	}
	if res.ISPF.MatchesPerQuery != res.Bypass.MatchesPerQuery ||
		res.ISPF.MatchesPerQuery != res.HostMediated.MatchesPerQuery {
		return res, fmt.Errorf("arms disagree on matches per query: isp-f %d, bypass %d, host-mediated %d",
			res.ISPF.MatchesPerQuery, res.Bypass.MatchesPerQuery, res.HostMediated.MatchesPerQuery)
	}
	res.QuerySpeedupX = ratio(res.ISPF.QueryMBps, res.HostMediated.QueryMBps)
	base := res.Base.RealtimeP99Us
	res.P99ISPFX, res.P99BypassX = ratio(res.ISPF.RealtimeP99Us, base), ratio(res.Bypass.RealtimeP99Us, base)
	res.P99HostMedX = ratio(res.HostMediated.RealtimeP99Us, base)
	return res, nil
}

// formatISPContention renders the comparison.
func formatISPContention(r ispResult) string {
	out := Rows{Title: fmt.Sprintf(
		"ISP contention: %d host streams + %d distributed search queries, %d nodes\n"+
			"query throughput %.1f MB/s (isp-f) vs %.1f MB/s (host-mediated): %.1fx\n"+
			"realtime host p99: %.2fx base under isp-f vs %.2fx base when ISP bypasses the scheduler",
		r.Config.HostStreams, r.Config.QueryStreams, r.Config.Nodes,
		r.ISPF.QueryMBps, r.HostMediated.QueryMBps, r.QuerySpeedupX,
		r.P99ISPFX, r.P99BypassX),
		Key: "Arm", Cols: []Col{{"rt p50 us", "%.1f"}, {"rt p99 us", "%.1f"}, {"p99 vs base", "%.2f"},
			{"queries", "%.0f"}, {"query MB/s", "%.1f"}, {"host Kops/s", "%.1f"}}}
	names := []string{"base (no ISP)", "bypass (bug)", "isp-f", "host-mediated"}
	vsBase := []float64{1, r.P99BypassX, r.P99ISPFX, r.P99HostMedX}
	for i, a := range []ispArm{r.Base, r.Bypass, r.ISPF, r.HostMediated} {
		out.add(names[i], a.RealtimeP50Us, a.RealtimeP99Us, vsBase[i],
			float64(a.Queries), a.QueryMBps, hostOpsPerSec(a.Sched)/1e3)
	}
	return out.String()
}
