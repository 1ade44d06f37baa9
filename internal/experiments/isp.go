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

	"repro/internal/ftl"
	"repro/internal/ispvol"
	"repro/internal/sched"
	"repro/internal/workload"
)

// ISPContentionConfig sizes the experiment.
type ISPContentionConfig struct {
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

// DefaultISPContention returns the standard shape: 32 host streams (a
// quarter of them realtime latency probes) sharing a 2-node volume
// with 4 concurrent distributed search queries. short cuts request
// counts and the query range for smoke runs.
func DefaultISPContention(short bool) ISPContentionConfig {
	cfg := ISPContentionConfig{
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
		Sched:      sched.DefaultConfig(),
		FTL:        ftl.DefaultConfig(),
		ISP:        ispvol.DefaultConfig(),
	}
	// Same rationale as the GC experiment: the dispatcher must own the
	// device window for class priority and the accel token budget to
	// act; 16 slots per node keeps admission the contention point.
	cfg.Sched.MaxInflight = 16
	cfg.Sched.BatchSize = 16
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

// ispArmMode selects one experiment arm.
type ispArmMode int

const (
	armBase ispArmMode = iota
	armBypass
	armISPF
	armHostMediated
)

func (m ispArmMode) String() string {
	switch m {
	case armBase:
		return "base"
	case armBypass:
		return "bypass"
	case armISPF:
		return "isp-f"
	case armHostMediated:
		return "host-mediated"
	default:
		return fmt.Sprintf("arm(%d)", int(m))
	}
}

// ISPArm is one run's outcome.
type ISPArm struct {
	Loop  workload.LoopResult `json:"loop"`
	Sched sched.Snapshot      `json:"sched"`

	Queries         int     `json:"queries"`
	QueryBytes      int64   `json:"query_bytes"`
	QueryMBps       float64 `json:"query_mbps"`
	MatchesPerQuery int64   `json:"matches_per_query"`
	RealtimeP50Us   float64 `json:"realtime_p50_us"`
	RealtimeP99Us   float64 `json:"realtime_p99_us"`
}

// ISPContentionResult is the JSON-ready outcome.
type ISPContentionResult struct {
	Config       ISPContentionConfig `json:"config"`
	Base         ISPArm              `json:"base"`
	Bypass       ISPArm              `json:"bypass"`
	ISPF         ISPArm              `json:"isp_f"`
	HostMediated ISPArm              `json:"host_mediated"`

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
func runISPArm(cfg ISPContentionConfig, mode ispArmMode) (ISPArm, error) {
	spec := volumeSpec(cfg.Nodes, cfg.Sched, cfg.FTL)
	icfg := cfg.ISP
	if mode == armBypass {
		icfg.Admission = ispvol.Bypass
	}
	spec.ISP = &icfg
	st, err := workload.Build(spec)
	if err != nil {
		return ISPArm{}, err
	}
	if cfg.QueryPages > st.V.Pages() {
		return ISPArm{}, fmt.Errorf("query range %d exceeds the %d-page volume", cfg.QueryPages, st.V.Pages())
	}
	needle := []byte(cfg.Needle)
	if err := st.Seed(ispHaystack(cfg.Seed, needle, st.V.PageSize())); err != nil {
		return ISPArm{}, err
	}
	placement := ispvol.InStore
	if mode == armHostMediated {
		placement = ispvol.HostMediated
	}
	specs, err := hostMix(st, cfg.HostStreams, cfg.Seed)
	if err != nil {
		return ISPArm{}, err
	}
	var tally searchTally
	w, err := measure(st, specs, cfg.Depth, cfg.Requests, func(co *coRunner) {
		if mode != armBase {
			searchLoad(co, st.ISP, ispvol.Range(0, cfg.QueryPages), needle, placement, cfg.QueryStreams, &tally)
		}
	})
	if err != nil {
		return ISPArm{}, err
	}
	if mode != armBase && tally.queries == 0 {
		return ISPArm{}, fmt.Errorf("no %v query completed inside the host window; raise Requests or shrink QueryPages", mode)
	}
	rt := realtimeClass(w.Sched)
	return ISPArm{
		Loop: w.Run.Loop, Sched: w.Sched,
		Queries: tally.queries, QueryBytes: tally.bytes, MatchesPerQuery: tally.matches,
		QueryMBps:     tally.mbps(w.Sched.ElapsedMs),
		RealtimeP50Us: rt.P50Us, RealtimeP99Us: rt.P99Us,
	}, nil
}

// ISPContention runs the four arms on identical offered load and
// reports the cross-arm ratios. Query results are cross-validated:
// every arm's distributed/bypass/host-mediated scans must agree on
// the per-query match count, or the experiment fails.
func ISPContention(cfg ISPContentionConfig) (ISPContentionResult, error) {
	res := ISPContentionResult{Config: cfg}
	for m, arm := range []*ISPArm{&res.Base, &res.Bypass, &res.ISPF, &res.HostMediated} {
		var err error
		if *arm, err = runISPArm(cfg, ispArmMode(m)); err != nil {
			return res, fmt.Errorf("%v arm: %w", ispArmMode(m), err)
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

// FormatISPContention renders the comparison.
func FormatISPContention(r ISPContentionResult) string {
	var t table
	t.row("Arm", "rt p50 us", "rt p99 us", "p99 vs base", "queries", "query MB/s", "host Kops/s")
	rows := []struct {
		name string
		a    ISPArm
		p99x float64
	}{
		{"base (no ISP)", r.Base, 1},
		{"bypass (bug)", r.Bypass, r.P99BypassX},
		{"isp-f", r.ISPF, r.P99ISPFX},
		{"host-mediated", r.HostMediated, r.P99HostMedX},
	}
	for _, row := range rows {
		t.row(row.name, f1(row.a.RealtimeP50Us), f1(row.a.RealtimeP99Us),
			f2(row.p99x), fmt.Sprintf("%d", row.a.Queries), f1(row.a.QueryMBps),
			f1(hostOpsPerSec(row.a.Sched)/1e3))
	}
	head := fmt.Sprintf(
		"ISP contention: %d host streams + %d distributed search queries, %d nodes\n"+
			"query throughput %.1f MB/s (isp-f) vs %.1f MB/s (host-mediated): %.1fx\n"+
			"realtime host p99: %.2fx base under isp-f vs %.2fx base when ISP bypasses the scheduler\n",
		r.Config.HostStreams, r.Config.QueryStreams, r.Config.Nodes,
		r.ISPF.QueryMBps, r.HostMediated.QueryMBps, r.QuerySpeedupX,
		r.P99ISPFX, r.P99BypassX)
	return head + t.String()
}
