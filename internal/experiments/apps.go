package experiments

// The distributed-applications experiment: the paper's two flagship
// workloads — LSH nearest-neighbor search (§7.1, Figures 16-19) and
// pointer-chasing graph traversal (§7.2, Figure 20) — promoted from
// single-node, hand-fed microbenchmarks to cluster-scale queries over
// the full PR 1-4 stack (QoS scheduler, logical volume, fabric,
// ispvol engines), co-running with a realtime host foreground. Five
// arms on identical offered load:
//
//   - base:         host streams only — the app-free realtime p99
//                   baseline;
//   - nn-dist:      distributed nearest-neighbor: LSH candidates
//                   partitioned by owning node, per-node engines
//                   Hamming-compare next to the flash (Accel class),
//                   only per-node bests cross the network;
//   - nn-host:      the same candidate lists hauled over PCIe and
//                   compared in host software;
//   - walk-migrate: in-store traversal whose walker state migrates to
//                   the data (one local flash read + a ~56-byte state
//                   hop per lookup);
//   - walk-home:    the same walks from a fixed home node over the
//                   H-RH-F access path (remote host + full page over
//                   the network per lookup), Figure 20's generic
//                   distributed-SSD bar.
//
// Every arm's results are cross-validated: NN answers against the
// in-memory brute force (including tie-breaks), traversal VisitSums
// against graph.ReferenceWalkWalker — so the speedups cannot come
// from walking different vertices or comparing different candidates.

import (
	"fmt"

	"repro/internal/accel/graph"
	"repro/internal/accel/lsh"
	"repro/internal/core"
	"repro/internal/ftl"
	"repro/internal/ispvol"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/workload"
)

// appsConfig sizes the experiment.
type appsConfig struct {
	Nodes       int `json:"nodes"`
	HostStreams int `json:"host_streams"` // concurrent host tenant streams
	Depth       int `json:"depth"`        // closed-loop outstanding per host stream
	Requests    int `json:"requests"`     // completions per primary host stream

	Items     int `json:"items"`      // NN dataset pages (item = one page)
	NNTables  int `json:"nn_tables"`  // LSH hash tables
	NNBits    int `json:"nn_bits"`    // sampled bits per hash
	NNStreams int `json:"nn_streams"` // concurrent NN query streams
	NNQueries int `json:"nn_queries"` // distinct query items cycled through

	Vertices  int `json:"vertices"` // graph adjacency pages
	AvgDegree int `json:"avg_degree"`
	Walkers   int `json:"walkers"`    // parallel walkers per traversal
	WalkSteps int `json:"walk_steps"` // dependent lookups per walker

	Seed uint64 `json:"seed"`

	Sched sched.Config  `json:"sched"`
	FTL   ftl.Config    `json:"ftl"`
	ISP   ispvol.Config `json:"isp"`
}

// defaultApps returns the standard shape: a 2-node appliance, 32 host
// streams (a quarter realtime probes), 4 NN query streams over a
// 256-item dataset, and 4-walker traversals over a 512-vertex graph.
// short cuts the host window for smoke runs.
func defaultApps(short bool) appsConfig {
	cfg := appsConfig{
		Nodes:       2,
		HostStreams: 32,
		Depth:       4,
		Requests:    768,
		Items:       256,
		NNTables:    8,
		NNBits:      6,
		NNStreams:   4,
		NNQueries:   4,
		Vertices:    512,
		AvgDegree:   8,
		Walkers:     4,
		WalkSteps:   64,
		Seed:        42,
		Sched:       ownedWindow(),
		FTL:         ftl.DefaultConfig(),
		ISP:         ispvol.DefaultConfig(),
	}
	if short {
		cfg.Requests = 192
	}
	return cfg
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// The arms, in run order; appsArms names them.
const (
	appsBase = iota
	appsNNDist
	appsNNHost
	appsWalkMigrate
	appsWalkHome
)

var appsArms = []string{"base", "nn-dist", "nn-host", "walk-migrate", "walk-home"}

// appsArm is one run's outcome.
type appsArm struct {
	Loop  workload.LoopResult `json:"loop"`
	Sched sched.Snapshot      `json:"sched"`

	RealtimeP50Us float64 `json:"realtime_p50_us"`
	RealtimeP99Us float64 `json:"realtime_p99_us"`

	// NN arms.
	NNQueries     int     `json:"nn_queries,omitempty"`
	Comparisons   int64   `json:"comparisons,omitempty"`
	CmpPerSec     float64 `json:"cmp_per_sec,omitempty"`
	CandsPerQuery int     `json:"cands_per_query,omitempty"`

	// Traversal arms.
	Walks         int     `json:"walks,omitempty"`
	Lookups       int64   `json:"lookups,omitempty"`
	LookupsPerSec float64 `json:"lookups_per_sec,omitempty"`
	Migrations    int64   `json:"migrations,omitempty"`
}

// appsResult is the JSON-ready outcome.
type appsResult struct {
	Config      appsConfig `json:"config"`
	Base        appsArm    `json:"base"`
	NNDist      appsArm    `json:"nn_dist"`
	NNHost      appsArm    `json:"nn_host"`
	WalkMigrate appsArm    `json:"walk_migrate"`
	WalkHome    appsArm    `json:"walk_home"`

	// NNSpeedupX is distributed NN comparison throughput over
	// host-mediated at identical offered host load.
	NNSpeedupX float64 `json:"nn_speedup_x"`
	// WalkSpeedupX is migrating-traversal lookups/sec over the
	// home-node H-RH-F path.
	WalkSpeedupX float64 `json:"walk_speedup_x"`
	// P99*X is each arm's realtime host p99 over the app-free baseline.
	P99NNDistX      float64 `json:"p99_nn_dist_vs_base_x"`
	P99NNHostX      float64 `json:"p99_nn_host_vs_base_x"`
	P99WalkMigrateX float64 `json:"p99_walk_migrate_vs_base_x"`
	P99WalkHomeX    float64 `json:"p99_walk_home_vs_base_x"`
}

// appsStack is one arm's freshly built world.
type appsStack struct {
	*workload.Stack
	g       *graph.Graph
	queries []nnQuery
}

// nnQuery is one distinct NN query: the item, its LSH candidate ids
// and their volume pages, and the brute-force answer.
type nnQuery struct {
	item             []byte
	cands, lpns      []int
	bestID, bestDist int
}

// Volume layout: dataset slot k (NN items first, then graph
// adjacency pages) lives at logical page k*stride, striding the
// datasets across the WHOLE logical space. Packing them contiguously
// would let the FTL frontiers land every item in the first couple of
// blocks — two hot chips per card — and the engines' candidate reads
// would convoy there while fifteen chips idle, taking the realtime
// probes that hit those chips with them. Striding spreads the
// dataset like the scan experiments' full-range queries do. The rest
// is filler the host streams churn through; everything is read-only
// for the measurement window, so the physical-address snapshots the
// queries take stay valid.
func buildAppsStack(p core.Params, cfg appsConfig) (*appsStack, error) {
	spec := volumeSpec(p, cfg.Nodes, cfg.Sched, cfg.FTL)
	spec.ISP = &cfg.ISP
	stack, err := workload.Build(spec)
	if err != nil {
		return nil, err
	}
	c, v := stack.C, stack.V
	if cfg.Items+cfg.Vertices > v.Pages() {
		return nil, fmt.Errorf("apps: %d items + %d vertices exceed the %d-page volume",
			cfg.Items, cfg.Vertices, v.Pages())
	}
	ps := v.PageSize()
	items, _, err := workload.NearDuplicateSet(cfg.Items, ps, 7, 40, cfg.Seed)
	if err != nil {
		return nil, err
	}
	gcfg := graph.Config{Vertices: cfg.Vertices, AvgDegree: cfg.AvgDegree, Seed: cfg.Seed + 1}
	adj := graph.GenAdjacency(gcfg, ps)
	base := workload.RandomPages(cfg.Seed + 2)
	total := cfg.Items + cfg.Vertices
	stride := v.Pages() / total
	// The volume stripes lpn -> card lpn%cards, so the stride must be
	// coprime with the card count or every dataset slot would alias
	// onto the same card subset (and a graph living on one node never
	// migrates a walker).
	for stride > 1 && gcd(stride, v.Cards()) != 1 {
		stride--
	}
	slotLpn := func(slot int) int { return slot * stride }
	fill := func(idx int, page []byte) {
		if idx%stride == 0 && idx/stride < total {
			slot := idx / stride
			if slot < cfg.Items {
				copy(page, items[slot])
				return
			}
			enc, err := graph.EncodePage(adj[slot-cfg.Items], ps)
			if err != nil {
				panic(err)
			}
			copy(page, enc)
			return
		}
		base(idx, page)
	}
	if err := stack.Seed(fill); err != nil {
		return nil, err
	}
	// Stored graph: vertex vx's page is volume lpn slotLpn(Items+vx),
	// resolved to wherever the FTLs placed it.
	addrs := make([]core.PageAddr, cfg.Vertices)
	for vx := range addrs {
		a, err := v.Phys(slotLpn(cfg.Items + vx))
		if err != nil {
			return nil, err
		}
		addrs[vx] = a
	}
	g, err := graph.NewStored(c, gcfg, adj, addrs)
	if err != nil {
		return nil, err
	}

	// Host-side LSH index over the dataset; query items are noisy
	// near-duplicates drawn from the set itself, so candidate lists
	// are non-trivial and answers are interesting.
	ix, err := lsh.NewIndex(ps, cfg.NNTables, cfg.NNBits, cfg.Seed+3)
	if err != nil {
		return nil, err
	}
	for id := 0; id < cfg.Items; id++ {
		if err := ix.Add(id, items[id]); err != nil {
			return nil, err
		}
	}
	st := &appsStack{Stack: stack, g: g}
	rng := sim.NewRNG(cfg.Seed + 4)
	for qi := 0; qi < cfg.NNQueries; qi++ {
		q := append([]byte(nil), items[rng.Intn(cfg.Items)]...)
		// Flip a few bits so the query is near, not identical.
		for f := 0; f < 17; f++ {
			pos := rng.Intn(len(q) * 8)
			q[pos/8] ^= 1 << (uint(pos) % 8)
		}
		ids, err := ix.Candidates(q)
		if err != nil {
			return nil, err
		}
		if len(ids) == 0 {
			continue
		}
		cand := map[int][]byte{}
		for _, id := range ids {
			cand[id] = items[id]
		}
		bid, bd := lsh.NearestBrute(q, cand)
		lpns := make([]int, len(ids))
		for i, id := range ids {
			lpns[i] = slotLpn(id)
		}
		st.queries = append(st.queries, nnQuery{q, ids, lpns, bid, bd})
	}
	if len(st.queries) == 0 {
		return nil, fmt.Errorf("apps: no query produced LSH candidates; loosen NNBits")
	}
	return st, nil
}

// runAppsArm builds a fresh stack and measures the host mix with the
// arm's application load co-running for exactly the host window.
func runAppsArm(p core.Params, cfg appsConfig, mode int) (appsArm, error) {
	st, err := buildAppsStack(p, cfg)
	if err != nil {
		return appsArm{}, err
	}
	var arm appsArm

	tcfg := graph.TraverseConfig{
		Start: 3, Steps: cfg.WalkSteps, Seed: cfg.Seed + 5,
		Walkers: cfg.Walkers, Mode: graph.ModeHRHF,
	}
	// The reference checksums every traversal arm must reproduce.
	wantSums := make([]uint64, cfg.Walkers)
	for w := range wantSums {
		wantSums[w] = graph.ReferenceWalkWalker(st.g, tcfg, w)
	}
	wantSum := graph.CombineVisitSums(wantSums)

	load := func(co *coRunner) {
		switch mode {
		case appsNNDist, appsNNHost:
			whole := ispvol.Range(0, st.V.Pages())
			for qs := 0; qs < cfg.NNStreams; qs++ {
				qi := qs % len(st.queries)
				co.chain(func(next func()) {
					q := st.queries[qi]
					st.ISP.NearestNeighbor(0, whole, q.item, q.cands, q.lpns, placement(mode == appsNNHost),
						func(res *ispvol.NNResult, err error) {
							switch {
							case err != nil:
							case res.FailedPages > 0:
								err = fmt.Errorf("%d NN candidate pages failed to read", res.FailedPages)
							case res.BestID != q.bestID || res.BestDist != q.bestDist:
								err = fmt.Errorf("%s query %d answered (%d, %d), brute force says (%d, %d)",
									appsArms[mode], qi, res.BestID, res.BestDist, q.bestID, q.bestDist)
							}
							if err != nil {
								co.fail(err)
								return
							}
							arm.NNQueries++
							arm.Comparisons += res.Comparisons
							qi = (qi + cfg.NNStreams) % len(st.queries)
							next()
						})
				})
			}
		case appsWalkMigrate:
			co.chain(func(next func()) {
				st.ISP.WalkMigrate(0, st.g, tcfg, func(res *ispvol.WalkResult, err error) {
					for w := 0; err == nil && w < len(wantSums); w++ {
						if res.VisitSums[w] != wantSums[w] {
							err = fmt.Errorf("migrating walker %d checksum %x != reference %x",
								w, res.VisitSums[w], wantSums[w])
						}
					}
					if err != nil {
						co.fail(err)
						return
					}
					arm.Walks++
					arm.Lookups += res.Steps
					arm.Migrations += res.Migrations
					next()
				})
			})
		case appsWalkHome:
			co.chain(func(next func()) {
				graph.TraverseAsync(st.C, 0, st.g, tcfg, func(res *graph.Result, err error) {
					if err == nil && res.VisitSum != wantSum {
						err = fmt.Errorf("home-node walk checksum %x != reference %x", res.VisitSum, wantSum)
					}
					if err != nil {
						co.fail(err)
						return
					}
					arm.Walks++
					arm.Lookups += res.Steps
					next()
				})
			})
		}
	}

	specs, err := hostMix(st.Stack, cfg.HostStreams, cfg.Seed)
	if err != nil {
		return appsArm{}, err
	}
	w, err := measure(st.Stack, specs, cfg.Depth, cfg.Requests, load)
	if err != nil {
		return appsArm{}, err
	}
	switch mode {
	case appsNNDist, appsNNHost:
		if arm.NNQueries == 0 {
			return appsArm{}, fmt.Errorf("no %s query completed inside the host window; raise Requests", appsArms[mode])
		}
	case appsWalkMigrate, appsWalkHome:
		if arm.Walks == 0 {
			return appsArm{}, fmt.Errorf("no %s traversal completed inside the host window; raise Requests or shrink WalkSteps", appsArms[mode])
		}
	}
	arm.Loop, arm.Sched = w.Run.Loop, w.Sched
	arm.RealtimeP50Us, arm.RealtimeP99Us = classLatency(w.Sched, sched.Realtime)
	secs := arm.Sched.ElapsedMs / 1e3
	arm.CmpPerSec, arm.LookupsPerSec = ratio(float64(arm.Comparisons), secs), ratio(float64(arm.Lookups), secs)
	if arm.NNQueries > 0 {
		arm.CandsPerQuery = int(arm.Comparisons / int64(arm.NNQueries))
	}
	return arm, nil
}

// apps runs the five arms on identical offered load and reports the
// cross-arm ratios. Every application answer is validated inline
// against the in-memory references; a wrong answer fails the
// experiment, not just the arm.
func apps(p core.Params, cfg appsConfig) (appsResult, error) {
	res := appsResult{Config: cfg}
	for m, arm := range []*appsArm{&res.Base, &res.NNDist, &res.NNHost, &res.WalkMigrate, &res.WalkHome} {
		var err error
		if *arm, err = runAppsArm(p, cfg, m); err != nil {
			return res, fmt.Errorf("%s arm: %w", appsArms[m], err)
		}
	}
	res.NNSpeedupX = ratio(res.NNDist.CmpPerSec, res.NNHost.CmpPerSec)
	res.WalkSpeedupX = ratio(res.WalkMigrate.LookupsPerSec, res.WalkHome.LookupsPerSec)
	base := res.Base.RealtimeP99Us
	res.P99NNDistX, res.P99NNHostX = ratio(res.NNDist.RealtimeP99Us, base), ratio(res.NNHost.RealtimeP99Us, base)
	res.P99WalkMigrateX, res.P99WalkHomeX = ratio(res.WalkMigrate.RealtimeP99Us, base), ratio(res.WalkHome.RealtimeP99Us, base)
	return res, nil
}

// formatApps renders the comparison.
func formatApps(r appsResult) string {
	var t table
	t.row("Arm", "rt p50 us", "rt p99 us", "p99 vs base", "work", "rate", "host Kops/s")
	rows := []struct {
		name string
		a    appsArm
		p99x float64
		work string
		rate string
	}{
		{"base (no apps)", r.Base, 1, "-", "-"},
		{"nn-dist", r.NNDist, r.P99NNDistX,
			fmt.Sprintf("%d queries", r.NNDist.NNQueries), fmt.Sprintf("%.0f cmp/s", r.NNDist.CmpPerSec)},
		{"nn-host", r.NNHost, r.P99NNHostX,
			fmt.Sprintf("%d queries", r.NNHost.NNQueries), fmt.Sprintf("%.0f cmp/s", r.NNHost.CmpPerSec)},
		{"walk-migrate", r.WalkMigrate, r.P99WalkMigrateX,
			fmt.Sprintf("%d walks", r.WalkMigrate.Walks), fmt.Sprintf("%.0f lookups/s", r.WalkMigrate.LookupsPerSec)},
		{"walk-home (H-RH-F)", r.WalkHome, r.P99WalkHomeX,
			fmt.Sprintf("%d walks", r.WalkHome.Walks), fmt.Sprintf("%.0f lookups/s", r.WalkHome.LookupsPerSec)},
	}
	for _, row := range rows {
		t.row(row.name, f1(row.a.RealtimeP50Us), f1(row.a.RealtimeP99Us),
			f2(row.p99x), row.work, row.rate,
			f1(hostOpsPerSec(row.a.Sched)/1e3))
	}
	head := fmt.Sprintf(
		"Distributed applications: %d host streams + NN/traversal queries, %d nodes\n"+
			"nearest-neighbor: %.0f cmp/s distributed vs %.0f cmp/s host-mediated: %.1fx\n"+
			"graph traversal: %.0f lookups/s migrating vs %.0f lookups/s home-node H-RH-F: %.1fx (%d state migrations)\n"+
			"realtime host p99 vs app-free base: %.2fx (nn-dist), %.2fx (walk-migrate)\n",
		r.Config.HostStreams, r.Config.Nodes,
		r.NNDist.CmpPerSec, r.NNHost.CmpPerSec, r.NNSpeedupX,
		r.WalkMigrate.LookupsPerSec, r.WalkHome.LookupsPerSec, r.WalkSpeedupX,
		r.WalkMigrate.Migrations,
		r.P99NNDistX, r.P99WalkMigrateX)
	return head + t.String()
}
