package experiments

// The file-stack experiment: the paper's §4 architectural argument
// measured end-to-end at cluster scale, over the refactored rfs. The
// same file workload — a read-stable scan file plus a churn file being
// overwritten hard enough to force continuous cleaning, with realtime
// probe readers sharing the appliance — runs four ways:
//
//   - blockfs:  a conventional flash-oblivious file system on the
//               storage manager's logical volume (FTL-backed block
//               device): the compatibility path, paying the FTL's
//               write amplification and full-space mapping;
//   - rfs:      the cluster-wide RFS striping its log over every chip
//               of every card of every node, app I/O admitted through
//               the scheduler at the stream's class and cleaning on
//               the Background class — the no-ISP baseline;
//   - rfs+isp:  the same, plus distributed in-store scans over the
//               scan file (Figure 8 end-to-end: physical-address
//               query, per-node engines, Accel-class admission);
//   - rfs+host: the same queries host-mediated — every scanned page
//               crosses PCIe and is reduced in host software.
//
// Headline numbers: cluster-RFS write amplification and mapping
// footprint beat blockfs-on-FTL; distributed file scans beat the
// host-mediated file path while realtime host p99 stays near the
// no-ISP baseline.

import (
	"fmt"
	"math"

	"repro/internal/blockfs"
	"repro/internal/core"
	"repro/internal/ftl"
	"repro/internal/ispvol"
	"repro/internal/rfs"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/volume"
	"repro/internal/workload"
)

// FileStackConfig sizes the experiment.
type FileStackConfig struct {
	Nodes int `json:"nodes"`
	// ScanPages is the scan file's size. Sized to a whole stripe round
	// (chips * pages-per-segment) it fills exactly one segment on every
	// chip, so the cleaner never touches it and the engines' physical
	// address snapshots stay valid through churn.
	ScanPages int `json:"scan_pages"`
	// ChurnPages is the churn file's size (the overwrite working set).
	ChurnPages int `json:"churn_pages"`
	// Overwrites bounds the measurement window: churn writer
	// completions after seeding.
	Overwrites int `json:"overwrites"`
	// Depth is the churn writer's outstanding window.
	Depth int `json:"depth"`
	// Probes is the number of realtime point readers (depth 1, think
	// time 500 µs) alive for exactly the churn window.
	Probes int `json:"probes"`
	// QueryStreams is the number of concurrent scan queries in the ISP
	// arms.
	QueryStreams int    `json:"query_streams"`
	Needle       string `json:"needle"`
	Seed         uint64 `json:"seed"`

	Sched      sched.Config      `json:"sched"`
	RFS        rfs.Config        `json:"rfs"`
	RFSCluster rfs.ClusterConfig `json:"-"`
	FTL        ftl.Config        `json:"ftl"`
	ISP        ispvol.Config     `json:"isp"`
}

// fsParams shrinks flash capacity (like gcParams) so seeded
// files and repeated churn finish in seconds of wall-clock time.
func fsParams(nodes int) core.Params {
	p := core.DefaultParams(nodes)
	p.Geometry.ChipsPerBus = 2
	p.Geometry.BlocksPerChip = 4
	p.Geometry.PagesPerBlock = 16
	return p
}

// DefaultFileStack returns the standard shape: a 2-node appliance
// (4096 flash pages), a one-stripe-round scan file, a churn file at
// ~60% combined utilization, and enough overwrites to keep the
// cleaner running for the whole window.
func DefaultFileStack(short bool) FileStackConfig {
	cfg := FileStackConfig{
		Nodes:        2,
		ScanPages:    1024, // 64 chips x 16 pages: one full segment per chip
		ChurnPages:   1536,
		Overwrites:   2560,
		Depth:        8,
		Probes:       4,
		QueryStreams: 2,
		Needle:       "BlueDBM",
		Seed:         42,
		Sched:        sched.DefaultConfig(),
		RFS:          rfs.DefaultConfig(),
		FTL:          ftl.DefaultConfig(),
		ISP:          ispvol.DefaultConfig(),
	}
	// Same rationale as the GC and ISP experiments: the dispatcher must
	// own the device window for class priority and the token budgets to
	// act.
	cfg.Sched.MaxInflight = 16
	cfg.Sched.BatchSize = 16
	// Trigger cleaning at 8 free segments (128 pages cluster-wide) —
	// the same reserve the blockfs arm's FTLs keep (GCLowWater 2 blocks
	// on each of 4 cards), so neither stack gets a richer victim pool
	// by construction.
	cfg.RFS.CleanLowWater = 8
	// 4-page extents: temporally-adjacent churn shares segments (so
	// invalidations cluster and greedy cleaning finds good victims)
	// while a depth-8 writer still spreads over two chips. Measured on
	// this workload: extent 1 scatters each segment over ~1024 writes
	// of arrival time and costs WA 1.65; extent 4 gives WA ~1.26 at
	// realtime p99 still well under the blockfs arm's.
	cfg.RFS.StripeExtent = 4
	if short {
		cfg.Overwrites = 1024
	}
	return cfg
}

// FileArm is one run's outcome.
type FileArm struct {
	Sched sched.Snapshot `json:"sched"`

	// WriteAmp is flash programs per host page written over the churn
	// window (cleaning/GC relocation included).
	WriteAmp float64 `json:"write_amplification"`
	// MappingEntries is the page-mapping footprint at the end of the
	// run: FTL l2p entries (whole logical space) for the blockfs arm,
	// live backrefs for the rfs arms.
	MappingEntries int   `json:"mapping_entries"`
	CleanMoves     int64 `json:"clean_moves"`

	RealtimeP50Us float64 `json:"realtime_p50_us"`
	RealtimeP99Us float64 `json:"realtime_p99_us"`

	Queries         int     `json:"queries"`
	QueryBytes      int64   `json:"query_bytes"`
	QueryMBps       float64 `json:"query_mbps"`
	MatchesPerQuery int64   `json:"matches_per_query"`
}

// FileStackResult is the JSON-ready outcome.
type FileStackResult struct {
	Config     FileStackConfig `json:"config"`
	Blockfs    FileArm         `json:"blockfs"`
	RFS        FileArm         `json:"rfs"`
	RFSISP     FileArm         `json:"rfs_isp"`
	RFSHostMed FileArm         `json:"rfs_host_mediated"`

	// WriteAmpRatioX is blockfs WA over cluster-RFS WA (the §4 claim:
	// the flash-aware FS cleans more efficiently).
	WriteAmpRatioX float64 `json:"write_amp_blockfs_vs_rfs_x"`
	// MappingRatioX is blockfs mapping entries over RFS live mappings
	// (the memory half of the claim).
	MappingRatioX float64 `json:"mapping_blockfs_vs_rfs_x"`
	// ScanSpeedupX is distributed scan throughput over host-mediated.
	ScanSpeedupX float64 `json:"scan_speedup_x"`
	// P99*X is each query arm's realtime p99 over the no-ISP rfs arm.
	P99ISPX     float64 `json:"p99_isp_vs_base_x"`
	P99HostMedX float64 `json:"p99_hostmed_vs_base_x"`
}

// fsArmMode selects one experiment arm.
type fsArmMode int

const (
	fsArmBlockfs fsArmMode = iota
	fsArmRFS
	fsArmRFSISP
	fsArmRFSHostMed
)

func (m fsArmMode) String() string {
	switch m {
	case fsArmBlockfs:
		return "blockfs"
	case fsArmRFS:
		return "rfs"
	case fsArmRFSISP:
		return "rfs+isp"
	case fsArmRFSHostMed:
		return "rfs+host-mediated"
	default:
		return fmt.Sprintf("arm(%d)", int(m))
	}
}

// seedPager writes pages [0, n) with depth appends in flight. append
// must add page idx = current length (both FSes append in call
// order, so pipelining keeps content deterministic).
func seedPager(c *core.Cluster, n, depth, ps int, gen workload.PageFiller,
	appendPage func(data []byte, cb func(error))) error {
	var firstErr error
	next := 0
	var issue func()
	issue = func() {
		if next >= n {
			return
		}
		idx := next
		next++
		buf := make([]byte, ps)
		gen(idx, buf)
		appendPage(buf, func(err error) {
			if err != nil && firstErr == nil {
				firstErr = fmt.Errorf("seed page %d: %w", idx, err)
			}
			issue()
		})
	}
	for i := 0; i < depth && i < n; i++ {
		issue()
	}
	c.Run()
	return firstErr
}

// runFileChurn drives the measurement window: one churn writer
// (closed loop, cfg.Depth outstanding, cfg.Overwrites completions,
// uniform over the churn file) plus cfg.Probes realtime point readers
// (depth 1, 500 µs mean think time) that stay live until the writer
// finishes. concurrent (when non-nil) is invoked before the engine
// drains, with a live() probe — the hook the query arms schedule scan
// queries through.
func runFileChurn(c *core.Cluster, cfg FileStackConfig, ps int,
	write func(idx int, data []byte, cb func(error)),
	probeRead func(idx int, cb func([]byte, error)),
	concurrent func(live func() bool)) error {

	var firstErr error
	fail := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}

	writerLive := true
	wrng := sim.NewRNG(cfg.Seed ^ 0xf11e57ac)
	buf := make([]byte, ps)
	wrng.Bytes(buf)
	left := cfg.Overwrites
	inflight := 0
	var pump func()
	pump = func() {
		for inflight < cfg.Depth && left > 0 {
			left--
			inflight++
			idx := wrng.Intn(cfg.ChurnPages)
			write(idx, buf, func(err error) {
				fail(err)
				inflight--
				if left == 0 && inflight == 0 {
					writerLive = false
				}
				pump()
			})
		}
	}
	pump()

	for p := 0; p < cfg.Probes; p++ {
		rng := sim.NewRNG(cfg.Seed + uint64(p)*7919)
		think := func() sim.Time {
			ns := -math.Log(1-rng.Float64()) * float64(500*sim.Microsecond)
			if ns < 1 {
				ns = 1
			}
			return sim.Time(ns)
		}
		var probe func()
		probe = func() {
			if !writerLive {
				return
			}
			probeRead(rng.Intn(cfg.ChurnPages), func(_ []byte, err error) {
				fail(err)
				c.Eng.After(think(), probe)
			})
		}
		c.Eng.After(think(), probe)
	}

	if concurrent != nil {
		concurrent(func() bool { return writerLive })
	}
	c.Run()
	return firstErr
}

// stampRealtime copies the realtime class latencies out of a snapshot.
func (a *FileArm) stampRealtime() {
	rt := realtimeClass(a.Sched)
	a.RealtimeP50Us, a.RealtimeP99Us = rt.P50Us, rt.P99Us
}

// runBlockfsArm runs the compatibility path: blockfs formatted on a
// Batch-class stream of the logical volume, with realtime probes
// reading the churn file's logical pages directly at the Realtime
// class (blockfs allocates lowest-free LPNs, so the churn file is a
// known contiguous range).
func runBlockfsArm(cfg FileStackConfig) (FileArm, error) {
	c, err := core.NewCluster(fsParams(cfg.Nodes))
	if err != nil {
		return FileArm{}, err
	}
	s, err := sched.New(c, cfg.Sched)
	if err != nil {
		return FileArm{}, err
	}
	vcfg := volume.DefaultConfig()
	vcfg.FTL = cfg.FTL
	v, err := volume.New(c, s, vcfg)
	if err != nil {
		return FileArm{}, err
	}
	// +3: the format page and one inode-table page per file also live
	// in the logical space.
	if cfg.ScanPages+cfg.ChurnPages+3 > v.Pages() {
		return FileArm{}, fmt.Errorf("files (%d pages + 3 metadata) exceed the %d-page volume",
			cfg.ScanPages+cfg.ChurnPages, v.Pages())
	}
	dev, err := v.NewStream("blockfs", sched.Batch)
	if err != nil {
		return FileArm{}, err
	}
	bfs := blockfs.New(dev)
	ps := v.PageSize()

	// Same file population as the rfs arms: scan file first (LPNs
	// [0, ScanPages)), churn file second.
	scanF, err := bfs.Create("scan")
	if err != nil {
		return FileArm{}, err
	}
	gen := ispHaystack(cfg.Seed, []byte(cfg.Needle), ps)
	if err := seedPager(c, cfg.ScanPages, 64, ps, gen, scanF.AppendPage); err != nil {
		return FileArm{}, err
	}
	churnF, err := bfs.Create("churn")
	if err != nil {
		return FileArm{}, err
	}
	if err := seedPager(c, cfg.ChurnPages, 64, ps, workload.RandomPages(cfg.Seed^1), churnF.AppendPage); err != nil {
		return FileArm{}, err
	}

	probes, err := v.NewStream("probe", sched.Realtime)
	if err != nil {
		return FileArm{}, err
	}
	// Probes point-read the churn file's actual device pages at the
	// Realtime class (blockfs's FIBMAP-style query; the file's LPNs
	// never move, so the map is computed once). Reading a fixed LPN
	// range instead would hit the metadata pages blockfs also keeps in
	// the logical space.
	churnLPNs := make([]int, cfg.ChurnPages)
	for i := range churnLPNs {
		if churnLPNs[i], err = churnF.PageLPN(i); err != nil {
			return FileArm{}, err
		}
	}
	s.ResetStats()
	before := v.Stats()
	err = runFileChurn(c, cfg, ps,
		churnF.WritePage,
		func(idx int, cb func([]byte, error)) { probes.Read(churnLPNs[idx], cb) },
		nil)
	if err != nil {
		return FileArm{}, err
	}
	delta := v.Stats().Delta(before)
	var arm FileArm
	arm.Sched = s.Snapshot()
	arm.stampRealtime()
	// Write amplification per page of FILE DATA written: the blockfs
	// arm's host writes include its metadata traffic (inode table,
	// journal commits), which is amplification from the file layer's
	// point of view, exactly like GC relocation is.
	arm.WriteAmp = float64(delta.FlashPrograms) / float64(cfg.Overwrites)
	arm.CleanMoves = delta.GCMoves
	for i := 0; i < v.Cards(); i++ {
		arm.MappingEntries += v.FTL(i).MappingEntries()
	}
	return arm, nil
}

// runRFSArm runs one cluster-RFS arm: base (no queries), distributed
// ISP scans, or host-mediated scans.
func runRFSArm(cfg FileStackConfig, mode fsArmMode) (FileArm, error) {
	c, err := core.NewCluster(fsParams(cfg.Nodes))
	if err != nil {
		return FileArm{}, err
	}
	s, err := sched.New(c, cfg.Sched)
	if err != nil {
		return FileArm{}, err
	}
	fs, _, err := rfs.NewClusterFS(c, s, cfg.RFSCluster, cfg.RFS)
	if err != nil {
		return FileArm{}, err
	}
	lay := fs.Backend().Layout()
	if cfg.ScanPages%(lay.Chips*lay.PagesPerSeg) != 0 {
		return FileArm{}, fmt.Errorf("scan file (%d pages) must be whole stripe rounds (%d) to stay clean-stable",
			cfg.ScanPages, lay.Chips*lay.PagesPerSeg)
	}
	ps := fs.PageSize()

	// Scan file first: it fills exactly ScanPages/(chips*pagesPerSeg)
	// segments on every chip, all fully valid, so the cleaner never
	// relocates them and engine snapshots stay fresh.
	scanF, err := fs.Create("scan")
	if err != nil {
		return FileArm{}, err
	}
	gen := ispHaystack(cfg.Seed, []byte(cfg.Needle), ps)
	if err := seedPager(c, cfg.ScanPages, 64, ps, gen, scanF.AppendPage); err != nil {
		return FileArm{}, err
	}
	churnF, err := fs.Create("churn")
	if err != nil {
		return FileArm{}, err
	}
	if err := seedPager(c, cfg.ChurnPages, 64, ps, workload.RandomPages(cfg.Seed^1), churnF.AppendPage); err != nil {
		return FileArm{}, err
	}

	var sys *ispvol.System
	if mode != fsArmRFS {
		icfg := cfg.ISP
		sys, err = ispvol.New(c, s, nil, icfg)
		if err != nil {
			return FileArm{}, err
		}
	}

	s.ResetStats()
	wBefore, cmBefore := fs.PagesWritten, fs.CleanMoves
	writer := churnF.At(sched.Batch)
	probe := churnF.At(sched.Realtime)

	var arm FileArm
	var queryErr error
	matchesSet := false
	needle := []byte(cfg.Needle)
	placement := ispvol.InStore
	if mode == fsArmRFSHostMed {
		placement = ispvol.HostMediated
	}
	concurrent := func(live func() bool) {
		if mode != fsArmRFSISP && mode != fsArmRFSHostMed {
			return
		}
		for qs := 0; qs < cfg.QueryStreams; qs++ {
			var runQ func()
			done := func(res *ispvol.SearchResult, err error) {
				if err != nil {
					if queryErr == nil {
						queryErr = err
					}
					return
				}
				if res.FailedPages > 0 && queryErr == nil {
					queryErr = fmt.Errorf("%d query pages failed to read", res.FailedPages)
				}
				arm.Queries++
				arm.QueryBytes += res.Bytes
				n := int64(len(res.Matches))
				if !matchesSet {
					arm.MatchesPerQuery = n
					matchesSet = true
				} else if arm.MatchesPerQuery != n && queryErr == nil {
					queryErr = fmt.Errorf("query match counts diverge: %d vs %d", arm.MatchesPerQuery, n)
				}
				runQ()
			}
			runQ = func() {
				if !live() {
					return
				}
				sys.Search(0, ispvol.File(scanF), needle, placement, done)
			}
			runQ()
		}
	}

	err = runFileChurn(c, cfg, ps, writer.WritePage, probe.ReadPage, concurrent)
	if err != nil {
		return FileArm{}, err
	}
	if queryErr != nil {
		return FileArm{}, queryErr
	}
	if mode != fsArmRFS && arm.Queries == 0 {
		return FileArm{}, fmt.Errorf("no %v query completed inside the churn window; raise Overwrites or shrink ScanPages", mode)
	}
	if err := fs.CheckInvariants(); err != nil {
		return FileArm{}, err
	}

	hostWrites := fs.PagesWritten - wBefore
	moves := fs.CleanMoves - cmBefore
	if hostWrites > 0 {
		arm.WriteAmp = float64(hostWrites+moves) / float64(hostWrites)
	}
	arm.CleanMoves = moves
	arm.MappingEntries = fs.LiveMappings()
	arm.Sched = s.Snapshot()
	arm.stampRealtime()
	if secs := arm.Sched.ElapsedMs / 1e3; secs > 0 {
		arm.QueryMBps = float64(arm.QueryBytes) / secs / 1e6
	}
	return arm, nil
}

// FileStack runs the four arms on identical offered load and reports
// the cross-arm ratios. The two query arms must agree on the per-query
// match count, or the experiment fails.
func FileStack(cfg FileStackConfig) (FileStackResult, error) {
	res := FileStackResult{Config: cfg}
	var err error
	if res.Blockfs, err = runBlockfsArm(cfg); err != nil {
		return res, fmt.Errorf("blockfs arm: %w", err)
	}
	if res.RFS, err = runRFSArm(cfg, fsArmRFS); err != nil {
		return res, fmt.Errorf("rfs arm: %w", err)
	}
	if res.RFSISP, err = runRFSArm(cfg, fsArmRFSISP); err != nil {
		return res, fmt.Errorf("rfs+isp arm: %w", err)
	}
	if res.RFSHostMed, err = runRFSArm(cfg, fsArmRFSHostMed); err != nil {
		return res, fmt.Errorf("rfs+host-mediated arm: %w", err)
	}
	if res.RFSISP.MatchesPerQuery != res.RFSHostMed.MatchesPerQuery {
		return res, fmt.Errorf("query arms disagree on matches per query: isp %d, host-mediated %d",
			res.RFSISP.MatchesPerQuery, res.RFSHostMed.MatchesPerQuery)
	}
	if res.RFS.WriteAmp > 0 {
		res.WriteAmpRatioX = res.Blockfs.WriteAmp / res.RFS.WriteAmp
	}
	if res.RFS.MappingEntries > 0 {
		res.MappingRatioX = float64(res.Blockfs.MappingEntries) / float64(res.RFS.MappingEntries)
	}
	if t := res.RFSHostMed.QueryMBps; t > 0 {
		res.ScanSpeedupX = res.RFSISP.QueryMBps / t
	}
	if base := res.RFS.RealtimeP99Us; base > 0 {
		res.P99ISPX = res.RFSISP.RealtimeP99Us / base
		res.P99HostMedX = res.RFSHostMed.RealtimeP99Us / base
	}
	return res, nil
}

// FormatFileStack renders the comparison.
func FormatFileStack(r FileStackResult) string {
	var t table
	t.row("Arm", "WA", "map entries", "rt p50 us", "rt p99 us", "queries", "scan MB/s")
	rows := []struct {
		name string
		a    FileArm
	}{
		{"blockfs on FTL", r.Blockfs},
		{"cluster rfs", r.RFS},
		{"rfs + isp scan", r.RFSISP},
		{"rfs + host scan", r.RFSHostMed},
	}
	for _, row := range rows {
		t.row(row.name, f2(row.a.WriteAmp), fmt.Sprintf("%d", row.a.MappingEntries),
			f1(row.a.RealtimeP50Us), f1(row.a.RealtimeP99Us),
			fmt.Sprintf("%d", row.a.Queries), f1(row.a.QueryMBps))
	}
	head := fmt.Sprintf(
		"File stack (Figure 8 end-to-end): scan %d + churn %d pages, %d overwrites, %d nodes\n"+
			"write amplification %.2f (blockfs-on-FTL) vs %.2f (cluster rfs): %.2fx; mapping %.0fx smaller\n"+
			"file scans %.1f MB/s distributed vs %.1f MB/s host-mediated: %.1fx, with realtime p99 %.2fx the no-ISP baseline\n",
		r.Config.ScanPages, r.Config.ChurnPages, r.Config.Overwrites, r.Config.Nodes,
		r.Blockfs.WriteAmp, r.RFS.WriteAmp, r.WriteAmpRatioX, r.MappingRatioX,
		r.RFSISP.QueryMBps, r.RFSHostMed.QueryMBps, r.ScanSpeedupX, r.P99ISPX)
	return head + t.String()
}
