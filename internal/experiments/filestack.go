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

	"repro/internal/blockfs"
	"repro/internal/core"
	"repro/internal/ftl"
	"repro/internal/ispvol"
	"repro/internal/rfs"
	"repro/internal/sched"
	"repro/internal/workload"
)

// fsConfig sizes the experiment.
type fsConfig struct {
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

// defaultFileStack returns the standard shape: a 2-node appliance
// (4096 flash pages), a one-stripe-round scan file, a churn file at
// ~60% combined utilization, and enough overwrites to keep the
// cleaner running for the whole window.
func defaultFileStack(short bool) fsConfig {
	cfg := fsConfig{
		Nodes:        2,
		ScanPages:    1024, // 64 chips x 16 pages: one full segment per chip
		ChurnPages:   1536,
		Overwrites:   2560,
		Depth:        8,
		Probes:       4,
		QueryStreams: 2,
		Needle:       "BlueDBM",
		Seed:         42,
		Sched:        ownedWindow(),
		RFS:          rfs.DefaultConfig(),
		FTL:          ftl.DefaultConfig(),
		ISP:          ispvol.DefaultConfig(),
	}
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

// fileArm is one run's outcome.
type fileArm struct {
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

// fsResult is the JSON-ready outcome.
type fsResult struct {
	Config     fsConfig `json:"config"`
	Blockfs    fileArm  `json:"blockfs"`
	RFS        fileArm  `json:"rfs"`
	RFSISP     fileArm  `json:"rfs_isp"`
	RFSHostMed fileArm  `json:"rfs_host_mediated"`

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

// The arms, in run order; fsArms names them.
const (
	fsArmBlockfs = iota
	fsArmRFS
	fsArmRFSISP
	fsArmRFSHostMed
)

var fsArms = []string{"blockfs", "rfs", "rfs+isp", "rfs+host-mediated"}

// pageFuncs adapts a file's page calls (or any pair of closures) to
// the driver's PageRW surface.
type pageFuncs struct {
	read  func(idx int, cb func([]byte, error))
	write func(idx int, data []byte, cb func(error))
}

func (p pageFuncs) Read(idx int, cb func([]byte, error))       { p.read(idx, cb) }
func (p pageFuncs) Write(idx int, data []byte, cb func(error)) { p.write(idx, data, cb) }

// fileChurn is the measured mix: one churn writer (uniform over the
// churn file; the window runs it cfg.Depth deep for cfg.Overwrites
// completions) plus cfg.Probes realtime point readers that stay live
// until the writer finishes.
func fileChurn(cfg fsConfig, writer, reader workload.PageRW) []workload.ClientSpec {
	specs := []workload.ClientSpec{{Name: "churn", RW: writer, Pick: workload.PickWrite(cfg.ChurnPages),
		Seed: cfg.Seed ^ 0xf11e57ac}}
	for p := 0; p < cfg.Probes; p++ {
		sp := probe(fmt.Sprintf("rt%02d", p), workload.PickRead(cfg.ChurnPages), cfg.Seed+uint64(p)*7919)
		sp.RW = reader
		specs = append(specs, sp)
	}
	return specs
}

// seedFiles creates and fills the arm's two files through create (the
// same population on both file systems): the scan file first, the
// churn file second.
func seedFiles[F interface {
	AppendPage(data []byte, cb func(error))
}](st *workload.Stack, cfg fsConfig, create func(name string) (F, error)) (scanF, churnF F, err error) {
	if scanF, err = create("scan"); err != nil {
		return
	}
	gen := ispHaystack(cfg.Seed, []byte(cfg.Needle), st.C.Params.PageSize())
	if err = st.SeedFile(scanF.AppendPage, cfg.ScanPages, gen); err != nil {
		return
	}
	if churnF, err = create("churn"); err != nil {
		return
	}
	err = st.SeedFile(churnF.AppendPage, cfg.ChurnPages, workload.RandomPages(cfg.Seed^1))
	return
}

// runBlockfsArm runs the compatibility path: blockfs formatted on a
// Batch-class stream of the logical volume, with realtime probes
// reading the churn file's logical pages directly at the Realtime
// class (blockfs allocates lowest-free LPNs, so the churn file is a
// known contiguous range).
func runBlockfsArm(p core.Params, cfg fsConfig) (fileArm, error) {
	st, err := workload.Build(volumeSpec(p, cfg.Nodes, cfg.Sched, cfg.FTL))
	if err != nil {
		return fileArm{}, err
	}
	v := st.V
	// +3: the format page and one inode-table page per file also live
	// in the logical space.
	if cfg.ScanPages+cfg.ChurnPages+3 > v.Pages() {
		return fileArm{}, fmt.Errorf("files (%d pages + 3 metadata) exceed the %d-page volume",
			cfg.ScanPages+cfg.ChurnPages, v.Pages())
	}
	dev, err := v.NewStream("blockfs", sched.Batch)
	if err != nil {
		return fileArm{}, err
	}
	_, churnF, err := seedFiles(st, cfg, blockfs.New(dev).Create)
	if err != nil {
		return fileArm{}, err
	}
	probes, err := v.NewStream("probe", sched.Realtime)
	if err != nil {
		return fileArm{}, err
	}
	// Probes point-read the churn file's actual device pages at the
	// Realtime class (blockfs's FIBMAP-style query; the file's LPNs
	// never move, so the map is computed once). Reading a fixed LPN
	// range instead would hit the metadata pages blockfs also keeps in
	// the logical space.
	churnLPNs := make([]int, cfg.ChurnPages)
	for i := range churnLPNs {
		if churnLPNs[i], err = churnF.PageLPN(i); err != nil {
			return fileArm{}, err
		}
	}
	w, err := measure(st, fileChurn(cfg, pageFuncs{write: churnF.WritePage},
		pageFuncs{read: func(idx int, cb func([]byte, error)) { probes.Read(churnLPNs[idx], cb) }}),
		cfg.Depth, cfg.Overwrites, nil)
	if err != nil {
		return fileArm{}, err
	}
	arm := fileArm{Sched: w.Sched, CleanMoves: w.Volume.GCMoves}
	arm.RealtimeP50Us, arm.RealtimeP99Us = classLatency(w.Sched, sched.Realtime)
	// Write amplification per page of FILE DATA written: the blockfs
	// arm's host writes include its metadata traffic (inode table,
	// journal commits), which is amplification from the file layer's
	// point of view, exactly like GC relocation is.
	arm.WriteAmp = float64(w.Volume.FlashPrograms) / float64(cfg.Overwrites)
	for i := 0; i < v.Cards(); i++ {
		arm.MappingEntries += v.FTL(i).MappingEntries()
	}
	return arm, nil
}

// runRFSArm runs one cluster-RFS arm: base (no queries), distributed
// ISP scans, or host-mediated scans.
func runRFSArm(p core.Params, cfg fsConfig, mode int) (fileArm, error) {
	p.Nodes = cfg.Nodes
	spec := workload.StackSpec{Params: p, Sched: cfg.Sched, RFS: &cfg.RFS, RFSCluster: cfg.RFSCluster}
	if mode != fsArmRFS {
		spec.ISP = &cfg.ISP
	}
	st, err := workload.Build(spec)
	if err != nil {
		return fileArm{}, err
	}
	fs := st.FS
	lay := fs.Backend().Layout()
	if cfg.ScanPages%(lay.Chips*lay.PagesPerSeg) != 0 {
		return fileArm{}, fmt.Errorf("scan file (%d pages) must be whole stripe rounds (%d) to stay clean-stable",
			cfg.ScanPages, lay.Chips*lay.PagesPerSeg)
	}
	// Scan file first: it fills exactly ScanPages/(chips*pagesPerSeg)
	// segments on every chip, all fully valid, so the cleaner never
	// relocates them and engine snapshots stay fresh.
	scanF, churnF, err := seedFiles(st, cfg, fs.Create)
	if err != nil {
		return fileArm{}, err
	}
	var tally searchTally
	w, err := measure(st, fileChurn(cfg, pageFuncs{write: churnF.At(sched.Batch).WritePage},
		pageFuncs{read: churnF.At(sched.Realtime).ReadPage}),
		cfg.Depth, cfg.Overwrites, func(co *coRunner) {
			if mode != fsArmRFS {
				searchLoad(co, st.ISP, ispvol.File(scanF), []byte(cfg.Needle), placement(mode == fsArmRFSHostMed), cfg.QueryStreams, &tally)
			}
		})
	if err != nil {
		return fileArm{}, err
	}
	if mode != fsArmRFS && tally.queries == 0 {
		return fileArm{}, fmt.Errorf("no %s query completed inside the churn window; raise Overwrites or shrink ScanPages", fsArms[mode])
	}
	if err := fs.CheckInvariants(); err != nil {
		return fileArm{}, err
	}
	arm := fileArm{
		Sched: w.Sched, CleanMoves: w.FSCleanMoves, MappingEntries: fs.LiveMappings(),
		Queries: tally.queries, QueryBytes: tally.bytes, MatchesPerQuery: tally.matches,
		QueryMBps: tally.mbps(w.Sched.ElapsedMs),
	}
	arm.WriteAmp = ratio(float64(w.FSWritten+w.FSCleanMoves), float64(w.FSWritten))
	arm.RealtimeP50Us, arm.RealtimeP99Us = classLatency(w.Sched, sched.Realtime)
	return arm, nil
}

// fileStack runs the four arms on identical offered load and reports
// the cross-arm ratios. The two query arms must agree on the per-query
// match count, or the experiment fails.
func fileStack(p core.Params, cfg fsConfig) (fsResult, error) {
	res := fsResult{Config: cfg}
	for m, arm := range []*fileArm{&res.Blockfs, &res.RFS, &res.RFSISP, &res.RFSHostMed} {
		var err error
		if m == fsArmBlockfs {
			*arm, err = runBlockfsArm(p, cfg)
		} else {
			*arm, err = runRFSArm(p, cfg, m)
		}
		if err != nil {
			return res, fmt.Errorf("%s arm: %w", fsArms[m], err)
		}
	}
	if res.RFSISP.MatchesPerQuery != res.RFSHostMed.MatchesPerQuery {
		return res, fmt.Errorf("query arms disagree on matches per query: isp %d, host-mediated %d",
			res.RFSISP.MatchesPerQuery, res.RFSHostMed.MatchesPerQuery)
	}
	res.WriteAmpRatioX = ratio(res.Blockfs.WriteAmp, res.RFS.WriteAmp)
	res.MappingRatioX = ratio(float64(res.Blockfs.MappingEntries), float64(res.RFS.MappingEntries))
	res.ScanSpeedupX = ratio(res.RFSISP.QueryMBps, res.RFSHostMed.QueryMBps)
	base := res.RFS.RealtimeP99Us
	res.P99ISPX, res.P99HostMedX = ratio(res.RFSISP.RealtimeP99Us, base), ratio(res.RFSHostMed.RealtimeP99Us, base)
	return res, nil
}

// formatFileStack renders the comparison.
func formatFileStack(r fsResult) string {
	out := Rows{Title: fmt.Sprintf(
		"File stack (Figure 8 end-to-end): scan %d + churn %d pages, %d overwrites, %d nodes\n"+
			"write amplification %.2f (blockfs-on-FTL) vs %.2f (cluster rfs): %.2fx; mapping %.0fx smaller\n"+
			"file scans %.1f MB/s distributed vs %.1f MB/s host-mediated: %.1fx, with realtime p99 %.2fx the no-ISP baseline",
		r.Config.ScanPages, r.Config.ChurnPages, r.Config.Overwrites, r.Config.Nodes,
		r.Blockfs.WriteAmp, r.RFS.WriteAmp, r.WriteAmpRatioX, r.MappingRatioX,
		r.RFSISP.QueryMBps, r.RFSHostMed.QueryMBps, r.ScanSpeedupX, r.P99ISPX),
		Key: "Arm", Cols: []Col{{"WA", "%.2f"}, {"map entries", "%.0f"}, {"rt p50 us", "%.1f"}, {"rt p99 us", "%.1f"},
			{"queries", "%.0f"}, {"scan MB/s", "%.1f"}}}
	names := []string{"blockfs on FTL", "cluster rfs", "rfs + isp scan", "rfs + host scan"}
	for i, a := range []fileArm{r.Blockfs, r.RFS, r.RFSISP, r.RFSHostMed} {
		out.add(names[i], a.WriteAmp, float64(a.MappingEntries), a.RealtimeP50Us, a.RealtimeP99Us,
			float64(a.Queries), a.QueryMBps)
	}
	return out.String()
}
