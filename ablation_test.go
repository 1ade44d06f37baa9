package repro_test

// Ablation benchmarks for the design decisions the README's layer
// sections call out.
// Each reports the metric a designer would compare, so `go test
// -bench=Ablation` answers "what did this mechanism buy?".

import (
	"slices"
	"testing"

	"repro/internal/accel/tablescan"
	"repro/internal/blockfs"
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/flashctl"
	"repro/internal/flashserver"
	"repro/internal/ftl"
	"repro/internal/ispvol"
	"repro/internal/nand"
	"repro/internal/reclaim"
	"repro/internal/rfs"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/workload"
)

// streamGbps pushes msgs 2KB messages from node 0 to node 1 of a
// 2-node topology with `lanes` parallel cables, using `endpoints`
// logical endpoints, and returns aggregate Gbps.
func streamGbps(b *testing.B, cfg fabric.Config, lanes, endpoints, msgs int) float64 {
	b.Helper()
	eng := sim.NewEngine()
	topo := fabric.Topology{Name: "ab", Nodes: 2}
	for l := 0; l < lanes; l++ {
		topo.Edges = append(topo.Edges, [2]int{0, 1})
	}
	net, err := topo.Build(eng, cfg, endpoints)
	if err != nil {
		b.Fatal(err)
	}
	received := 0
	const size = 2048
	for ep := 0; ep < endpoints; ep++ {
		src, err := net.Node(0).BindEndpoint(ep)
		if err != nil {
			b.Fatal(err)
		}
		dst, err := net.Node(1).BindEndpoint(ep)
		if err != nil {
			b.Fatal(err)
		}
		dst.OnReceive = func(fabric.NodeID, int, any) { received++ }
		sent := 0
		var pump func()
		pump = func() {
			if sent >= msgs/endpoints {
				return
			}
			sent++
			if err := src.Send(1, size, nil, pump); err != nil {
				b.Fatal(err)
			}
		}
		for i := 0; i < 8; i++ {
			pump()
		}
	}
	eng.Run()
	if received < msgs-endpoints {
		b.Fatalf("delivered %d of %d", received, msgs)
	}
	return float64(received*size*8) / eng.Now().Seconds() / 1e9
}

// BenchmarkAblationRouting: deterministic per-endpoint routing means a
// single endpoint is pinned to one lane; spreading traffic over
// multiple endpoints recovers the parallel cables' aggregate bandwidth
// (why BlueDBM stripes its flash traffic over FlashLanes endpoints).
func BenchmarkAblationRouting(b *testing.B) {
	var one, eight float64
	for i := 0; i < b.N; i++ {
		one = streamGbps(b, fabric.DefaultConfig(), 4, 1, 2000)
		eight = streamGbps(b, fabric.DefaultConfig(), 4, 8, 2000)
	}
	b.ReportMetric(one, "1ep-Gbps")
	b.ReportMetric(eight, "8ep-Gbps")
}

// BenchmarkAblationFlowControl: the token depth per link bounds
// buffering; starving the credits (depth 1) costs throughput on a
// multi-segment stream, while modest depth already saturates — the
// "simple design with low buffer requirements" trade-off of §3.2.
func BenchmarkAblationFlowControl(b *testing.B) {
	var starved, normal float64
	for i := 0; i < b.N; i++ {
		tight := fabric.DefaultConfig()
		tight.LinkTokens = 1
		starved = streamGbps(b, tight, 1, 1, 1500)
		normal = streamGbps(b, fabric.DefaultConfig(), 1, 1, 1500)
	}
	b.ReportMetric(starved, "tokens1-Gbps")
	b.ReportMetric(normal, "tokens16-Gbps")
}

// BenchmarkAblationEndToEnd: optional end-to-end flow control (§3.2.3)
// buys safety at a latency cost; this measures the per-message cost of
// a window of 1 versus none on a one-hop link.
func BenchmarkAblationEndToEnd(b *testing.B) {
	run := func(window int) float64 {
		eng := sim.NewEngine()
		net, err := fabric.Line(2, 1).Build(eng, fabric.DefaultConfig(), 0)
		if err != nil {
			b.Fatal(err)
		}
		src, _ := net.Node(0).BindEndpoint(0)
		dst, _ := net.Node(1).BindEndpoint(0)
		if window > 0 {
			src.SetEndToEnd(window)
		}
		got := 0
		dst.OnReceive = func(fabric.NodeID, int, any) { got++ }
		const msgs = 500
		for i := 0; i < msgs; i++ {
			if err := src.Send(1, 512, nil, nil); err != nil {
				b.Fatal(err)
			}
		}
		eng.Run()
		if got != msgs {
			b.Fatalf("delivered %d", got)
		}
		return eng.Now().Micros() / msgs
	}
	var without, with float64
	for i := 0; i < b.N; i++ {
		without = run(0)
		with = run(1)
	}
	b.ReportMetric(without, "noE2E-us/msg")
	b.ReportMetric(with, "E2E1-us/msg")
}

// ftlWA runs a random-overwrite workload against an FTL with the given
// over-provisioning and returns the resulting write amplification.
func ftlWA(b *testing.B, overProvision float64) float64 {
	b.Helper()
	eng := sim.NewEngine()
	geo := nand.Geometry{
		Buses: 2, ChipsPerBus: 1, BlocksPerChip: 16, PagesPerBlock: 8,
		PageSize: 512, OOBSize: 64,
	}
	card, err := nand.NewCard(eng, "wa", geo, nand.DefaultTiming(), nand.Reliability{}, 1)
	if err != nil {
		b.Fatal(err)
	}
	_, srv, err := flashserver.New(eng, card, flashctl.DefaultConfig(), 16)
	if err != nil {
		b.Fatal(err)
	}
	f, err := ftl.New(reclaim.Card(srv.NewIface(), geo), geo, ftl.Config{
		OverProvision: overProvision, GCLowWater: 2, WearLevelEvery: 16,
	})
	if err != nil {
		b.Fatal(err)
	}
	rng := sim.NewRNG(3)
	lpns := f.LogicalPages()
	page := make([]byte, geo.PageSize)
	write := func(lpn int) {
		var werr error
		f.Write(lpn, page, func(err error) { werr = err })
		eng.Run()
		if werr != nil {
			b.Fatalf("write: %v", werr)
		}
	}
	for lpn := 0; lpn < lpns; lpn++ {
		write(lpn)
	}
	for i := 0; i < 3*lpns; i++ {
		write(rng.Intn(lpns))
	}
	return f.WriteAmplification()
}

// BenchmarkAblationOverprovisioning: classic FTL trade-off — GC write
// amplification versus reserved capacity, the knob that motivates
// moving flash management into software where the file system can do
// better (§4).
func BenchmarkAblationOverprovisioning(b *testing.B) {
	var tight, roomy float64
	for i := 0; i < b.N; i++ {
		tight = ftlWA(b, 0.10)
		roomy = ftlWA(b, 0.40)
	}
	b.ReportMetric(tight, "WA-at-10pct-OP")
	b.ReportMetric(roomy, "WA-at-40pct-OP")
}

// buildStack wires engine -> card -> controller -> server
// for the file system ablations.
func buildStack(b *testing.B, geo nand.Geometry) (*sim.Engine, *flashserver.Server) {
	b.Helper()
	eng := sim.NewEngine()
	card, err := nand.NewCard(eng, "fsab", geo, nand.DefaultTiming(), nand.Reliability{}, 7)
	if err != nil {
		b.Fatal(err)
	}
	_, srv, err := flashserver.New(eng, card, flashctl.DefaultConfig(), 16)
	if err != nil {
		b.Fatal(err)
	}
	return eng, srv
}

// BenchmarkAblationFTLvsRFS quantifies §4's architectural argument:
// the same overwrite-heavy file workload run through a conventional
// file system stacked on a driver FTL, versus the flash-aware RFS that
// performs the mapping itself. The metric is end-to-end write
// amplification (flash programs per host page written).
func BenchmarkAblationFTLvsRFS(b *testing.B) {
	geo := nand.Geometry{
		Buses: 2, ChipsPerBus: 1, BlocksPerChip: 16, PagesPerBlock: 8,
		PageSize: 512, OOBSize: 64,
	}
	const filePages = 120
	const overwrites = 500

	var ftlWAv, rfsWAv float64
	for iter := 0; iter < b.N; iter++ {
		// --- conventional FS on FTL ---------------------------------
		eng, srv := buildStack(b, geo)
		dev, err := ftl.New(reclaim.Card(srv.NewIface(), geo), geo, ftl.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		bfs := blockfs.New(dev)
		bf, err := bfs.Create("t")
		if err != nil {
			b.Fatal(err)
		}
		page := make([]byte, geo.PageSize)
		run := func(op func(cb func(error))) {
			var werr error
			op(func(err error) { werr = err })
			eng.Run()
			if werr != nil {
				b.Fatal(werr)
			}
		}
		for i := 0; i < filePages; i++ {
			run(func(cb func(error)) { bf.AppendPage(page, cb) })
		}
		rng := sim.NewRNG(4)
		for i := 0; i < overwrites; i++ {
			idx := rng.Intn(filePages)
			run(func(cb func(error)) { bf.WritePage(idx, page, cb) })
		}
		ftlWAv = dev.WriteAmplification()

		// --- flash-aware RFS -----------------------------------------
		eng2, srv2 := buildStack(b, geo)
		rf, err := rfs.New(srv2.NewIface(), geo, rfs.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		f2, err := rf.Create("t")
		if err != nil {
			b.Fatal(err)
		}
		run2 := func(op func(cb func(error))) {
			var werr error
			op(func(err error) { werr = err })
			eng2.Run()
			if werr != nil {
				b.Fatal(werr)
			}
		}
		for i := 0; i < filePages; i++ {
			run2(func(cb func(error)) { f2.AppendPage(page, cb) })
		}
		rng2 := sim.NewRNG(4)
		for i := 0; i < overwrites; i++ {
			idx := rng2.Intn(filePages)
			run2(func(cb func(error)) { f2.WritePage(idx, page, cb) })
		}
		hostWrites := float64(rf.PagesWritten)
		rfsWAv = (hostWrites + float64(rf.CleanMoves)) / hostWrites

		// The paper's RFS claim is as much about memory as WA: the FTL
		// maps the whole logical space; RFS maps only live data.
		b.ReportMetric(float64(dev.MappingEntries()), "FTL-map-entries")
		b.ReportMetric(float64(rf.LiveMappings()), "RFS-map-entries")
	}
	b.ReportMetric(ftlWAv, "FTL-stack-WA")
	b.ReportMetric(rfsWAv, "RFS-WA")
}

// BenchmarkExtensionTableScan: the §8 future-work SQL offload — rows
// per second and bytes over PCIe for in-store filtering versus host
// filtering at ~1% selectivity, both placements of one ispvol.TableScan
// over one cluster-RFS file.
func BenchmarkExtensionTableScan(b *testing.B) {
	const pages = 96
	var ispRows, hostRows, dataRatio float64
	for i := 0; i < b.N; i++ {
		p := core.DefaultParams(1)
		p.Geometry.BlocksPerChip = 16
		icfg := ispvol.DefaultConfig()
		rcfg := rfs.DefaultConfig()
		st, err := workload.Build(workload.StackSpec{Params: p, Sched: sched.DefaultConfig(), RFS: &rcfg, ISP: &icfg})
		if err != nil {
			b.Fatal(err)
		}
		f, err := st.FS.Create("table")
		if err != nil {
			b.Fatal(err)
		}
		ps := p.PageSize()
		rng := sim.NewRNG(13)
		nextID := uint64(0)
		recs := make([]tablescan.Record, tablescan.RecordsPerPage(ps))
		if err := st.SeedFile(f.AppendPage, pages, func(_ int, page []byte) {
			for j := range recs {
				recs[j] = tablescan.Record{ID: nextID, ColA: int64(rng.Intn(1_000_000)), ColB: int64(rng.Intn(100))}
				nextID++
			}
			enc, err := tablescan.EncodeRecords(recs, ps)
			if err != nil {
				b.Fatal(err)
			}
			copy(page, enc)
		}); err != nil {
			b.Fatal(err)
		}
		pred := tablescan.Predicate{Col: tablescan.ColB, Op: tablescan.OpEQ, Value: 3}
		var res [2]*ispvol.ScanResult
		for k, pl := range []ispvol.Placement{ispvol.InStore, ispvol.HostMediated} {
			var qerr error
			st.ISP.TableScan(0, ispvol.File(f), pred, pl, func(r *ispvol.ScanResult, err error) { res[k], qerr = r, err })
			st.C.Run()
			if qerr != nil || res[k] == nil {
				b.Fatalf("%v: result %v, error %v", pl, res[k], qerr)
			}
		}
		isp, host := res[0], res[1]
		if !slices.Equal(isp.Matches, host.Matches) {
			b.Fatalf("placements disagree: %d vs %d rows", len(isp.Matches), len(host.Matches))
		}
		ispRows = isp.RowsPerSec
		hostRows = host.RowsPerSec
		dataRatio = float64(host.BytesToHost) / float64(isp.BytesToHost)
	}
	b.ReportMetric(ispRows/1e6, "ISP-Mrows/s")
	b.ReportMetric(hostRows/1e6, "host-Mrows/s")
	b.ReportMetric(dataRatio, "PCIe-data-saved-x")
}
