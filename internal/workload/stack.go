package workload

// The stack builder: the paper's Figure 8 software stack as data. One
// spec names the layers — cluster → scheduler → logical volume
// (± mirror) ± host-DRAM cache ± cluster file system ± in-store query
// engines — and Build composes them in that order, so every harness,
// test and benchmark that needs "an appliance with these layers" says
// which layers and nothing else. Stack then carries the three jobs
// every experiment repeats: populate it (Seed, SeedFile, SeedLinear),
// drive it (Run, in logical.go) and measure one window of it (Measure).

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/ftl"
	"repro/internal/hostmodel"
	"repro/internal/ispvol"
	"repro/internal/rfs"
	"repro/internal/sched"
	"repro/internal/volume"
)

// StackSpec names the layers of one simulated appliance. Params and
// Sched always apply; every other layer is built when its field is
// set.
type StackSpec struct {
	Params core.Params
	Sched  sched.Config

	// FTL, when non-nil, builds the logical volume over per-card FTLs
	// with this configuration; Mirror adds its cross-node replicas.
	FTL    *ftl.Config
	Mirror bool
	// Cache, when non-nil, puts the host-DRAM write-back cache above
	// the volume.
	Cache *cache.Config
	// RFS, when non-nil, mounts the cluster-wide log-structured file
	// system on a backend configured by RFSCluster. It cannot stand
	// beside a volume: each lays claim to every erase block of every
	// card (the volume mounts an FTL over each card's whole geometry,
	// the file system's log is striped over every chip × BlocksPerChip),
	// so the two would program and erase each other's blocks.
	RFS        *rfs.Config
	RFSCluster rfs.ClusterConfig
	// ISP, when non-nil, adds the distributed in-store query engines
	// over the volume (ispvol.Range sources) or the file system
	// (ispvol.File sources).
	ISP *ispvol.Config
}

// Stack is a built appliance. Layers the spec left out are nil.
type Stack struct {
	C     *core.Cluster
	S     *sched.Scheduler
	V     *volume.Volume
	Cache *cache.Cache
	FS    *rfs.FS
	ISP   *ispvol.System
}

// Build composes the layers spec names, bottom up.
func Build(spec StackSpec) (*Stack, error) {
	switch {
	case spec.FTL == nil && spec.Mirror:
		return nil, fmt.Errorf("workload: mirror without a volume")
	case spec.FTL != nil && spec.RFS != nil:
		return nil, fmt.Errorf("workload: a volume and a cluster file system each claim every erase block of every card; they cannot share the flash")
	case spec.ISP != nil && spec.FTL == nil && spec.RFS == nil:
		return nil, fmt.Errorf("workload: in-store engines need a volume or a file system to query")
	}
	c, err := core.NewCluster(spec.Params)
	if err != nil {
		return nil, err
	}
	st := &Stack{C: c}
	if st.S, err = sched.New(c, spec.Sched); err != nil {
		return nil, err
	}
	if spec.FTL != nil {
		vcfg := volume.DefaultConfig()
		vcfg.FTL, vcfg.Mirror = *spec.FTL, spec.Mirror
		if st.V, err = volume.New(c, st.S, vcfg); err != nil {
			return nil, err
		}
	}
	if spec.RFS != nil {
		if st.FS, _, err = rfs.NewClusterFS(c, st.S, spec.RFSCluster, *spec.RFS); err != nil {
			return nil, err
		}
	}
	if spec.Cache != nil {
		if err := st.AttachCache(*spec.Cache); err != nil {
			return nil, err
		}
	}
	if spec.ISP != nil {
		if st.ISP, err = ispvol.New(c, st.S, st.V, *spec.ISP); err != nil {
			return nil, err
		}
	}
	return st, nil
}

// Check runs every drain check of the stack's layers: each registered
// its own where it was built (core.Cluster.Check).
//
//simlint:allow unused (checker: the workload tests end in it)
func (st *Stack) Check() error { return st.C.Check() }

// AttachCache puts the cache above the volume after the fact: the step
// Build takes for StackSpec.Cache, on its own for callers that size
// the cache from the built volume's page count.
func (st *Stack) AttachCache(cfg cache.Config) error {
	if st.V == nil {
		return fmt.Errorf("workload: cache without a volume")
	}
	var err error
	st.Cache, err = cache.New(st.C, st.V, cfg)
	return err
}

// Stream opens a client stream on the stack's top page surface: the
// cache on the given node when one is attached, else the volume (which
// issues from each page's owning node).
func (st *Stack) Stream(name string, node int, class sched.Class) (PageRW, error) {
	switch {
	case st.Cache != nil:
		return st.Cache.NewStream(name, node, class)
	case st.V != nil:
		return st.V.NewStream(name, class)
	}
	return nil, fmt.Errorf("workload: stack has no page surface (no volume)")
}

// seedDepth is the seeder's outstanding-write window.
const seedDepth = 64

// seedPages is the one pipelined seeder: it writes pages [0, n) with
// fill's content, issuing in index order with seedDepth writes in
// flight (so append-only surfaces stay deterministic), and drains.
func (st *Stack) seedPages(n int, fill PageFiller, write func(idx int, data []byte, cb func(error))) error {
	var firstErr error
	next := 0
	var issue func()
	issue = func() {
		if next >= n {
			return
		}
		idx := next
		next++
		buf := make([]byte, st.C.Params.PageSize())
		fill(idx, buf)
		write(idx, buf, func(err error) {
			if err != nil && firstErr == nil {
				firstErr = fmt.Errorf("seed page %d: %w", idx, err)
			}
			issue()
		})
	}
	for i := 0; i < seedDepth && i < n; i++ {
		issue()
	}
	st.C.Run()
	return firstErr
}

// Seed writes the whole logical volume through a Batch-class stream
// (under the cache, when one is attached): the setup step before any
// volume workload.
func (st *Stack) Seed(fill PageFiller) error {
	if st.V == nil {
		return fmt.Errorf("workload: seeding a stack with no volume")
	}
	s, err := st.V.NewStream("seed", sched.Batch)
	if err != nil {
		return err
	}
	return st.seedPages(st.V.Pages(), fill, s.Write)
}

// SeedFile appends pages [0, n) to a file (rfs or blockfs: both append
// in call order) through its AppendPage.
func (st *Stack) SeedFile(appendPage func(data []byte, cb func(error)), n int, fill PageFiller) error {
	return st.seedPages(n, fill, func(_ int, data []byte, cb func(error)) { appendPage(data, cb) })
}

// SeedLinear programs pages [0, n) of every node's physical linear
// space: the read region of the physical streams (RunClosedLoop).
func (st *Stack) SeedLinear(n int, fill PageFiller) error {
	for node := 0; node < st.C.Nodes(); node++ {
		if err := st.C.SeedLinear(node, n, fill); err != nil {
			return fmt.Errorf("seed node %d: %w", node, err)
		}
	}
	return nil
}

// Window is one measured run: the driver's result plus, for every
// layer the stack has, what that layer did during the run alone —
// seeding and warm-up excluded.
type Window struct {
	Run    RunResult
	Sched  sched.Snapshot
	Volume volume.Stats
	Cache  cache.Stats
	// Host sums the per-node host-envelope deltas.
	Host hostmodel.Stats
	// FSWritten and FSCleanMoves are the file system's host page writes
	// and cleaner relocations.
	FSWritten, FSCleanMoves int64
}

// Measure is Run inside a measured window: reset the scheduler's
// statistics, take every attached layer's baseline, run, refuse a run
// with failed requests (wrapping the first one's error), then snapshot
// the scheduler and subtract the baselines.
func (st *Stack) Measure(specs []ClientSpec, depth, requests int, concurrent func(live func() bool)) (Window, error) {
	st.S.ResetStats()
	var vol0 volume.Stats
	var cache0 cache.Stats
	var w0, cm0 int64
	if st.V != nil {
		vol0 = st.V.Stats()
	}
	if st.Cache != nil {
		cache0 = st.Cache.Stats()
	}
	if st.FS != nil {
		w0, cm0 = st.FS.PagesWritten, st.FS.CleanMoves
	}
	host0 := make([]hostmodel.Stats, st.C.Nodes())
	for n := range host0 {
		host0[n] = st.C.Node(n).CPU.Stats()
	}
	run, err := st.Run(specs, depth, requests, concurrent)
	if err != nil {
		return Window{}, err
	}
	if run.Loop.Errors > 0 {
		return Window{}, fmt.Errorf("%d request errors, the first: %w", run.Loop.Errors, run.FirstErr)
	}
	w := Window{Run: run, Sched: st.S.Snapshot()}
	if st.V != nil {
		w.Volume = st.V.Stats().Delta(vol0)
	}
	if st.Cache != nil {
		w.Cache = st.Cache.Stats().Delta(cache0)
	}
	if st.FS != nil {
		w.FSWritten, w.FSCleanMoves = st.FS.PagesWritten-w0, st.FS.CleanMoves-cm0
	}
	for n := range host0 {
		d := st.C.Node(n).CPU.Stats().Delta(host0[n])
		w.Host.DRAMBytesMoved += d.DRAMBytesMoved
		w.Host.DRAMTransfers += d.DRAMTransfers
		w.Host.CoreBusyMs += d.CoreBusyMs
	}
	return w, nil
}
