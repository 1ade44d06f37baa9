package experiments

// What the beyond-the-paper experiments (sched, engine, gc, isp, fs,
// apps, fault, cache) share. Each harness file holds only its config,
// its arms and its formatter; the stack comes from workload.Build, the
// traffic from the stream mixes below run by the one logical driver
// (workload.Stack.Run), and every reported number from one measured
// window (workload.Stack.Measure), with application load co-running
// beside it through a coRunner.

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/ftl"
	"repro/internal/ispvol"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/workload"
)

// The logical driver seeds each stream's RNG exactly as told; these
// are the salts the committed artifacts were generated with.
const (
	volSalt  uint64 = 0xc0ffee11 // volume-stream mixes: gc, fault, isp, apps
	hotSalt  uint64 = 0x407c01d  // cache-tier mixes
	warmSalt uint64 = 0x5eed     // XORed in for an unmeasured warm-up round
)

// gcParams shrinks flash capacity further than scaledParams so a
// volume can be seeded, churned to steady-state GC, scanned repeatedly
// or rebuilt in seconds of wall-clock time; the GC, ISP, apps, cache
// and fault harnesses all run on it.
func gcParams(nodes int) core.Params {
	p := core.DefaultParams(nodes)
	// Small capacity so churn reaches steady-state GC quickly, but
	// full-size blocks: the erase rate per written page falls with
	// block size, keeping unavoidable read-behind-erase chip
	// collisions (identical in both arms) out of the p99 quantile that
	// the dispatch policies are being compared on.
	p.Geometry.ChipsPerBus = 2
	p.Geometry.BlocksPerChip = 2
	p.Geometry.PagesPerBlock = 32
	return p
}

// volumeSpec is the stack most harnesses start from: a logical volume
// over per-card FTLs on gcParams.
func volumeSpec(nodes int, scfg sched.Config, fcfg ftl.Config) workload.StackSpec {
	return workload.StackSpec{Params: gcParams(nodes), Sched: scfg, FTL: &fcfg}
}

// seeded builds spec and fills its whole logical volume.
func seeded(spec workload.StackSpec, fill workload.PageFiller) (*workload.Stack, error) {
	st, err := workload.Build(spec)
	if err != nil {
		return nil, err
	}
	return st, st.Seed(fill)
}

// physicalStack builds the volume-less stack of the physical-address
// harnesses (sched, engine, the golden scenario): scaledParams with
// every node's read region [0, pages) seeded. A physical run
// (RunClosedLoop) is the measured window as a whole, so the
// scheduler's statistics (and their clock) start after the seeding.
func physicalStack(nodes, pages int, seed uint64, scfg sched.Config) (*workload.Stack, error) {
	st, err := workload.Build(workload.StackSpec{Params: scaledParams(nodes), Sched: scfg})
	if err != nil {
		return nil, err
	}
	err = st.SeedLinear(pages, workload.RandomPages(seed))
	st.S.ResetStats()
	return st, err
}

// dealStream gives physical stream i its class and pattern: of every
// eight, one realtime point reader, three interactive (two zipfian,
// one uniform) and four batch (two scans, two mixed read/write).
func dealStream(i int) (sched.Class, workload.Pattern) {
	switch i % 8 {
	case 0:
		return sched.Realtime, workload.Uniform
	case 1, 2:
		return sched.Interactive, workload.Zipfian
	case 3:
		return sched.Interactive, workload.Uniform
	case 4, 5:
		return sched.Batch, workload.Scan
	default:
		return sched.Batch, workload.Mixed
	}
}

// mix accumulates a stream mix over one stack's top page surface; the
// first stream that fails to open sticks in err.
type mix struct {
	st    *workload.Stack
	specs []workload.ClientSpec
	err   error
}

func (m *mix) add(sp workload.ClientSpec, node int, class sched.Class) {
	rw, err := m.st.Stream(sp.Name, node, class)
	if err != nil && m.err == nil {
		m.err = err
	}
	sp.RW = rw
	m.specs = append(m.specs, sp)
}

// probe is a latency probe: sparse point accesses (depth 1, ~2 kreq/s)
// that stay live for exactly the window the primary streams define. A
// saturating realtime loop would measure its own self-queueing; sparse
// arrivals measure what they should — how occupied the background work
// leaves the device when a latency-critical read shows up.
func probe(name string, pick workload.Picker, seed uint64) workload.ClientSpec {
	return workload.ClientSpec{Name: name, Pick: pick, Requests: -1, Depth: 1,
		ThinkTime: 500 * sim.Microsecond, Seed: seed}
}

// probesAndChurn is the gc/fault mix: realtime probes over the whole
// volume plus batch full-churn writers. The writers are paced, not
// saturating — heavy-but-sustainable churn: a saturating writer pool
// drives the erase rate so high that unavoidable read-behind-erase
// chip collisions (identical under any dispatch policy) dominate the
// p99 quantile and hide what scheduling can and cannot do.
func probesAndChurn(st *workload.Stack, readers, writers int, seed, salt uint64) ([]workload.ClientSpec, error) {
	m := mix{st: st}
	pages, nodes := st.V.Pages(), st.C.Nodes()
	for i := 0; i < readers; i++ {
		m.add(probe(fmt.Sprintf("rt%02d", i), workload.PickUniform(pages, 0),
			(seed+uint64(i)*1299709)^salt), i%nodes, sched.Realtime)
	}
	for i := 0; i < writers; i++ {
		m.add(workload.ClientSpec{Name: fmt.Sprintf("wr%02d", i), Pick: workload.PickUniform(pages, 1),
			Depth: 2, ThinkTime: 4 * sim.Millisecond,
			Seed: (seed + 7 + uint64(i)*15485863) ^ salt}, i%nodes, sched.Batch)
	}
	return m.specs, m.err
}

// hostMix is the isp/apps foreground: a quarter of the streams are
// realtime probes, the rest interactive and batch readers that bound
// the run. Pure reads: the queries' physical-address snapshots must
// stay valid for the whole window.
func hostMix(st *workload.Stack, streams int, seed uint64) ([]workload.ClientSpec, error) {
	m := mix{st: st}
	pick := workload.PickUniform(st.V.Pages(), 0)
	for i := 0; i < streams; i++ {
		s, node := (seed+uint64(i)*1299709)^volSalt, i%st.C.Nodes()
		switch {
		case i < max(streams/4, 1):
			m.add(probe(fmt.Sprintf("rt%02d", i), pick, s), node, sched.Realtime)
		case i%2 == 0:
			m.add(workload.ClientSpec{Name: fmt.Sprintf("ia%02d", i), Pick: pick, Seed: s}, node, sched.Interactive)
		default:
			m.add(workload.ClientSpec{Name: fmt.Sprintf("bt%02d", i), Pick: pick, Seed: s}, node, sched.Batch)
		}
	}
	return m.specs, m.err
}

// coRunner keeps application load running beside a measured window:
// chains of back-to-back queries that relaunch while the window's
// primary streams are live and stop for good at the first failure.
type coRunner struct {
	live func() bool
	err  error
}

func (co *coRunner) fail(err error) {
	if co.err == nil {
		co.err = err
	}
}

// chain runs one back-to-back sequence: start launches a query whose
// completion calls next to launch the following one.
func (co *coRunner) chain(start func(next func())) {
	var next func()
	next = func() {
		if co.live() && co.err == nil {
			start(next)
		}
	}
	next()
}

// measure is one measured window of st with load (when non-nil)
// co-running for exactly as long as the primary streams issue. A
// failed request or a failed query fails the window.
func measure(st *workload.Stack, specs []workload.ClientSpec, depth, requests int, load func(co *coRunner)) (workload.Window, error) {
	co := &coRunner{}
	w, err := st.Measure(specs, depth, requests, func(live func() bool) {
		co.live = live
		if load != nil {
			load(co)
		}
	})
	if err == nil {
		err = co.err
	}
	return w, err
}

// warmThenMeasure runs mixOf's traffic once unmeasured at a quarter of
// the request count, its seeds salted apart (the round that pushes FTL
// free pools toward the GC region, or populates a cache), then
// measures it.
func warmThenMeasure(st *workload.Stack, depth, requests int,
	mixOf func(seedSalt uint64) ([]workload.ClientSpec, error)) (workload.Window, error) {
	warm, err := mixOf(warmSalt)
	if err != nil {
		return workload.Window{}, err
	}
	if _, err := st.Run(warm, depth, requests/4, nil); err != nil {
		return workload.Window{}, err
	}
	specs, err := mixOf(0)
	if err != nil {
		return workload.Window{}, err
	}
	return measure(st, specs, depth, requests, nil)
}

// searchTally is what one window's search queries did.
type searchTally struct {
	queries        int
	bytes, matches int64 // bytes scanned in total; matches per query
}

// mbps is scan throughput over a window of elapsedMs.
func (t searchTally) mbps(elapsedMs float64) float64 {
	return ratio(float64(t.bytes), elapsedMs/1e3) / 1e6
}

// searchLoad co-runs `streams` chains of string-search queries over
// src. Every query must read all its pages and find the same number of
// matches, or the window fails.
func searchLoad(co *coRunner, sys *ispvol.System, src ispvol.Source, needle []byte,
	placement ispvol.Placement, streams int, t *searchTally) {
	for qs := 0; qs < streams; qs++ {
		co.chain(func(next func()) {
			sys.Search(0, src, needle, placement, func(res *ispvol.SearchResult, err error) {
				switch {
				case err != nil:
				case res.FailedPages > 0:
					err = fmt.Errorf("%d query pages failed to read", res.FailedPages)
				case t.queries > 0 && t.matches != int64(len(res.Matches)):
					err = fmt.Errorf("query match counts diverge: %d vs %d", t.matches, len(res.Matches))
				}
				if err != nil {
					co.fail(err)
					return
				}
				t.queries++
				t.bytes += res.Bytes
				t.matches = int64(len(res.Matches))
				next()
			})
		})
	}
}

// ratio is num/den, or 0 when den is not positive: an arm's ratio to
// its base arm when the base measured nothing.
func ratio(num, den float64) float64 {
	if den > 0 {
		return num / den
	}
	return 0
}

// realtimeClass pulls the realtime class out of a scheduler snapshot.
func realtimeClass(s sched.Snapshot) sched.ClassSnapshot {
	for _, cs := range s.Classes {
		if cs.Class == "realtime" {
			return cs
		}
	}
	return sched.ClassSnapshot{}
}

// hostOpsPerSec sums a window's scheduler throughput over the host
// classes only (accel ops are query traffic, not host load).
func hostOpsPerSec(s sched.Snapshot) float64 {
	var ops float64
	for _, cs := range s.Classes {
		if cs.Class != "accel" {
			ops += cs.OpsPerSec
		}
	}
	return ops
}
