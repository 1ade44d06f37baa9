package workload

// Multi-stream request generators: the traffic side of the scheduler
// experiments. Each StreamSpec describes one tenant stream (QoS class,
// access pattern, read/write mix); RunClosedLoop runs every stream
// against a sched.Scheduler, each client keeping a fixed number of
// requests outstanding and retrying admissions that hit backpressure.
//
// Writes honour NAND program-once/in-order semantics: every (issuing
// node, QoS class) pair owns a private block-aligned append region on
// its local flash behind the seeded read region, and a write
// sequencer admits the log appends strictly FIFO, so allocation order
// reaches the flash in order (see sched.Sequencer).

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/sim"
)

// Pattern selects a stream's page-access distribution.
type Pattern uint8

// The four stream patterns.
const (
	// Uniform reads pages uniformly at random.
	Uniform Pattern = iota
	// Zipfian reads pages with Zipf-distributed popularity (hot set).
	Zipfian
	// Scan reads sequential runs from random starting points.
	Scan
	// Mixed is Uniform reads plus log-append writes at 1-ReadFraction.
	Mixed
)

func (p Pattern) String() string {
	switch p {
	case Uniform:
		return "uniform"
	case Zipfian:
		return "zipfian"
	case Scan:
		return "scan"
	case Mixed:
		return "mixed"
	default:
		return fmt.Sprintf("pattern(%d)", uint8(p))
	}
}

// StreamSpec describes one tenant stream.
type StreamSpec struct {
	Name    string
	Node    int // node whose host issues the requests
	Target  int // target node for addresses; -1 = whole cluster
	Class   sched.Class
	Pattern Pattern
	// ReadFraction is the probability a Mixed request is a read
	// (other patterns are pure reads). Zero defaults to 0.7.
	ReadFraction float64
	// ZipfTheta is the Zipfian skew exponent. Zero defaults to 0.99.
	ZipfTheta float64
	// ScanRun is the pages per sequential run. Zero defaults to 64.
	ScanRun int
	Seed    uint64
}

// LoopResult aggregates a driver run.
type LoopResult struct {
	Completed int64 `json:"completed"`
	Errors    int64 `json:"errors"`
	// Backpressure counts ErrBackpressure events, each retried after a
	// backoff.
	Backpressure int64 `json:"backpressure"`
	// WriteFallbacks counts writes converted to reads because a
	// class's append region ran out of erased pages.
	WriteFallbacks int64 `json:"write_fallbacks"`
}

// zipf samples ranks 1..n with probability proportional to
// 1/rank^theta, via an explicit CDF (n is at most tens of thousands
// here). Ranks are scrambled so the hot set is spread over the
// address space instead of clustered at page 0.
type zipf struct {
	cdf []float64
	n   int
}

// newZipf builds a sampler over [0, n).
func newZipf(n int, theta float64) *zipf {
	if n <= 0 {
		panic(fmt.Sprintf("workload: zipf over %d items", n))
	}
	z := &zipf{cdf: make([]float64, n), n: n}
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += 1 / math.Pow(float64(i+1), theta)
		z.cdf[i] = sum
	}
	for i := range z.cdf {
		z.cdf[i] /= sum
	}
	return z
}

// sample draws one index using rng.
func (z *zipf) sample(rng *sim.RNG) int {
	u := rng.Float64()
	rank := sort.SearchFloat64s(z.cdf, u)
	if rank >= z.n {
		rank = z.n - 1
	}
	// Scramble rank -> index with a prime multiplicative hash (a
	// bijection mod any n < the prime) so hot pages are spread across
	// buses and cards.
	return int((uint64(rank) * 2654435761) % uint64(z.n))
}

// appendRegion is one (node, class) log region for writes.
type appendRegion struct {
	next  int // next dense page index to program
	limit int // first index beyond the region
}

// driver runs a set of streams against one scheduler. Admission
// backpressure is absorbed by rt: reads retry on their own, and each
// (node, class) region's appends go through one sched.Sequencer —
// NAND blocks must be programmed in page order, so once a log index is
// allocated its write must reach the scheduler before any later index
// of the same region.
type driver struct {
	s         *sched.Scheduler
	c         *core.Cluster
	rt        *sched.Retrier
	readPages int
	regions   [][sched.NumClasses]appendRegion     // [node][class]
	seqs      [][sched.NumClasses]*sched.Sequencer // [node][class]
	res       LoopResult
}

// submitWrite allocates the next log index of the client's (node,
// class) region and queues the append on its sequencer. It reports
// false (without consuming an index) when the region is exhausted;
// the caller should fall back to a read.
func (d *driver) submitWrite(cl *client, done func(err error)) bool {
	node := cl.spec.Node
	reg := &d.regions[node][cl.spec.Class]
	if reg.next >= reg.limit {
		d.res.WriteFallbacks++
		return false
	}
	idx := reg.next
	reg.next++
	// The client reuses one payload page, so each append takes its own
	// snapshot, as the image the flash will store. A hard admission
	// failure reaches done through the normal completion path; the
	// caller's callback does the error accounting.
	img := d.c.Params.Geometry.PageImage(cl.page)
	d.seqs[node][cl.spec.Class].WriteImage(cl.stream, core.LinearPage(d.c.Params, node, idx), img, done)
	return true
}

func newDriver(s *sched.Scheduler, c *core.Cluster, specs []StreamSpec, readPages int, retryDelay sim.Time) (*driver, error) {
	if readPages <= 0 {
		return nil, fmt.Errorf("workload: readPages %d", readPages)
	}
	p := c.Params
	// blockSpan dense indices cover exactly one page row of every
	// block in the stripe, so any multiple is block-aligned.
	blockSpan := p.Geometry.Buses * p.Geometry.ChipsPerBus * p.CardsPerNode * p.Geometry.PagesPerBlock
	base := ((readPages + blockSpan - 1) / blockSpan) * blockSpan
	// Append regions are dealt to the tenant classes only: Accel is
	// device-side ISP reads and Background is FTL housekeeping, and
	// neither ever writes through these drivers, so partitioning over
	// NumClasses would dead-reserve two fifths of every node's
	// writable pages.
	tenantClasses := int(sched.Accel)
	per := ((core.PagesPerNode(p) - base) / tenantClasses / blockSpan) * blockSpan
	d := &driver{
		s: s, c: c, rt: s.NewRetrier(retryDelay), readPages: readPages,
		regions: make([][sched.NumClasses]appendRegion, c.Nodes()),
		seqs:    make([][sched.NumClasses]*sched.Sequencer, c.Nodes()),
	}
	for n := range d.regions {
		for cl := 0; cl < tenantClasses; cl++ {
			start := base + cl*per
			d.regions[n][cl] = appendRegion{next: start, limit: start + per}
			d.seqs[n][cl] = d.rt.NewSequencer()
		}
		// Accel and Background keep empty regions: a (misconfigured)
		// spec writing at those classes falls back to reads, counted in
		// WriteFallbacks, instead of violating NAND ordering.
	}
	for i, sp := range specs {
		if sp.Node < 0 || sp.Node >= c.Nodes() {
			return nil, fmt.Errorf("workload: spec %d: node %d out of range", i, sp.Node)
		}
		if sp.Target >= c.Nodes() {
			return nil, fmt.Errorf("workload: spec %d: target %d out of range", i, sp.Target)
		}
	}
	return d, nil
}

// client is one stream's generator state.
type client struct {
	d      *driver
	spec   StreamSpec
	stream *sched.Stream
	rng    *sim.RNG
	zipf   *zipf
	page   []byte // write payload, reused

	scanPos, scanLeft, scanNode int
}

func (d *driver) newClient(sp StreamSpec) (*client, error) {
	st, err := d.s.NewStream(sp.Name, sp.Node, sp.Class)
	if err != nil {
		return nil, err
	}
	if sp.ReadFraction <= 0 {
		sp.ReadFraction = 0.7
	}
	if sp.ZipfTheta <= 0 {
		sp.ZipfTheta = 0.99
	}
	if sp.ScanRun <= 0 {
		sp.ScanRun = 64
	}
	cl := &client{d: d, spec: sp, stream: st, rng: sim.NewRNG(sp.Seed ^ 0xb1dbdb00)}
	if sp.Pattern == Zipfian {
		cl.zipf = newZipf(d.readPages, sp.ZipfTheta)
	}
	if sp.Pattern == Mixed {
		cl.page = make([]byte, d.c.Params.PageSize())
		cl.rng.Bytes(cl.page)
	}
	return cl, nil
}

// target picks the node a request addresses.
func (cl *client) target() int {
	if cl.spec.Target >= 0 {
		return cl.spec.Target
	}
	return cl.rng.Intn(cl.d.c.Nodes())
}

// wantWrite reports whether the next Mixed request should be a write.
// Writes append to the ISSUING node's log region, not a remote one:
// remote writes from different issuers race over the fabric's
// round-robin lanes, and NAND's in-order block programming cannot be
// guaranteed across that race (write-local, read-global, the way RFS
// allocates).
func (cl *client) wantWrite() bool {
	return cl.spec.Pattern == Mixed && cl.rng.Float64() >= cl.spec.ReadFraction
}

// nextRead produces the next read address.
func (cl *client) nextRead() core.PageAddr {
	p := cl.d.c.Params
	node := cl.target()
	switch cl.spec.Pattern {
	case Zipfian:
		return core.LinearPage(p, node, cl.zipf.sample(cl.rng))
	case Scan:
		if cl.scanLeft == 0 {
			cl.scanPos = cl.rng.Intn(cl.d.readPages)
			cl.scanLeft = cl.spec.ScanRun
			// The whole run scans ONE node: that is what makes it
			// sequential at a flash card instead of uniform noise.
			cl.scanNode = node
		}
		idx := cl.scanPos
		cl.scanPos = (cl.scanPos + 1) % cl.d.readPages
		cl.scanLeft--
		return core.LinearPage(p, cl.scanNode, idx)
	default: // Uniform, and Mixed's read side
		return core.LinearPage(p, node, cl.rng.Intn(cl.d.readPages))
	}
}

// RunClosedLoop drives every spec as a closed-loop client holding
// `depth` requests outstanding until `requests` complete per stream,
// then drains. Backpressure is retried after retryDelay (default 5 µs
// when zero). The cluster's read region [0, readPages) per node must
// already be seeded. The run leaves the engine drained.
func RunClosedLoop(s *sched.Scheduler, c *core.Cluster, specs []StreamSpec,
	readPages, depth, requests int, retryDelay sim.Time) (LoopResult, error) {
	if depth <= 0 || requests <= 0 {
		return LoopResult{}, fmt.Errorf("workload: depth %d, requests %d", depth, requests)
	}
	d, err := newDriver(s, c, specs, readPages, retryDelay)
	if err != nil {
		return LoopResult{}, err
	}
	for _, sp := range specs {
		cl, err := d.newClient(sp)
		if err != nil {
			return LoopResult{}, err
		}
		toIssue := requests
		inflight := 0
		var issue func()
		complete := func(err error) {
			inflight--
			d.res.Completed++
			if err != nil {
				d.res.Errors++
			}
			issue()
		}
		// Hard admission failures come back through readDone too, so the
		// slot is reissued and the completion count stays consistent.
		readDone := func(_ []byte, err error) { complete(err) }
		issue = func() {
			for inflight < depth && toIssue > 0 {
				toIssue--
				inflight++
				if cl.wantWrite() && d.submitWrite(cl, complete) {
					continue
				}
				d.rt.Read(cl.stream, cl.nextRead(), readDone)
			}
		}
		issue()
	}
	c.Run()
	d.res.Backpressure = d.rt.Backpressure
	return d.res, nil
}
