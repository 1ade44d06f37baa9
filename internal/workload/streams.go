package workload

// Physical streams: the traffic side of the scheduler experiments.
// Each StreamSpec describes one tenant stream (QoS class, access
// pattern, read/write mix) over the cluster's physical linear page
// space, and RunClosedLoop hands it to Stack.Run as what every logical
// stream is too: a PageRW surface plus a Picker. Reads retry
// admissions that hit backpressure and count them.
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
	// Mixed is Uniform reads plus log-append writes (30%).
	Mixed
)

var patternNames = [...]string{"uniform", "zipfian", "scan", "mixed"}

func (p Pattern) String() string {
	if int(p) < len(patternNames) {
		return patternNames[p]
	}
	return fmt.Sprintf("pattern(%d)", uint8(p))
}

// StreamSpec describes one tenant stream.
type StreamSpec struct {
	Name    string
	Node    int // node whose host issues the requests
	Target  int // target node for addresses; -1 = whole cluster
	Class   sched.Class
	Pattern Pattern
	Seed    uint64
}

// The patterns' fixed shapes.
const (
	mixedReadFraction = 0.7  // probability a Mixed request is a read
	zipfTheta         = 0.99 // Zipfian skew exponent
	scanRun           = 64   // pages per sequential Scan run
)

// LoopResult aggregates a physical run.
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
type zipf []float64

// newZipf builds a sampler over [0, n), n > 0.
func newZipf(n int, theta float64) zipf {
	z := make(zipf, n)
	sum := 0.0
	for i := range z {
		sum += 1 / math.Pow(float64(i+1), theta)
		z[i] = sum
	}
	for i := range z {
		z[i] /= sum
	}
	return z
}

// sample draws one index using rng.
func (z zipf) sample(rng *sim.RNG) int {
	// The last entry is sum/sum, exactly 1, and the draw is below it,
	// so the rank is in range.
	rank := sort.SearchFloat64s(z, rng.Float64())
	// Scramble rank -> index with a prime multiplicative hash (a
	// bijection mod any n < the prime) so hot pages are spread across
	// buses and cards.
	return int((uint64(rank) * 2654435761) % uint64(len(z)))
}

// appendRegion is one (node, class) log region for writes, and the
// sequencer that keeps its appends in allocation order.
type appendRegion struct {
	next  int // next dense page index to program
	limit int // first index beyond the region
	seq   *sched.Sequencer
}

// linearSpace is what the physical streams of one run share: lpn
// node·PagesPerNode + idx is core.LinearPage(node, idx), reads retry
// through rt, and writes append to the issuing node's region for the
// class.
type linearSpace struct {
	c                         *core.Cluster
	rt                        *sched.Retrier
	nodes, perNode, readPages int
	regions                   [][sched.NumClasses]appendRegion // [node][class]
	fallbacks                 int64
}

// physStream is one StreamSpec as Stack.Run takes it: a PageRW over
// the linear space (Read, Write) and the state of its Picker (bind).
type physStream struct {
	sp   StreamSpec
	ls   *linearSpace
	st   *sched.Stream
	rng  *sim.RNG
	zipf zipf
	page []byte // write payload, reused; Write snapshots it

	scanPos, scanLeft, scanNode int
}

func (ps *physStream) addr(lpn int) core.PageAddr {
	return core.LinearPage(ps.ls.c.Params, lpn/ps.ls.perNode, lpn%ps.ls.perNode)
}

func (ps *physStream) Read(lpn int, cb func(data []byte, err error)) {
	ps.ls.rt.Read(ps.st, ps.addr(lpn), cb)
}

// Write takes its own snapshot of data as the image the flash will
// store, and queues it behind the region's earlier appends.
func (ps *physStream) Write(lpn int, data []byte, cb func(err error)) {
	img := ps.ls.c.Params.Geometry.PageImage(data)
	ps.ls.regions[ps.sp.Node][ps.sp.Class].seq.WriteImage(ps.st, ps.addr(lpn), img, cb)
}

// bind is the stream's Picker. The draw order per request: the Mixed
// coin, then the target node, then the page. A Mixed write appends to
// the ISSUING node's region, not a remote one: remote writes from
// different issuers race over the fabric's round-robin lanes, and
// NAND's in-order block programming cannot be guaranteed across that
// race (write-local, read-global, the way RFS allocates). A write
// that finds its region exhausted falls back to a read.
func (ps *physStream) bind(rng *sim.RNG, pageSize int) func() (int, []byte) {
	ps.rng = rng
	switch ps.sp.Pattern {
	case Zipfian:
		ps.zipf = newZipf(ps.ls.readPages, zipfTheta)
	case Mixed:
		ps.page = make([]byte, pageSize)
		rng.Bytes(ps.page)
	}
	return ps.next
}

func (ps *physStream) next() (int, []byte) {
	ls, rng := ps.ls, ps.rng
	if ps.sp.Pattern == Mixed && rng.Float64() >= mixedReadFraction {
		if reg := &ls.regions[ps.sp.Node][ps.sp.Class]; reg.next < reg.limit {
			reg.next++
			return ps.sp.Node*ls.perNode + reg.next - 1, ps.page
		}
		ls.fallbacks++
	}
	node := ps.sp.Target
	if node < 0 {
		node = rng.Intn(ls.nodes)
	}
	idx := 0
	switch ps.sp.Pattern {
	case Zipfian:
		idx = ps.zipf.sample(rng)
	case Scan:
		if ps.scanLeft == 0 {
			// The whole run scans ONE node: that is what makes it
			// sequential at a flash card instead of uniform noise.
			ps.scanPos, ps.scanLeft, ps.scanNode = rng.Intn(ls.readPages), scanRun, node
		}
		idx, node = ps.scanPos, ps.scanNode
		ps.scanPos = (ps.scanPos + 1) % ls.readPages
		ps.scanLeft--
	default: // Uniform, and Mixed's read side
		idx = rng.Intn(ls.readPages)
	}
	return node*ls.perNode + idx, nil
}

// RunClosedLoop drives every spec through Stack.Run as a closed-loop
// stream holding `depth` requests outstanding until `requests`
// complete per stream, then drains. The cluster's read region
// [0, readPages) per node must already be seeded (Stack.SeedLinear).
func RunClosedLoop(s *sched.Scheduler, c *core.Cluster, specs []StreamSpec, readPages, depth, requests int) (LoopResult, error) {
	if readPages <= 0 {
		return LoopResult{}, fmt.Errorf("workload: readPages %d", readPages)
	}
	for i, sp := range specs {
		if sp.Node < 0 || sp.Node >= c.Nodes() || sp.Target < -1 || sp.Target >= c.Nodes() {
			return LoopResult{}, fmt.Errorf("workload: spec %d: node %d or target %d out of range", i, sp.Node, sp.Target)
		}
	}
	p := c.Params
	// blockSpan dense indices cover exactly one page row of every
	// block in the stripe, so any multiple is block-aligned.
	blockSpan := p.Geometry.Buses * p.Geometry.ChipsPerBus * p.CardsPerNode * p.Geometry.PagesPerBlock
	base := ((readPages + blockSpan - 1) / blockSpan) * blockSpan
	// Append regions are dealt to the tenant classes only: Accel is
	// device-side ISP reads and Background is FTL housekeeping, and
	// neither ever writes through these streams, so partitioning over
	// NumClasses would dead-reserve two fifths of every node's
	// writable pages.
	tenantClasses := int(sched.Accel)
	per := ((core.PagesPerNode(p) - base) / tenantClasses / blockSpan) * blockSpan
	ls := &linearSpace{
		c: c, rt: s.NewRetrier(0), nodes: c.Nodes(), perNode: core.PagesPerNode(p), readPages: readPages,
		regions: make([][sched.NumClasses]appendRegion, c.Nodes()),
	}
	for n := range ls.regions {
		for cl := 0; cl < tenantClasses; cl++ {
			start := base + cl*per
			ls.regions[n][cl] = appendRegion{next: start, limit: start + per, seq: ls.rt.NewSequencer()}
		}
		// Accel and Background keep empty regions: a (misconfigured)
		// spec writing at those classes falls back to reads, counted in
		// WriteFallbacks, instead of violating NAND ordering.
	}
	streams := make([]physStream, len(specs))
	clients := make([]ClientSpec, len(specs))
	for i, sp := range specs {
		st, err := s.NewStream(sp.Name, sp.Node, sp.Class)
		if err != nil {
			return LoopResult{}, err
		}
		streams[i] = physStream{sp: sp, ls: ls, st: st}
		clients[i] = ClientSpec{Name: sp.Name, RW: &streams[i], Pick: streams[i].bind, Seed: sp.Seed ^ 0xb1dbdb00}
	}
	res, err := (&Stack{C: c, S: s}).Run(clients, depth, requests, nil)
	res.Loop.Backpressure, res.Loop.WriteFallbacks = ls.rt.Backpressure, ls.fallbacks
	return res.Loop, err
}
