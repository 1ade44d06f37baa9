// Package ispvol is the distributed in-store processing subsystem:
// the layer that makes accelerators first-class, QoS-governed tenants
// of the sched/volume stack instead of raw flash peekers.
//
// The paper's headline capability (§4, §6) is in-store processors
// that read flash directly — no host software on the data path —
// while SHARING the flash controller with host traffic. Here every
// engine flash read is admitted through sched's Accel class (capped by
// the accel token budget, the chips' read depth) and then issues on the
// device-side ISP path at bulk priority, where it yields to host
// commands at its chip, so an ISP-heavy tenant cannot starve realtime
// host streams.
//
// A scan query is three orthogonal choices, executed by one mechanism
// (query.go):
//
//   - a Source — which pages: Range, a logical range of the volume
//     (volume.PhysMap), or File, a file of the cluster-wide RFS
//     (rfs.File.PhysicalAddrs). The source resolves physical
//     addresses, checks bounds, and hands out the host-path reader.
//   - a kernel — what to compute: Search (Morris-Pratt match offsets,
//     page junctions stitched at the origin), TableScan (predicate
//     pushdown, qualifying records only) or NearestNeighbor (inline
//     Hamming compare of LSH candidates, per-node bests only). A
//     kernel is a per-page reduction into a partial, the partial's
//     merge at the origin, and wire sizes and CPU costs; nothing else
//     in the package knows which kernel is running.
//   - a Placement — who computes. InStore runs the way Figure 8
//     describes: (1) the origin host resolves the source to physical
//     pages and partitions them by owning node; (2) one engine per
//     node claims a hardware acceleration unit (the §4 FIFO unit
//     arbitration, a sim.TokenPool of Config.UnitsPerNode tokens per
//     node) and streams its partition off the local flash, four reads
//     per chip deep, through the node's Accel sched.Stream, its reads
//     yielding to host reads at the chips; (3) each engine reduces its
//     pages next to the flash and ships only the partial to the origin
//     over the integrated storage network; (4) the origin merges the
//     partials and DMAs the answer into host memory. HostMediated is the comparison arm: every
//     page crosses PCIe and the same kernel runs in host software.
//
// Beside the scan queries sits in-store graph traversal with walker
// migration (WalkMigrate), where the walk's state — vertex, steps,
// checksum, RNG — hops node to node over the fabric so every
// dependent lookup reads flash locally. Sync runs any of them to
// completion.
//
// Config.Admission selects a second comparison arm: Bypass (the
// pre-fix bug path — raw device interfaces, invisible to the
// scheduler).
//
// Ownership: a page an engine reads is an immutable image, and a
// kernel keeps nothing of it past scan — a search partial copies the
// page's edge residues into its one arena, a table scan appends the
// qualifying records to its match list. Each running engine, and the
// host-mediated loop, is one pooled record (engine.go) whose lanes
// carry their page completions bound once; it returns to the pool when
// its run joins, before its partial ships. So a query allocates its
// partition lists, partials and messages, and a page scanned allocates
// nothing.
package ispvol

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/volume"
)

// MergeEP is the fabric endpoint the subsystem binds on every node
// for query fan-out and result merge traffic (core.EPUser is left free
// for an application's own endpoint; this stays clear of it).
const MergeEP = core.EPUser + 1

// Admission selects the flash data path engines read through.
type Admission int

const (
	// Admitted is the production path: reads go through the node's
	// Accel sched.Stream — Accel-class admission under its token
	// budget — then issue device-side at bulk priority.
	Admitted Admission = iota
	// Bypass is the pre-fix scheduler-bypass bug, kept as an explicit
	// experiment arm: reads hit the raw device interfaces directly,
	// invisible to the scheduler and at ordinary priority at the chip,
	// so ISP load inflates realtime host tail latency without bound.
	Bypass
)

func (a Admission) String() string {
	switch a {
	case Admitted:
		return "admitted"
	case Bypass:
		return "bypass"
	default:
		return fmt.Sprintf("admission(%d)", int(a))
	}
}

// Config tunes the subsystem.
type Config struct {
	// UnitsPerNode is the number of hardware acceleration units on
	// each node, the tokens of the node's sim.TokenPool: its FIFO
	// grants are the paper's §4 "simple FIFO request scheduler". One
	// engine holds one unit for the duration of its partition, a graph
	// walk step for its flash read. Default 4.
	UnitsPerNode int
	// Admission selects the engine data path (see Admission).
	Admission Admission
}

// DefaultConfig returns the production configuration.
func DefaultConfig() Config {
	return Config{
		UnitsPerNode: 4,
		Admission:    Admitted,
	}
}

func (c Config) withDefaults() Config {
	if c.UnitsPerNode <= 0 {
		c.UnitsPerNode = 4
	}
	return c
}

// System is the distributed ISP runtime over one cluster + volume.
type System struct {
	c     *core.Cluster
	v     *volume.Volume
	cfg   Config
	retry *sched.Retrier // absorbs Accel admission backpressure for every engine
	// depth is a scan loop's read depth, the node's
	// (core.Params.ReadDepth): an engine's, admitted or Bypass, and the
	// host-mediated loop's. An admitted engine's reads are the
	// scheduler's Accel token budget, the same depth.
	depth int

	nodes     []*nodeISP
	pending   map[uint64]queryState
	nextQuery uint64
	engines   sim.Pool[engine]
	// chipInterleave's scratch, per chip key: a bucket's cursor and end
	// in sorted; and the chips in order of first appearance.
	iv struct {
		next, end, order []int
		sorted           []pageRef
	}
}

// nodeISP is one node's slice of the subsystem.
type nodeISP struct {
	node   *core.Node
	units  *sim.TokenPool
	stream *sched.Stream // at class Accel
	ep     *fabric.Endpoint
}

// queryState receives partial results at the origin.
type queryState interface {
	part(m *partMsg)
}

var (
	// ErrNoVolume reports a Range query on a System built without a
	// volume.
	ErrNoVolume = errors.New("ispvol: no volume attached; query a File source")
	// ErrBadOrigin reports a query whose origin is not a node of the
	// cluster.
	ErrBadOrigin = errors.New("ispvol: origin out of range")
	// ErrBadPlacement reports a query whose Placement is neither
	// InStore nor HostMediated.
	ErrBadPlacement = errors.New("ispvol: unknown placement")
)

// New attaches the subsystem to a cluster, scheduler and volume (all
// three must belong together). It binds MergeEP on every node. v may
// be nil for deployments that run queries over files (an rfs cluster
// file system instead of the logical volume); Range queries then fail
// with ErrNoVolume.
func New(c *core.Cluster, s *sched.Scheduler, v *volume.Volume, cfg Config) (*System, error) {
	cfg = cfg.withDefaults()
	sys := &System{c: c, v: v, cfg: cfg, retry: s.NewRetrier(0), pending: make(map[uint64]queryState)}
	sys.engines.New = sys.newEngine
	c.OnCheck(func() error { return sys.engines.Drained("ispvol engines") })
	chips := c.Params.CardsPerNode * c.Params.Geometry.Buses * c.Params.Geometry.ChipsPerBus
	sys.depth = c.Params.ReadDepth()
	sys.iv.next, sys.iv.end = make([]int, chips), make([]int, chips)
	for i := 0; i < c.Nodes(); i++ {
		n := c.Node(i)
		units := sim.NewTokenPool(fmt.Sprintf("isp-n%d", i), cfg.UnitsPerNode)
		c.OnCheck(units.Drained)
		st, err := s.NewStream(fmt.Sprintf("isp-n%d", i), i, sched.Accel)
		if err != nil {
			return nil, err
		}
		ep, err := n.NetNode().BindEndpoint(MergeEP)
		if err != nil {
			return nil, err
		}
		ns := &nodeISP{node: n, units: units, stream: st, ep: ep}
		ep.OnReceive = func(src fabric.NodeID, _ int, payload any) {
			sys.receive(ns, payload)
		}
		sys.nodes = append(sys.nodes, ns)
	}
	return sys, nil
}

// receive dispatches an inbound fabric message on a node.
func (sys *System) receive(ns *nodeISP, payload any) {
	switch m := payload.(type) {
	case *startMsg:
		sys.runPart(ns, m)
	case *walkerMsg:
		sys.runWalkStep(ns, m)
	case *partMsg:
		if q, ok := sys.pending[m.query]; ok {
			q.part(m)
		}
	default:
		panic(fmt.Sprintf("ispvol: unknown message %T", payload))
	}
}

// deliver routes a message from node src to node dst: over the fabric
// when remote (size bytes on the wire), directly when local.
func (sys *System) deliver(src, dst int, size int, msg any) {
	if src == dst {
		sys.receive(sys.nodes[dst], msg)
		return
	}
	if err := sys.nodes[src].ep.Send(fabric.NodeID(dst), size, msg, nil); err != nil {
		panic(fmt.Sprintf("ispvol: merge route missing: %v", err))
	}
}

// pageRef is one page of a query partition.
type pageRef struct {
	qidx int // index into the query's page list
	addr core.PageAddr
}

// chipKey is a page's (card, bus, chip) as one dense index.
func (sys *System) chipKey(a core.PageAddr) int {
	g := sys.c.Params.Geometry
	return (a.Card*g.Buses+a.Addr.Bus)*g.ChipsPerBus + a.Addr.Chip
}

// chipInterleave writes refs into dst[:0] reordered so consecutive
// reads target different flash chips, and returns it. The FTL's
// frontier allocation packs adjacent logical pages into one physical
// block — a single chip — so scanning a partition in logical order would
// convoy the engine's whole read window on one chip at a time while
// fifteen others idle. Engines scan pages independently (order never
// affects the result), so they are free to schedule by chip
// availability, the way the hardware issues reads to whichever bus is
// free. Buckets by (card, bus, chip), filled by a counting sort, are
// drained round-robin in the order each chip first appears; fully
// deterministic, and allocation-free once dst and the scratch have
// grown to the partition.
func (sys *System) chipInterleave(dst, refs []pageRef) []pageRef {
	iv := &sys.iv
	dst, iv.order = dst[:0], iv.order[:0]
	for _, r := range refs {
		k := sys.chipKey(r.addr)
		if iv.end[k] == 0 {
			iv.order = append(iv.order, k)
		}
		iv.end[k]++
	}
	off := 0
	for _, k := range iv.order { // end[k] counted bucket k; now it is its fill cursor
		iv.next[k], iv.end[k], off = off, off, off+iv.end[k]
	}
	iv.sorted = append(iv.sorted[:0], refs...)
	for _, r := range refs {
		k := sys.chipKey(r.addr)
		iv.sorted[iv.end[k]] = r
		iv.end[k]++
	}
	// Each round takes one page from every chip with pages left; a
	// drained chip leaves the rotation with its count back at zero.
	for live := iv.order; len(live) > 0; {
		n := 0
		for _, k := range live {
			dst = append(dst, iv.sorted[iv.next[k]])
			if iv.next[k]++; iv.next[k] < iv.end[k] {
				live[n], n = k, n+1
			} else {
				iv.end[k] = 0
			}
		}
		live = live[:n]
	}
	return dst
}

// readPage issues one engine flash read on node n's data path.
func (sys *System) readPage(n int, ref pageRef, cb func(data []byte, err error)) {
	if sys.cfg.Admission == Bypass {
		// The bug path: straight to the device interfaces, unadmitted.
		// It reproduces the pre-fix behavior.
		sys.nodes[n].node.ISPReadDirect(ref.addr, cb)
		return
	}
	sys.retry.Read(sys.nodes[n].stream, ref.addr, cb)
}

// checkOrigin validates a query's origin node.
func (sys *System) checkOrigin(origin int) error {
	if origin < 0 || origin >= sys.c.Nodes() {
		return fmt.Errorf("%w: %d", ErrBadOrigin, origin)
	}
	return nil
}

// startQuery registers origin-side query state and returns its id.
func (sys *System) startQuery(q queryState) uint64 {
	id := sys.nextQuery
	sys.nextQuery++
	sys.pending[id] = q
	return id
}

// finishQuery drops the registration.
func (sys *System) finishQuery(id uint64) { delete(sys.pending, id) }

// dmaToHost models the final result DMA into the origin host's
// memory: size bytes through a read buffer plus the completion
// interrupt, then cb. Zero-size results skip the transfer.
func (sys *System) dmaToHost(origin, size int, cb func()) {
	if size <= 0 {
		cb()
		return
	}
	sys.nodes[origin].node.Host.PageUp(size, cb)
}
