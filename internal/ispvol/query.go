package ispvol

// The query executor: every scan query is a kernel (what to compute
// per page) over a Source (which pages) under a Placement (who
// computes). Each step of the Figure 8 pipeline — origin check,
// address resolution, fan-out, engine scan, partial merge, result DMA,
// and the host-mediated worker loop that stands in for the engines —
// is written here once, for all kernels.

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/rfs"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/volume"
)

// Placement selects who reduces a query's pages.
type Placement int

const (
	// InStore is the paper's path: one engine per owning node streams
	// its partition off the local flash and only the reduction crosses
	// the network to the origin, which DMAs the merged result to its
	// host.
	InStore Placement = iota
	// HostMediated is the comparison arm: the origin host reads every
	// page through the source's host path at hostClass (batched
	// doorbells, PCIe DMA, read buffers) and runs the same kernel in
	// software on hostThreads worker threads. The pages are already in
	// host memory, so there is no final DMA.
	HostMediated
)

const (
	// hostClass is the QoS class host-mediated queries read at.
	hostClass = sched.Batch
	// hostThreads is the host worker-thread count that host-mediated
	// queries reduce pages on.
	hostThreads = 8
)

func (p Placement) String() string {
	switch p {
	case InStore:
		return "in-store"
	case HostMediated:
		return "host-mediated"
	default:
		return fmt.Sprintf("placement(%d)", int(p))
	}
}

// Source names the pages a query runs over: a logical range of the
// System's volume (Range) or a file of a cluster RFS (File). The
// physical addresses it resolves are snapshots, so the pages must stay
// read-stable for the duration of the query.
type Source interface {
	// resolve returns the physical address of source pages idx (of
	// every page, in order, when idx is nil) and the page size. All
	// bounds checking happens here, for both placements.
	resolve(sys *System, idx []int) ([]core.PageAddr, int, error)
	// reader returns the host-path read of source page i at
	// hostClass.
	reader(sys *System, origin int) (func(i int, cb func([]byte, error)), error)
}

type volumeRange struct{ lo, hi int }

// Range is logical pages [lo, hi) of the System's volume, resolved
// through volume.PhysMap (the RFS-style physical address query). Page
// i of the source is logical page lo+i.
func Range(lo, hi int) Source { return volumeRange{lo, hi} }

func (r volumeRange) resolve(sys *System, idx []int) ([]core.PageAddr, int, error) {
	if sys.v == nil {
		return nil, 0, ErrNoVolume
	}
	if idx == nil {
		addrs, err := sys.v.PhysMap(r.lo, r.hi)
		return addrs, sys.v.PageSize(), err
	}
	if r.lo < 0 || r.hi > sys.v.Pages() || r.lo > r.hi {
		return nil, 0, fmt.Errorf("%w: [%d,%d)", volume.ErrOutOfRange, r.lo, r.hi)
	}
	addrs := make([]core.PageAddr, len(idx))
	for i, p := range idx {
		if p < 0 || p >= r.hi-r.lo {
			return nil, 0, fmt.Errorf("%w: %d", volume.ErrOutOfRange, r.lo+p)
		}
		a, err := sys.v.Phys(r.lo + p)
		if err != nil {
			return nil, 0, err
		}
		addrs[i] = a
	}
	return addrs, sys.v.PageSize(), nil
}

func (r volumeRange) reader(sys *System, origin int) (func(int, func([]byte, error)), error) {
	st, err := sys.v.NewStream(fmt.Sprintf("isp-hostmed-n%d", origin), hostClass)
	if err != nil {
		return nil, err
	}
	return func(i int, cb func([]byte, error)) { st.Read(r.lo+i, cb) }, nil
}

type fileSource struct{ f *rfs.File }

// File is every page of a cluster-RFS file, resolved through
// rfs.File.PhysicalAddrs — Figure 8 end to end at appliance scale.
func File(f *rfs.File) Source { return fileSource{f} }

func (s fileSource) resolve(_ *System, idx []int) ([]core.PageAddr, int, error) {
	addrs, err := s.f.PhysicalAddrs()
	if err != nil {
		return nil, 0, err
	}
	if idx != nil {
		all := addrs
		addrs = make([]core.PageAddr, len(idx))
		for i, p := range idx {
			if p < 0 || p >= len(all) {
				return nil, 0, fmt.Errorf("%w: page %d outside the %d-page file", rfs.ErrBadOffset, p, len(all))
			}
			addrs[i] = all[p]
		}
	}
	return addrs, s.f.PageSize(), nil
}

func (s fileSource) reader(sys *System, _ int) (func(int, func([]byte, error)), error) {
	return s.f.At(hostClass).ReadPage, nil
}

// kernel is the per-query-type code: search, table scan or nearest
// neighbor. One value travels origin -> engines inside the start
// message (standing in for its wire encoding) and keeps the origin's
// merge state.
type kernel interface {
	// startBytes is the wire size of a start message carrying the
	// kernel's arguments and refs page references.
	startBytes(refs int) int
	// newPartial returns an empty reduction of up to pages pages: one
	// per engine, or one for a whole host-mediated query.
	newPartial(ps, pages int) partial
	// hostCost is the host CPU time to reduce one page in software.
	hostCost(ps int) sim.Time
	// merge folds a finished partial into the origin state.
	merge(p partial)
	// finish completes the merge over the query's pages and returns
	// the result's size in bytes: what InStore DMAs to the origin host.
	finish(pages, ps int) int
}

// partial is one engine's (or the host workers') reduction of its
// pages.
type partial interface {
	// scan reduces one page; false counts the page as failed.
	scan(ref pageRef, data []byte) bool
	// wireBytes is the size of the partial shipped to the origin.
	wireBytes() int
}

// startMsg fans a query partition out to one node's engine (Figure 8
// step 2).
type startMsg struct {
	query  uint64
	origin int
	ps     int // page size of the scanned store
	k      kernel
	refs   []pageRef
}

// partMsg returns a reduction to the origin: an engine's kernel
// partial, or a finished walker.
type partMsg struct {
	query  uint64
	failed int // pages whose read or reduction failed
	p      partial
	walk   *walkDone
}

// queryStats is what the executor reports about a completed query;
// the kernel's entry point folds it into the typed result.
type queryStats struct {
	pages, ps int
	failed    int
	toHost    int64 // bytes that crossed into the origin host's memory
	elapsed   sim.Time
}

// rate is n per second of elapsed virtual time.
func (st queryStats) rate(n float64) float64 {
	if st.elapsed <= 0 {
		return 0
	}
	return n / st.elapsed.Seconds()
}

// query is the origin-side state of one scan query.
type query struct {
	sys          *System
	id           uint64
	origin       int
	k            kernel
	st           queryStats
	pendingParts int
	start        sim.Time
	fin          func(queryStats, error)
}

// run executes kernel k over pages idx of src (every page when idx is
// nil). It is asynchronous: fin fires exactly once, in virtual time,
// when the result is in the origin host's memory; the caller drives
// the engine. A zero-page query with nothing to DMA completes
// synchronously.
//
//simlint:once fin
func (sys *System) run(origin int, src Source, idx []int, k kernel, pl Placement, fin func(queryStats, error)) {
	if err := sys.checkOrigin(origin); err != nil {
		fin(queryStats{}, err)
		return
	}
	if pl != InStore && pl != HostMediated {
		fin(queryStats{}, fmt.Errorf("%w: %v", ErrBadPlacement, pl))
		return
	}
	// Figure 8 step 1: host software resolves the physical address
	// list. HostMediated needs only the count, but resolving on both
	// arms is what makes them fail identically on bad input.
	addrs, ps, err := src.resolve(sys, idx)
	if err != nil {
		fin(queryStats{}, err)
		return
	}
	q := &query{sys: sys, origin: origin, k: k, start: sys.c.Eng.Now(), fin: fin,
		st: queryStats{pages: len(addrs), ps: ps}}
	if pl == InStore {
		q.fanOut(addrs)
		return
	}
	read, err := src.reader(sys, origin)
	if err != nil {
		fin(queryStats{}, err)
		return
	}
	q.hostScan(read, idx)
}

// fanOut partitions the address list by owning node and ships each
// partition to its node's engine. One software + RPC charge covers
// the whole fan-out: the host sends the kernel arguments and address
// lists, then gets out of the way until the merge.
func (q *query) fanOut(addrs []core.PageAddr) {
	sys := q.sys
	// Count, then fill one backing array: each node's partition is a
	// window of it, in address-list order.
	parts := make([][]pageRef, sys.c.Nodes())
	count := make([]int, len(parts))
	for _, a := range addrs {
		count[a.Node]++
	}
	refs, off := make([]pageRef, len(addrs)), 0
	for n, c := range count {
		parts[n] = refs[off : off : off+c]
		off += c
	}
	for i, a := range addrs {
		parts[a.Node] = append(parts[a.Node], pageRef{qidx: i, addr: a})
	}
	q.id = sys.startQuery(q)
	for _, refs := range parts {
		if len(refs) > 0 {
			q.pendingParts++
		}
	}
	if q.pendingParts == 0 {
		q.finish()
		return
	}
	host := sys.nodes[q.origin].node.Host
	host.ChargeSoftware(func() {
		host.RPC(func() {
			for n, refs := range parts {
				if len(refs) == 0 {
					continue
				}
				msg := &startMsg{query: q.id, origin: q.origin, ps: q.st.ps, k: q.k, refs: refs}
				sys.deliver(q.origin, n, q.k.startBytes(len(refs)), msg)
			}
		})
	})
}

// part merges one engine's partial into the origin state.
func (q *query) part(m *partMsg) {
	q.st.failed += m.failed
	q.k.merge(m.p)
	q.pendingParts--
	if q.pendingParts == 0 {
		q.finish()
	}
}

// finish completes the merge, DMAs the result into the origin host's
// memory and stamps the elapsed time.
func (q *query) finish() {
	q.sys.finishQuery(q.id)
	size := q.k.finish(q.st.pages, q.st.ps)
	q.st.toHost = int64(size)
	q.sys.dmaToHost(q.origin, size, q.complete)
}

func (q *query) complete() {
	q.st.elapsed = q.sys.c.Eng.Now() - q.start
	q.fin(q.st, nil)
}
