// Package volume is the cluster-wide logical volume of the storage
// manager (paper §4): the host path's address space. It stripes
// logical pages across every flash card in the cluster, backs each
// card with a host-resident FTL (internal/ftl) for mapping, garbage
// collection, wear leveling and bad-block management, and routes all
// resulting flash I/O — host data and GC relocation alike — through
// the request scheduler (internal/sched), so the dispatcher sees and
// schedules every operation the appliance performs.
//
// Layering per card:
//
//	volume.Stream (logical page, QoS class)
//	  -> ftl.FTL (LPN -> physical page, GC serialization)
//	    -> sched.Port (flash ops admitted at the card's node, at the
//	       class the op's tag rides; GC traffic on Background)
//	      -> core.Node.SubmitHostBatch (batched doorbells, DMA, flash)
//
// GC awareness: each FTL reports collection start/stop and free-block
// urgency through its hooks; the volume aggregates urgency per node
// and feeds it to the scheduler, whose Background token budget defers
// relocation work while latency-class traffic is hot and escalates as
// headroom shrinks.
package volume

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/ftl"
	"repro/internal/sched"
	"repro/internal/sim"
)

// ErrOutOfRange reports a logical page beyond the volume.
var ErrOutOfRange = errors.New("volume: logical page out of range")

// ErrReservedClass refuses a tenant stream on a class the stack keeps
// for itself: Accel (device-side reads) or Background (housekeeping).
// The cache's streams refuse them with it too.
var ErrReservedClass = errors.New("volume: class not usable by tenants")

// Config tunes the volume.
type Config struct {
	// FTL configures every card's translation layer.
	FTL ftl.Config
	// Mirror enables cross-node replication: every logical page keeps
	// a primary and a replica on cards of different nodes, writes fan
	// out to both at the stream's class, reads fail over to the
	// survivor when the primary is dead or uncorrectable, and a
	// replaced card is rebuilt from its partners on the Background
	// class. Requires at least two nodes and halves the logical space.
	Mirror bool
}

// DefaultConfig returns the standard volume configuration.
func DefaultConfig() Config {
	return Config{FTL: ftl.DefaultConfig()}
}

// Volume is a logical address space over every card of a cluster.
type Volume struct {
	c   *core.Cluster
	s   *sched.Scheduler
	rt  *sched.Retrier // absorbs admission backpressure for every card
	cfg Config

	cards   []*card // node-major: node*CardsPerNode + card
	perCard int     // logical pages per card FTL
	half    int     // mirrored: primary pages per card (perCard/2)

	// mirroring state (see mirror.go)
	rebuildUrg     []func(u float64) // per node: the rebuild's urgency source
	failovers      sim.Pool[failover]
	mirrorWrites   sim.Pool[mirrorWrite]
	degradedReads  int64
	degradedWrites int64
	pagesRebuilt   int64
}

// New builds a volume over cluster c, admitting all flash traffic
// through scheduler s. The scheduler must belong to the same cluster.
func New(c *core.Cluster, s *sched.Scheduler, cfg Config) (*Volume, error) {
	if cfg.Mirror && c.Nodes() < 2 {
		return nil, errors.New("volume: mirroring needs at least two nodes")
	}
	v := &Volume{c: c, s: s, rt: s.NewRetrier(0), cfg: cfg}
	v.failovers.New = v.newFailover
	v.mirrorWrites.New = v.newMirrorWrite
	c.OnCheck(func() error {
		return errors.Join(v.failovers.Drained("volume failovers"), v.mirrorWrites.Drained("volume mirror writes"))
	})
	p := c.Params
	for n := 0; n < c.Nodes(); n++ {
		for ci := 0; ci < p.CardsPerNode; ci++ {
			cd, err := newCard(v, n, ci)
			if err != nil {
				return nil, err
			}
			v.cards = append(v.cards, cd)
		}
	}
	v.perCard = v.cards[0].f.LogicalPages()
	v.half = v.perCard / 2
	v.rebuildUrg = make([]func(float64), c.Nodes())
	for n := range v.rebuildUrg {
		v.rebuildUrg[n] = s.UrgencySource(n)
	}
	return v, nil
}

// Pages returns the number of logical pages the volume exposes. A
// mirrored volume exposes half the raw logical space: each card's
// lower half holds primaries, its upper half replicas of its partner.
func (v *Volume) Pages() int {
	if v.cfg.Mirror {
		return v.half * len(v.cards)
	}
	return v.perCard * len(v.cards)
}

// PageSize returns the volume's page size.
func (v *Volume) PageSize() int { return v.c.Params.PageSize() }

// locate maps a volume LPN to its card and the card-local LPN.
// Consecutive volume pages land on consecutive cards (round-robin
// striping), so sequential logical traffic spreads over every node
// and card in the cluster.
func (v *Volume) locate(lpn int) (*card, int) {
	n := len(v.cards)
	return v.cards[lpn%n], lpn / n
}

// Stats aggregates the per-card FTL counters plus the volume's fault
// and repair counters. The fault fields carry omitempty so a
// failure-free run exports byte-identical JSON to the pre-fault-domain
// stats.
type Stats struct {
	HostReads     int64   `json:"host_reads"`
	HostWrites    int64   `json:"host_writes"`
	HostTrims     int64   `json:"host_trims"`
	FlashPrograms int64   `json:"flash_programs"`
	FlashErases   int64   `json:"flash_erases"`
	GCMoves       int64   `json:"gc_moves"`
	GCAborts      int64   `json:"gc_aborts"`
	BadBlocks     int64   `json:"bad_blocks"`
	WriteAmp      float64 `json:"write_amplification"`
	MinFreeBlocks int     `json:"min_free_blocks"`

	// fault and repair counters
	CorrectedBits      int64 `json:"corrected_bits,omitempty"`      // single-bit flips repaired by controller ECC
	UncorrectableReads int64 `json:"uncorrectable_reads,omitempty"` // host reads failed by ECC
	ReadFaults         int64 `json:"read_faults,omitempty"`         // host reads completed with any error
	LostPages          int64 `json:"lost_pages,omitempty"`          // mappings dropped on unreadable pages
	DegradedReads      int64 `json:"degraded_reads,omitempty"`      // reads served by the replica after primary loss
	DegradedWrites     int64 `json:"degraded_writes,omitempty"`     // mirrored writes that reached only one copy
	PagesRebuilt       int64 `json:"pages_rebuilt,omitempty"`       // pages restored by the rebuild pump
}

// Delta returns the counters accumulated since a prior snapshot, with
// write amplification recomputed over the window. MinFreeBlocks is a
// gauge and keeps its current value. Use it to confine measurements
// to a workload window, excluding seeding and warm-up I/O.
func (s Stats) Delta(since Stats) Stats {
	d := Stats{
		HostReads:     s.HostReads - since.HostReads,
		HostWrites:    s.HostWrites - since.HostWrites,
		HostTrims:     s.HostTrims - since.HostTrims,
		FlashPrograms: s.FlashPrograms - since.FlashPrograms,
		FlashErases:   s.FlashErases - since.FlashErases,
		GCMoves:       s.GCMoves - since.GCMoves,
		GCAborts:      s.GCAborts - since.GCAborts,
		BadBlocks:     s.BadBlocks - since.BadBlocks,
		MinFreeBlocks: s.MinFreeBlocks,

		CorrectedBits:      s.CorrectedBits - since.CorrectedBits,
		UncorrectableReads: s.UncorrectableReads - since.UncorrectableReads,
		ReadFaults:         s.ReadFaults - since.ReadFaults,
		LostPages:          s.LostPages - since.LostPages,
		DegradedReads:      s.DegradedReads - since.DegradedReads,
		DegradedWrites:     s.DegradedWrites - since.DegradedWrites,
		PagesRebuilt:       s.PagesRebuilt - since.PagesRebuilt,
	}
	if d.HostWrites > 0 {
		d.WriteAmp = sim.Finite(float64(d.FlashPrograms) / float64(d.HostWrites))
	}
	return d
}

// Stats returns the volume-wide FTL counters: those of every FTL a
// card has mounted, the ones ReplaceCard retired included, so a window
// that spans a replace counts what the dead FTL did before it.
// MinFreeBlocks reads only the live FTLs.
func (v *Volume) Stats() Stats {
	var st Stats
	st.MinFreeBlocks = -1
	for _, cd := range v.cards {
		for _, f := range cd.ftls {
			l := f.Log
			st.HostReads += l.Reads
			st.HostWrites += l.Writes
			st.HostTrims += f.HostTrims
			st.FlashPrograms += l.Programs
			st.FlashErases += l.Erases
			st.GCMoves += l.Moves
			st.GCAborts += l.Aborts
			st.BadBlocks += l.BadUnits
			st.UncorrectableReads += l.Uncorrectable
			st.ReadFaults += l.ReadFaults
			st.LostPages += l.LostPages
		}
		if st.MinFreeBlocks < 0 || cd.f.FreeBlocks() < st.MinFreeBlocks {
			st.MinFreeBlocks = cd.f.FreeBlocks()
		}
	}
	for n := 0; n < v.c.Nodes(); n++ {
		for ci := 0; ci < v.c.Params.CardsPerNode; ci++ {
			st.CorrectedBits += v.c.Node(n).Controller(ci).CorrectedBits.Value()
		}
	}
	st.DegradedReads = v.degradedReads
	st.DegradedWrites = v.degradedWrites
	st.PagesRebuilt = v.pagesRebuilt
	if st.HostWrites > 0 {
		st.WriteAmp = sim.Finite(float64(st.FlashPrograms) / float64(st.HostWrites))
	}
	return st
}

// FTL exposes the translation layer of one card (node-major index),
// mainly for tests and instrumentation.
func (v *Volume) FTL(i int) *ftl.FTL { return v.cards[i].f }

// Cards returns the number of card FTLs backing the volume.
func (v *Volume) Cards() int { return len(v.cards) }

// --- streams ---------------------------------------------------------

// Stream is a client's QoS-classed handle onto the volume. Requests
// are admitted at the owner node of each page (the FTL driver runs on
// the node that hosts the flash), so a stream may address the whole
// logical space.
type Stream struct {
	v     *Volume
	class sched.Class
}

// NewStream opens a logical stream at the given QoS class. Accel is
// reserved for device-side ISP reads (an Accel sched.Stream) and
// Background for the volume's own housekeeping traffic.
func (v *Volume) NewStream(name string, class sched.Class) (*Stream, error) {
	if class >= sched.Accel {
		return nil, fmt.Errorf("%w: %v", ErrReservedClass, class)
	}
	return &Stream{v: v, class: class}, nil
}

// LogicalPages returns the volume's logical page count. Together with
// PageSize it makes a stream usable as a flat block device
// (blockfs.Device) — the "conventional FS on the storage manager" arm
// of the file-layer ablation.
func (st *Stream) LogicalPages() int { return st.v.Pages() }

// PageSize returns the volume's page size.
func (st *Stream) PageSize() int { return st.v.PageSize() }

// Read fetches a logical page. The callback fires when the page is in
// host memory (or failed); scheduler backpressure is absorbed by
// retrying, so unlike sched.Stream.Read there is no admission error.
// On a mirrored volume a read whose primary copy is dead, rebuilding,
// or uncorrectable fails over to the replica (see mirror.go).
func (st *Stream) Read(lpn int, cb func(data []byte, err error)) {
	v := st.v
	if lpn < 0 || lpn >= v.Pages() {
		cb(nil, fmt.Errorf("%w: %d", ErrOutOfRange, lpn))
		return
	}
	if v.cfg.Mirror {
		v.readMirrored(lpn, ftl.IOTag(st.class), cb)
		return
	}
	cd, clpn := v.locate(lpn)
	cd.f.ReadTagged(clpn, ftl.IOTag(st.class), cb)
}

// Write stores a logical page. The payload is snapshotted before the
// call returns — copied whatever its shape, never adopted — so the
// caller may reuse its buffer at once. On a mirrored volume the write
// fans out to both copies at the stream's class; it succeeds if at
// least one copy lands (the other is counted as a degraded write).
func (st *Stream) Write(lpn int, data []byte, cb func(err error)) {
	st.v.write(lpn, data, ftl.IOTag(st.class), cb)
}

// write is the one body of Stream.Write and WriteBackground.
func (v *Volume) write(lpn int, data []byte, tag ftl.IOTag, cb func(err error)) {
	if lpn < 0 || lpn >= v.Pages() {
		cb(fmt.Errorf("%w: %d", ErrOutOfRange, lpn))
		return
	}
	if v.cfg.Mirror {
		v.writeMirrored(lpn, data, tag, cb)
		return
	}
	cd, clpn := v.locate(lpn)
	cd.f.WriteTagged(clpn, data, tag, cb)
}

// Trim drops a logical page. A trim is a host-side metadata update in
// the card's FTL (the mapping lives in host DRAM; no flash command is
// issued), so there is no operation for the scheduler to admit — but
// it is counted (Stats.HostTrims, per-window in Stats.Delta) so trims
// are no longer invisible to the volume's accounting.
func (st *Stream) Trim(lpn int) error {
	v := st.v
	if lpn < 0 || lpn >= v.Pages() {
		return fmt.Errorf("%w: %d", ErrOutOfRange, lpn)
	}
	cd, clpn := v.locate(lpn)
	if v.cfg.Mirror {
		rep, rclpn := v.replicaOf(cd, clpn)
		err := cd.f.Trim(clpn)
		if rerr := rep.f.Trim(rclpn); err == nil {
			err = rerr
		}
		return err
	}
	return cd.f.Trim(clpn)
}

// Phys resolves one logical page to its current physical address: the
// physical-address query of the paper's Figure 8 (step 1), and the
// point form of PhysMap for queries over scattered candidate lists
// (LSH buckets, graph vertices) rather than contiguous ranges. Host
// software hands the result to an in-store engine, which streams the
// page directly off the flash (through an Accel sched.Stream) with no host
// on the data path. The address is a snapshot — an overwrite, trim or
// GC relocation of the page invalidates it — so engines scan
// read-stable data or re-query after mutation.
func (v *Volume) Phys(lpn int) (core.PageAddr, error) {
	if lpn < 0 || lpn >= v.Pages() {
		return core.PageAddr{}, fmt.Errorf("%w: %d", ErrOutOfRange, lpn)
	}
	cd, clpn := v.locate(lpn)
	a, err := cd.f.Phys(clpn)
	if err != nil {
		return core.PageAddr{}, fmt.Errorf("lpn %d: %w", lpn, err)
	}
	return core.PageAddr{Node: cd.node, Card: cd.idx, Addr: a}, nil
}

// PhysMap resolves the logical range [lo, hi) to physical page
// addresses: addrs[i] is the current location of logical page lo+i.
// It is the bulk form of Phys — the address list an origin
// node computes once per query and partitions over the cluster's
// in-store engines. The same staleness caveat applies to every entry.
func (v *Volume) PhysMap(lo, hi int) ([]core.PageAddr, error) {
	if lo < 0 || hi > v.Pages() || lo > hi {
		return nil, fmt.Errorf("%w: [%d,%d)", ErrOutOfRange, lo, hi)
	}
	addrs := make([]core.PageAddr, 0, hi-lo)
	for lpn := lo; lpn < hi; lpn++ {
		cd, clpn := v.locate(lpn)
		a, err := cd.f.Phys(clpn)
		if err != nil {
			return nil, fmt.Errorf("lpn %d: %w", lpn, err)
		}
		addrs = append(addrs, core.PageAddr{Node: cd.node, Card: cd.idx, Addr: a})
	}
	return addrs, nil
}

// --- per-card FTL plumbing -------------------------------------------

// card owns one flash card's FTL and the port it runs over.
type card struct {
	v    *Volume
	node int
	idx  int
	gidx int // global node-major index into v.cards
	f    *ftl.FTL
	// ftls is every FTL the card has mounted, f last: Stats counts the
	// ones ReplaceCard retired too.
	ftls []*ftl.FTL
	// port admits the FTL's flash ops through the scheduler; it and urg,
	// the card's urgency source, are kept across remounts.
	port *sched.Port
	urg  func(u float64)

	// mirroring fault state (see mirror.go)
	dead        bool   // card failed; route reads to the partner
	rebuilding  bool   // replacement card being refilled
	rebuilt     []bool // per-clpn: page current again (pump copy or fresh write)
	rebuildNext int    // next clpn the pump will scan
	inflight    []int  // clpns with a pump copy in flight
	deferred    []deferredWrite
	rebuildDone func()
}

func newCard(v *Volume, node, idx int) (*card, error) {
	cd := &card{v: v, node: node, idx: idx, urg: v.s.UrgencySource(node)}
	cd.gidx = node*v.c.Params.CardsPerNode + idx
	geo := v.c.Params.Geometry
	cd.port = v.rt.NewPort(func(ppn int) core.PageAddr {
		return core.PageAddr{Node: node, Card: idx, Addr: geo.AddrOf(ppn)}
	})
	if err := cd.mountFTL(); err != nil {
		return nil, err
	}
	v.c.OnCheck(func() error { return cd.f.Log.Check() }) // the card's FTL of the moment
	return cd, nil
}

// mountFTL builds a fresh translation layer for the card over its port
// and wires its GC urgency into the node's Background token budget.
func (cd *card) mountFTL() error {
	f, err := ftl.New(cd.port, cd.v.c.Params.Geometry, cd.v.cfg.FTL)
	if err != nil {
		return err
	}
	cd.f = f
	cd.ftls = append(cd.ftls, f)
	f.Log.Urgent = func() { cd.urg(f.Log.Urgency()) }
	f.Log.Urgent() // a remount's fresh FTL replaces the dead one's urgency
	return nil
}
