package rfs

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/nand"
	"repro/internal/sched"
	"repro/internal/sim"
)

// ClusterBackend stripes the file system's log over every chip of
// every card of every node of a cluster — the paper's §4 stack at
// appliance scale, with RFS on top of the whole machine instead of
// one card. All I/O is admitted through the request scheduler at the
// owning node: app reads and writes at the file handle's QoS class,
// segment cleaning (relocation copies and victim erases) on the
// Background class, where the dispatcher's GC token budget defers it
// behind latency-class tenants and escalates with cleaning urgency
// (wired from the FS's cleaner by NewClusterFS).
//
// Writes are admission-sequenced per (node, class): NAND programs
// pages of a block strictly in order, and the FS allocates each
// class's frontier in issue order, so a backpressured write must
// stall its class's later writes, never let them overtake (the same
// rule as the volume's per-IOTag sequencers). Each tenant class plus
// cleaning gets its own frontier lane in the FS, so two classes never
// share a NAND block.
type ClusterBackend struct {
	s   *sched.Scheduler
	lay Layout
	rt  *sched.Retrier // absorbs admission backpressure

	nodes []*backendNode

	cardsPerNode, buses, chipsPerBus int
	blocksPerChip, pagesPerBlock     int
}

// backendNode holds one node's admission plumbing.
type backendNode struct {
	streams [sched.NumClasses]*sched.Stream
	wseqs   [sched.NumClasses]*sched.Sequencer
}

// ClusterConfig tunes the cluster backend.
type ClusterConfig struct {
	// RetryDelay is the backoff before re-admitting an op that hit
	// scheduler backpressure (default 5 µs).
	RetryDelay sim.Time
}

// NewClusterBackend builds the backend over cluster c, admitting all
// flash traffic through scheduler s (which must belong to the same
// cluster).
func NewClusterBackend(c *core.Cluster, s *sched.Scheduler, cfg ClusterConfig) (*ClusterBackend, error) {
	p := c.Params
	g := p.Geometry
	b := &ClusterBackend{
		s:             s,
		rt:            s.NewRetrier(cfg.RetryDelay),
		cardsPerNode:  p.CardsPerNode,
		buses:         g.Buses,
		chipsPerBus:   g.ChipsPerBus,
		blocksPerChip: g.BlocksPerChip,
		pagesPerBlock: g.PagesPerBlock,
	}
	b.lay = Layout{
		Chips:       c.Nodes() * p.CardsPerNode * g.Buses * g.ChipsPerBus,
		SegsPerChip: g.BlocksPerChip,
		PagesPerSeg: g.PagesPerBlock,
		PageSize:    g.PageSize,
		// One write lane per tenant class; the FS adds the cleaning
		// lane, whose traffic rides the Background streams.
		Lanes: int(sched.Accel),
	}
	for n := 0; n < c.Nodes(); n++ {
		bn := &backendNode{}
		for cl := sched.Class(0); cl < sched.NumClasses; cl++ {
			if cl == sched.Accel {
				// Device-side ISP reads never flow through the FS host
				// path; engines read via sched.AccelStream instead.
				continue
			}
			st, err := s.NewStream(fmt.Sprintf("rfs-n%d-%s", n, cl), n, cl)
			if err != nil {
				return nil, err
			}
			bn.streams[cl] = st
			bn.wseqs[cl] = b.rt.NewSequencer()
		}
		b.nodes = append(b.nodes, bn)
	}
	return b, nil
}

// NewClusterFS builds a cluster backend and mounts a file system on
// it, wiring the FS's cleaning urgency into the scheduler's
// Background token budget on every node (the FS stripes its log over
// all of them, so cleaning pressure is cluster-wide). Do not mount it
// on a cluster that backs a volume: the backend's Layout claims every
// chip × BlocksPerChip of every card and the volume's per-card FTLs
// claim the same blocks, so each would program and erase the other's
// flash (workload.Build refuses the pair). That the two also push
// urgency into the scheduler's one per-node slot is the lesser problem.
func NewClusterFS(c *core.Cluster, s *sched.Scheduler, ccfg ClusterConfig, cfg Config) (*FS, *ClusterBackend, error) {
	b, err := NewClusterBackend(c, s, ccfg)
	if err != nil {
		return nil, nil, err
	}
	fs, err := NewWithBackend(b, cfg)
	if err != nil {
		return nil, nil, err
	}
	fs.Cleaner.Urgent = func() {
		u := fs.Cleaner.Urgency()
		for n := range b.nodes {
			s.SetGCUrgency(n, u)
		}
	}
	c.OnCheck(func() error {
		return errors.Join(fs.CheckInvariants(), fs.ops.Drained("rfs page ops"), fs.Cleaner.Check())
	})
	return fs, b, nil
}

// Layout exposes the cluster-wide log shape.
func (b *ClusterBackend) Layout() Layout { return b.lay }

// Addr resolves a linear ppn to its cluster-wide location. The chip
// index decomposes node-major (node, card, bus, chip), so the FS's
// round-robin chip cursor walks every chip of the appliance once per
// cycle — sequential appends stripe across all nodes, cards, buses
// and chips.
func (b *ClusterBackend) Addr(ppn int) core.PageAddr {
	page := ppn % b.pagesPerBlock
	q := ppn / b.pagesPerBlock
	block := q % b.blocksPerChip
	q /= b.blocksPerChip
	chip := q % b.chipsPerBus
	q /= b.chipsPerBus
	bus := q % b.buses
	q /= b.buses
	card := q % b.cardsPerNode
	node := q / b.cardsPerNode
	return core.PageAddr{Node: node, Card: card,
		Addr: nand.Addr{Bus: bus, Chip: chip, Block: block, Page: page}}
}

// classFor maps an op onto the scheduler class it is admitted at.
func classFor(class sched.Class, clean bool) sched.Class {
	if clean {
		return sched.Background
	}
	if class >= sched.Accel {
		return sched.Batch
	}
	return class
}

// ReadPage admits a physical read at the owning node, retrying on
// backpressure (reads have no ordering constraint).
func (b *ClusterBackend) ReadPage(ppn int, class sched.Class, clean bool, cb func([]byte, error)) {
	a := b.Addr(ppn)
	b.rt.Read(b.nodes[a.Node].streams[classFor(class, clean)], a, cb)
}

// WritePage admits a physical program through the (node, class) FIFO
// sequencer: strictly in issue order, stalling (not reordering) on
// backpressure. It adopts img (Backend).
func (b *ClusterBackend) WritePage(ppn int, class sched.Class, clean bool, img []byte, cb func(error)) {
	a := b.Addr(ppn)
	cl := classFor(class, clean)
	bn := b.nodes[a.Node]
	bn.wseqs[cl].WriteImage(bn.streams[cl], a, img, cb)
}

// EraseSeg admits a segment erase on the owning node's Background
// stream, retrying on backpressure. The FS only erases after every
// relocation write completed and in-flight reads drained, so no
// ordering hazard exists.
func (b *ClusterBackend) EraseSeg(seg int, cb func(error)) {
	a := b.Addr(seg * b.pagesPerBlock)
	a.Addr.Page = 0
	b.rt.Erase(b.nodes[a.Node].streams[sched.Background], a, cb)
}
