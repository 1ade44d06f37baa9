package rfs

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/nand"
	"repro/internal/reclaim"
	"repro/internal/sched"
	"repro/internal/sim"
)

// ClusterBackend is the port (reclaim.Port) of a file system's page
// log striped over every chip of every card of every node of a
// cluster — the paper's §4 stack at appliance scale, with RFS on top
// of the whole machine instead of one card. Its pages are laid out
// node-major (pageAddr). All I/O is admitted through the request
// scheduler at the owning node: app reads and writes at the file
// handle's QoS class, segment cleaning (relocation copies and victim
// erases) on the Background class, where the dispatcher's GC token
// budget defers it behind latency-class tenants and escalates with
// cleaning urgency (wired from the log by NewClusterFS).
//
// Writes are admission-sequenced per (node, class): NAND programs
// pages of a block strictly in order, and the FS allocates each
// class's frontier in issue order, so a backpressured write must
// stall its class's later writes, never let them overtake (the same
// rule as the volume's per-IOTag sequencers). Each tenant class plus
// cleaning gets its own frontier lane in the FS, so two classes never
// share a NAND block.
type ClusterBackend struct {
	rt    *sched.Retrier // absorbs admission backpressure
	nodes []*backendNode
	geo   nand.Geometry
	cards int // per node
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

// newClusterBackend builds the backend over cluster c, admitting all
// flash traffic through scheduler s (which must belong to the same
// cluster).
func newClusterBackend(c *core.Cluster, s *sched.Scheduler, cfg ClusterConfig) (*ClusterBackend, error) {
	b := &ClusterBackend{rt: s.NewRetrier(cfg.RetryDelay), geo: c.Params.Geometry, cards: c.Params.CardsPerNode}
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
// all of them, so cleaning pressure is cluster-wide), and its log's
// drain check into the cluster's. One write lane per tenant class; the
// FS adds the cleaning lane, whose traffic rides the Background
// streams. Do not mount it on a cluster that backs a volume: the log
// claims every chip × BlocksPerChip of every card and the volume's
// per-card FTLs claim the same blocks, so each would program and erase
// the other's flash (workload.Build refuses the pair).
func NewClusterFS(c *core.Cluster, s *sched.Scheduler, ccfg ClusterConfig, cfg Config) (*FS, *ClusterBackend, error) {
	b, err := newClusterBackend(c, s, ccfg)
	if err != nil {
		return nil, nil, err
	}
	fs, err := newFS(b, c.Params.Geometry, c.Nodes(), c.Params.CardsPerNode, int(sched.Accel), cfg)
	if err != nil {
		return nil, nil, err
	}
	urg := make([]func(float64), len(b.nodes))
	for n := range urg {
		urg[n] = s.UrgencySource(n)
	}
	fs.Log.Urgent = func() {
		for _, set := range urg {
			set(fs.Log.Urgency())
		}
	}
	c.OnCheck(fs.Log.Check)
	return fs, b, nil
}

// classOf maps a tag onto the scheduler class it is admitted at: the
// log's own moves ride Background, a file's class its own.
func classOf(tag uint8) sched.Class {
	switch class := sched.Class(tag); {
	case tag == reclaim.TagMove:
		return sched.Background
	case class >= sched.Accel:
		return sched.Batch
	default:
		return class
	}
}

// Read admits a physical read at the owning node, retrying on
// backpressure (reads have no ordering constraint).
func (b *ClusterBackend) Read(ppn int, tag uint8, cb func([]byte, error)) {
	a := pageAddr(b.geo, b.cards, ppn)
	b.rt.Read(b.nodes[a.Node].streams[classOf(tag)], a, cb)
}

// Program admits a physical program through the (node, class) FIFO
// sequencer: strictly in issue order, stalling (not reordering) on
// backpressure. It adopts img (reclaim.Port).
func (b *ClusterBackend) Program(ppn int, tag uint8, img []byte, cb func(error)) {
	a := pageAddr(b.geo, b.cards, ppn)
	cl := classOf(tag)
	bn := b.nodes[a.Node]
	bn.wseqs[cl].WriteImage(bn.streams[cl], a, img, cb)
}

// Erase admits a segment erase on the owning node's Background
// stream, retrying on backpressure. The log only erases after every
// relocation write completed and in-flight reads drained, so no
// ordering hazard exists.
func (b *ClusterBackend) Erase(ppn int, cb func(error)) {
	a := pageAddr(b.geo, b.cards, ppn)
	b.rt.Erase(b.nodes[a.Node].streams[sched.Background], a, cb)
}
