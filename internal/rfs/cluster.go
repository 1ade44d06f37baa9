package rfs

import (
	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/sim"
)

// ClusterConfig tunes the cluster file system's way into the scheduler.
type ClusterConfig struct {
	// RetryDelay is the backoff before re-admitting an op that hit
	// scheduler backpressure (default 5 µs).
	RetryDelay sim.Time
}

// NewClusterFS mounts a file system whose page log is striped over every
// chip of every card of every node of cluster c — the paper's §4 stack
// at appliance scale, with RFS on top of the whole machine instead of
// one card — and returns it with the sched.Port it runs over. Its pages
// are laid out node-major (pageAddr), and the port admits each op at
// the node that owns its page: app reads and writes at the file
// handle's QoS class, segment cleaning (relocation copies and victim
// erases) on the Background class. Each tenant class plus cleaning gets
// its own frontier lane in the FS, so two classes never share a NAND
// block.
//
// It wires the FS's cleaning urgency into the scheduler's Background
// token budget on every node (the log stripes over all of them, so
// cleaning pressure is cluster-wide), and its log's drain check into
// the cluster's. Do not mount it on a cluster that backs a volume: the
// log claims every chip × BlocksPerChip of every card and the volume's
// per-card FTLs claim the same blocks, so each would program and erase
// the other's flash (workload.Build refuses the pair).
func NewClusterFS(c *core.Cluster, s *sched.Scheduler, ccfg ClusterConfig, cfg Config) (*FS, *sched.Port, error) {
	geo, cards := c.Params.Geometry, c.Params.CardsPerNode
	port := s.NewRetrier(ccfg.RetryDelay).NewPort(func(ppn int) core.PageAddr { return pageAddr(geo, cards, ppn) })
	fs, err := newFS(port, geo, c.Nodes(), cards, int(sched.Accel), cfg)
	if err != nil {
		return nil, nil, err
	}
	urg := make([]func(float64), c.Nodes())
	for n := range urg {
		urg[n] = s.UrgencySource(n)
	}
	fs.Log.Urgent = func() {
		for _, set := range urg {
			set(fs.Log.Urgency())
		}
	}
	c.OnCheck(fs.Log.Check)
	return fs, port, nil
}
