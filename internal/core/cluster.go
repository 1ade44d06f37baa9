package core

import (
	"errors"
	"fmt"

	"repro/internal/fabric"
	"repro/internal/flashserver"
	"repro/internal/hostif"
	"repro/internal/hostmodel"
	"repro/internal/nand"
	"repro/internal/sim"
)

// Cluster is a running BlueDBM appliance.
type Cluster struct {
	Eng    *sim.Engine
	Params Params
	Net    *fabric.Network
	nodes  []*Node

	// remoteOps recycles the records of remote flash operations.
	remoteOps sim.Pool[remoteOp]

	checks []func() error // the drain checks of the layers built on the cluster
}

// NewCluster builds and wires the whole appliance.
func NewCluster(p Params) (*Cluster, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	eng := sim.NewEngine()

	topo := p.Topology
	if topo.Nodes == 0 {
		if p.Nodes == 1 {
			topo = fabric.Topology{Name: "single", Nodes: 1}
		} else {
			topo = fabric.Ring(p.Nodes, 4)
		}
	}
	if topo.Nodes != p.Nodes {
		return nil, fmt.Errorf("core: topology has %d nodes, cluster has %d", topo.Nodes, p.Nodes)
	}
	net, err := topo.Build(eng, p.Net, EPUser+8)
	if err != nil {
		return nil, err
	}

	c := &Cluster{Eng: eng, Params: p, Net: net}
	c.remoteOps.New = newRemoteOp
	for i := 0; i < p.Nodes; i++ {
		node, err := c.buildNode(i)
		if err != nil {
			return nil, fmt.Errorf("core: node %d: %w", i, err)
		}
		c.nodes = append(c.nodes, node)
	}
	return c, nil
}

func (c *Cluster) buildNode(i int) (*Node, error) {
	p := c.Params
	n := &Node{cluster: c, id: i}
	n.hostOps.New = n.newHostOp
	n.hostBatches.New = n.newHostBatch
	for card := 0; card < p.CardsPerNode; card++ {
		name := fmt.Sprintf("n%d/card%d", i, card)
		seed := p.Seed + uint64(i)*131 + uint64(card)*17
		cd, err := nand.NewCard(c.Eng, name, p.Geometry, p.FlashTiming, p.Reliability, seed)
		if err != nil {
			return nil, err
		}
		ctl, srv, err := flashserver.New(c.Eng, cd, p.Controller, p.QueueDepth)
		if err != nil {
			return nil, err
		}
		n.cards = append(n.cards, cd)
		n.ctls = append(n.ctls, ctl)
		n.servers = append(n.servers, srv)
		n.ispIfaces = append(n.ispIfaces, srv.NewIface())
		var reads readLanes
		for range ISPReadLanes {
			reads.ifaces = append(reads.ifaces, srv.NewIface())
		}
		bulk := make([]*flashserver.Iface, p.Geometry.Buses*p.Geometry.ChipsPerBus)
		for c := range bulk {
			bulk[c] = srv.NewBulkIface()
		}
		n.ispReads, n.bulkReads = append(n.ispReads, reads), append(n.bulkReads, bulk)
		n.hostReads = append(n.hostReads, srv.NewIface())
		n.hostIfaces = append(n.hostIfaces, srv.NewIface())
		n.bgIfaces = append(n.bgIfaces, srv.NewIface())
	}

	host, err := hostif.New(c.Eng, fmt.Sprintf("n%d", i), p.Host)
	if err != nil {
		return nil, err
	}
	n.Host = host
	cpu, err := hostmodel.New(c.Eng, fmt.Sprintf("n%d", i), p.CPU)
	if err != nil {
		return nil, err
	}
	n.CPU = cpu
	n.ioThread = cpu.NewThread()
	n.dram = sim.NewPipe(c.Eng, fmt.Sprintf("n%d/dram", i), p.DRAMBytesPerSec, p.DRAMLatency)

	n.netNode = c.Net.Node(fabric.NodeID(i))
	for lane := 0; lane < FlashLanes; lane++ {
		reqEP, err := n.netNode.BindEndpoint(EPFlashReq + lane)
		if err != nil {
			return nil, err
		}
		respEP, err := n.netNode.BindEndpoint(EPFlashResp + lane)
		if err != nil {
			return nil, err
		}
		reqEP.OnReceive = n.handleFlashReq
		respEP.OnReceive = n.handleFlashResp
		n.reqEPs = append(n.reqEPs, reqEP)
		n.respEPs = append(n.respEPs, respEP)
	}
	return n, nil
}

// Node returns node i.
func (c *Cluster) Node(i int) *Node { return c.nodes[i] }

// Nodes returns the cluster size.
func (c *Cluster) Nodes() int { return len(c.nodes) }

// Hops returns the network distance between two nodes, in links
// (fabric.Network.Hops).
func (c *Cluster) Hops(a, b int) int { return c.Net.Hops(fabric.NodeID(a), fabric.NodeID(b)) }

// Run drains all pending simulation events.
func (c *Cluster) Run() { c.Eng.Run() }

// checkCards is each card's part of the drain check: with
// Params.Reliability.GuardImages on, the first stored page image that a
// holder has written to since it was programmed (nand.Card.CheckImages),
// and any command a chip or a bus still holds (nand.Card.CheckDrained).
func (c *Cluster) checkCards() error {
	for _, n := range c.nodes {
		for _, cd := range n.cards {
			if err := errors.Join(cd.CheckImages(), cd.CheckDrained()); err != nil {
				return err
			}
		}
	}
	return nil
}

// OnCheck registers the drain check of a layer built on the cluster:
// what must hold once the engine has nothing left to run. Layers
// register where they are built, their pools and their invariants.
func (c *Cluster) OnCheck(check func() error) { c.checks = append(c.checks, check) }

// Check reports every way in which a drained cluster is not clean: an
// event still pending, a stored image written to or a command left at a
// card (checkCards), a fabric invariant, a pooled record of the
// cluster's own still out, and each registered layer check.
func (c *Cluster) Check() error {
	var pending error
	if n := c.Eng.Stats().Pending; n != 0 {
		pending = fmt.Errorf("core: %d events pending at drain", n)
	}
	errs := []error{pending, c.checkCards(), c.Net.CheckInvariants(), c.remoteOps.Drained("core remote ops")}
	for _, n := range c.nodes {
		errs = append(errs, n.hostOps.Drained("core host ops"), n.hostBatches.Drained("core host batches"))
		for _, srv := range n.servers {
			errs = append(errs, srv.Drained())
		}
	}
	for _, check := range c.checks {
		errs = append(errs, check())
	}
	return errors.Join(errs...)
}

// SeedLinear writes count pages of generated data starting at dense
// index 0 on node; gen produces the page payload for each index. It is
// the standard experiment-setup helper (timing is charged but setup
// happens before the measurement window).
func (c *Cluster) SeedLinear(node, count int, gen func(idx int, page []byte)) error {
	ps := c.Params.PageSize()
	if count > PagesPerNode(c.Params) {
		return fmt.Errorf("core: seeding %d pages exceeds node capacity %d", count, PagesPerNode(c.Params))
	}
	var firstErr error
	buf := make([]byte, ps)
	for idx := 0; idx < count; idx++ {
		a := LinearPage(c.Params, node, idx)
		for j := range buf {
			buf[j] = 0
		}
		if gen != nil {
			gen(idx, buf)
		}
		c.nodes[node].writeLocal(a.Card, a.Addr, buf, func(err error) {
			if err != nil && firstErr == nil {
				firstErr = err
			}
		})
		// Keep the write window bounded so memory stays flat.
		if idx%256 == 255 {
			c.Run()
		}
	}
	c.Run()
	return firstErr
}
