// Package fabric models BlueDBM's integrated storage network (paper
// §3.2): a packet-switched mesh of storage devices connected by
// high-speed serial links, with
//
//   - a link layer using token-based (credit) flow control, so packets
//     are never dropped and backpressure propagates (§3.2.2);
//   - external switches that forward packets hop by hop without a
//     separate router box, and internal switches that deliver traffic
//     to local components (§3.2, Figure 4);
//   - deterministic per-endpoint routing computed from the network
//     configuration (§3.2.3, Figure 6): Topology.Build gives every node
//     one table of shortest-path routes, indexed by endpoint, so all
//     packets from one logical endpoint to one destination take the
//     same path, preserving FIFO order without completion buffers,
//     while different endpoints spread over equal-cost ports; an
//     endpoint past the table routes as endpoint 0, and Network.Hops
//     is the length of the paths the routes follow;
//   - logical endpoints with virtual-channel semantics and optional
//     end-to-end flow control (§3.2.1, §3.2.3).
//
// Links model the paper's 10 Gbps serial transceivers: 0.48 µs per hop
// and ~8.2 Gbps effective payload bandwidth after 8b/10b and protocol
// overhead (§5.2, Figure 11).
//
// A message crosses the network as MTU segments that pipeline over the
// hops, each holding a receive-buffer credit of the link it is on. The
// simulator spends one event per segment per forwarding hop, and two
// more — external switch, internal switch — where the message's last
// segment reaches its destination. Two sentences define the rest of the
// model. A non-last segment's only effect at its destination is its
// credit, returned InternalLatency after arrival: it fires no event
// there. And returns first: every operation on a link direction's
// credit store begins by counting in the returns that have fallen due,
// so a credit due at t serves any request processed at virtual time
// >= t, whatever the event order inside that nanosecond (linkCredits).
package fabric

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/sim"
)

// Fabric errors.
var (
	ErrNoRoute      = errors.New("fabric: no route to destination")
	ErrPortsFull    = errors.New("fabric: node has no free ports")
	ErrBadEndpoint  = errors.New("fabric: endpoint index already in use")
	ErrNotConnected = errors.New("fabric: topology is not connected")
	ErrBadSize      = errors.New("fabric: negative message size")
)

// NodeID numbers a storage node in the cluster.
type NodeID int

// Config sets the physical parameters of every link in the network.
type Config struct {
	// LinkBytesPerSec is the effective payload bandwidth of one link
	// (wire rate minus encoding/protocol overhead). The paper's links
	// run 10 Gbps on the wire and sustain 8.2 Gbps of payload.
	LinkBytesPerSec int64
	// HopLatency is the switch traversal + wire propagation per hop.
	HopLatency sim.Time
	// InternalLatency is the internal-switch delivery latency for
	// traffic terminating at (or sourced by) the local node.
	InternalLatency sim.Time
	// HeaderBytes is the per-segment header carried on the wire.
	HeaderBytes int
	// MTU is the maximum payload bytes per wire segment. Larger sends
	// are cut into MTU segments, which pipeline across hops the way the
	// hardware streams flits (cut-through-like behaviour).
	MTU int
	// LinkTokens is the credit depth per link direction: how many
	// segments the receiver can buffer. Token exhaustion backpressures
	// the sender (§3.2.2). Each direction additionally carries one
	// reserved forwarding credit that only in-transit segments may
	// consume (bubble flow control): a source injection must leave at
	// least one credit free, so a cycle of saturated links — a ring at
	// full load — always keeps a bubble that lets forwarded segments
	// drain instead of deadlocking on the hold-and-wait between an
	// inbound and an outbound credit.
	LinkTokens int
	// PortsPerNode bounds the fan-out, 8 in the paper's hardware.
	PortsPerNode int
}

// DefaultConfig matches the paper's implementation (§5.2).
func DefaultConfig() Config {
	return Config{
		LinkBytesPerSec: 1_025_000_000, // 8.2 Gbps effective
		HopLatency:      480 * sim.Nanosecond,
		InternalLatency: 100 * sim.Nanosecond,
		HeaderBytes:     8,
		MTU:             1024,
		LinkTokens:      16,
		PortsPerNode:    8,
	}
}

// segment is the wire unit: one MTU-or-smaller piece of a message.
// Segments of one message arrive contiguously in order (routing is
// deterministic per endpoint and links are FIFO), so the last one
// stands for the message: when it is in, all are.
//
// Segments are pooled per Network (Network.segs) and carry their
// continuation callbacks pre-bound: one segment traverses inject →
// (transmit → arrive)* through the closures built once when the
// segment is made, so the steady-state send path — including the cache tier's
// invalidation broadcasts — performs zero allocations. Only the last
// segment of a message ends in arrive → deliver at its destination: a
// non-last segment's only effect there is its credit, returned
// InternalLatency after arrival, so it is recycled the moment it is
// put on its final wire (transmit) and fires no event on that hop.
type segment struct {
	src, dst NodeID
	ep       int  // logical endpoint index
	last     bool // final segment of its message
	payload  int  // payload bytes in this segment
	msgBytes int  // total payload bytes of the message
	body     any  // user payload; carried on the last segment
	ctrl     bool // end-to-end credit return, bypasses e2e windows
	wantAck  bool // sender runs e2e flow control; return a credit

	// traversal state, rebound at each step
	net     *Network
	curNode *Node     // node currently holding the segment
	in      *halfLink // link the segment arrived on (credit held)
	out     *halfLink // link the segment will leave on
	onAcc   func()    // sender's onAccepted; last segment only

	// pre-bound continuations (see newSegment)
	injGrantFn func() // injection credit granted
	fwdGrantFn func() // forwarding credit granted
	arriveFn   func() // wire transfer finished
	deliverFn  func() // internal switch delivered the message's last segment
	localFn    func() // internal switch delivered a same-node message
}

// newSegment is segs.New: it builds a segment with its five
// continuations bound to it. The closures read the segment's traversal
// fields at fire time, so one set serves every flight of the segment.
func (n *Network) newSegment() *segment {
	seg := &segment{net: n}
	seg.injGrantFn = func() {
		if seg.onAcc != nil {
			seg.onAcc()
		}
		seg.curNode.transmit(seg)
	}
	seg.fwdGrantFn = func() {
		seg.in.credits.release()
		seg.curNode.transmit(seg)
	}
	seg.arriveFn = func() {
		seg.out.to.arrive(seg)
	}
	seg.deliverFn = func() {
		in := seg.in // deliver recycles seg; read the credit first
		seg.curNode.deliver(seg)
		in.credits.release()
	}
	seg.localFn = func() {
		acc := seg.onAcc // deliver recycles seg; read the ack first
		seg.curNode.deliver(seg)
		if acc != nil {
			acc()
		}
	}
	return seg
}

// reset drops what a delivered (or dropped) segment referenced, for its
// return to the pool. The caller must guarantee no outstanding
// reference — every continuation of the segment's current flight has
// fired or will never fire.
func (seg *segment) reset() {
	seg.body = nil
	seg.onAcc = nil
	seg.curNode = nil
	seg.in, seg.out = nil, nil
}

// halfLink is one direction of a physical link: the wire, and the
// credit store counting the receive buffers at its far end.
type halfLink struct {
	pipe    *sim.Pipe
	credits *linkCredits
	to      *Node
	toPort  int
}

// linkCredits is one link direction's credit store, implementing
// bubble flow control: capacity LinkTokens+1, where the extra credit
// is reserved for forwarded (in-transit) segments. A source injection
// must see two free credits and takes one, so it can never consume
// the last slot; a forwarder may take it. Waiters are served from ONE
// FIFO queue, a sim.Queue — the fairness property of plain credit flow
// control — with exactly one exception: when only the reserved credit
// remains and the queue head is an injection (which may not touch it),
// the first waiting forwarder overtakes it (Queue.RemoveAt). A waiting
// forwarder holds a credit on its inbound link (hold-and-wait), so
// letting a stuck injection block it would reintroduce the
// cyclic-dependency deadlock the reserve exists to break; everywhere
// above the reserve, strict FIFO keeps injections live under sustained
// transit load (at the degenerate LinkTokens=1 there is no headroom
// above the reserve, so saturating transit lawfully monopolizes the
// link until it idles).
// Grants within each class stay in order, so per-flow segment
// ordering is unaffected (a flow only ever injects at its source and
// only ever forwards at transit nodes).
//
// A credit comes back one of two ways. A segment that is forwarded, or
// that ends its message, hands its credit back in person (release, from
// the event that moves it on). A non-last segment on its final hop has
// nothing else to do at its destination, so no event is spent on it:
// transmit records the instant its credit falls due — arrival plus
// InternalLatency — in returns, a FIFO that is ascending because the
// pipe delivers in reservation order and the latency is a constant.
// One rule orders the two: RETURNS FIRST. Every credit operation
// begins by moving the returns due by Now() into free, so a credit due
// at t is usable by any request processed at virtual time >= t,
// whatever the event order inside that nanosecond. Only when serve
// leaves a waiter queued while returns are pending does the store
// spend an event: ONE wake per link direction, at the earliest pending
// return, which serves and re-arms while still blocked — so a blocked
// waiter is granted at the instant its credit falls due, and an
// uncontended link fires no credit event at all.
type linkCredits struct {
	free int
	q    sim.Queue[linkWaiter]

	eng     *sim.Engine
	returns sim.Queue[sim.Time] // instants at which lazily returned credits fall due
	armed   bool                // the wake event is pending
	wakeFn  func()              // bound once (newLinkCredits)
}

type linkWaiter struct {
	fwd bool // forwarder (needs 1 free) vs injection (needs 2)
	fn  func()
}

func newLinkCredits(eng *sim.Engine, capacity int) *linkCredits {
	lc := &linkCredits{free: capacity, eng: eng}
	lc.wakeFn = func() {
		lc.armed = false
		lc.serve()
	}
	return lc
}

func (lc *linkCredits) acquireFwd(fn func()) { lc.acquire(linkWaiter{fwd: true, fn: fn}) }

func (lc *linkCredits) acquireInj(fn func()) { lc.acquire(linkWaiter{fwd: false, fn: fn}) }

// acquire grants w on the spot when nobody is queued ahead of it and
// the credit is there, and queues it behind the others otherwise.
func (lc *linkCredits) acquire(w linkWaiter) {
	lc.mature()
	if lc.q.Len() == 0 && lc.free >= w.need() {
		lc.free--
		w.fn()
		return
	}
	lc.q.Push(w)
	lc.serve()
}

// release returns one credit and serves waiters.
func (lc *linkCredits) release() {
	lc.free++
	lc.serve()
}

// returnAt books a credit that comes back by itself at t (see the type
// comment); whoever next touches the store at or after t finds it free.
func (lc *linkCredits) returnAt(t sim.Time) {
	if n := lc.returns.Len(); n > 0 && lc.returns.At(n-1) > t {
		panic(fmt.Sprintf("fabric: credit return at %v booked behind one at %v", t, lc.returns.At(n-1)))
	}
	lc.returns.Push(t)
}

// mature moves every pending return that has fallen due into free.
func (lc *linkCredits) mature() {
	now := lc.eng.Now()
	for lc.returns.Len() > 0 && lc.returns.Front() <= now {
		lc.returns.Pop()
		lc.free++
	}
}

// need is the free-credit threshold to grant w (both take one).
func (w linkWaiter) need() int {
	if w.fwd {
		return 1
	}
	return 2
}

func (lc *linkCredits) serve() {
	lc.mature()
	for lc.q.Len() > 0 {
		head := lc.q.Front()
		if lc.free >= head.need() {
			lc.q.Pop()
			lc.free--
			head.fn()
			continue
		}
		// Head is an injection and only the reserved credit remains:
		// the first waiting forwarder may take it past the head.
		if !head.fwd && lc.free == 1 {
			for i := 1; i < lc.q.Len(); i++ {
				if w := lc.q.At(i); w.fwd {
					lc.q.RemoveAt(i)
					lc.free--
					w.fn()
					break
				}
			}
		}
		break
	}
	// Still blocked: come back when the next credit falls due.
	if lc.q.Len() > 0 && !lc.armed && lc.returns.Len() > 0 {
		lc.armWake()
	}
}

// armWake schedules the store's one wake event at the earliest pending
// return.
func (lc *linkCredits) armWake() {
	if lc.armed {
		panic("fabric: a second wake armed on one link direction")
	}
	lc.armed = true
	lc.eng.At(lc.returns.Front(), lc.wakeFn)
}

// Link is a full-duplex cable between two node ports.
type Link struct {
	a, b   *Node
	ab, ba *halfLink
	aPort  int
	bPort  int
}

// Network is the cluster-wide fabric.
type Network struct {
	eng   *sim.Engine
	cfg   Config
	nodes []*Node
	links []*Link

	// segs recycles wire segments and their bound continuations; the
	// population converges on the peak number of segments
	// simultaneously in flight, and none is out when the fabric is idle
	// (CheckInvariants).
	segs sim.Pool[segment]

	// hops[b][a] is the length of a shortest path from a to b
	// (computeRoutes).
	hops [][]int

	// stats
	SegsMoved  sim.Counter
	BytesMoved sim.Counter
}

// Node is one storage device's network personality: its ports, its
// switch, and its logical endpoints.
type Node struct {
	net       *Network
	id        NodeID
	ports     []*halfLink // outgoing half-links by port index; nil = free
	portPeer  []NodeID    // neighbor on each port, -1 = free
	endpoints []*Endpoint // by endpoint index; nil = unbound
	// routes[ep][dst] is the output port toward dst for endpoint ep's
	// traffic, -1 for none; Topology.Build writes it. An endpoint past
	// the last row routes as endpoint 0.
	routes [][]int
}

// New creates a network with n nodes and no links.
func New(eng *sim.Engine, cfg Config, n int) *Network {
	net := &Network{eng: eng, cfg: cfg}
	net.segs.New = net.newSegment
	for i := 0; i < n; i++ {
		node := &Node{
			net:      net,
			id:       NodeID(i),
			ports:    make([]*halfLink, cfg.PortsPerNode),
			portPeer: make([]NodeID, cfg.PortsPerNode),
		}
		for p := range node.portPeer {
			node.portPeer[p] = -1
		}
		net.nodes = append(net.nodes, node)
	}
	return net
}

// Nodes returns the number of nodes.
func (n *Network) Nodes() int { return len(n.nodes) }

// Node returns node i.
func (n *Network) Node(i NodeID) *Node { return n.nodes[i] }

// Config returns the fabric configuration.
func (n *Network) Config() Config { return n.cfg }

// Links returns the number of physical cables.
func (n *Network) Links() int { return len(n.links) }

// Connect cables nodes a and b together using their lowest free ports.
// Multiple parallel cables between the same pair are allowed (the
// paper's ring uses 4 lanes between neighbors).
func (n *Network) Connect(a, b NodeID) error {
	na, nb := n.nodes[a], n.nodes[b]
	pa, pb := na.freePort(), nb.freePort()
	if pa < 0 {
		return fmt.Errorf("%w: node %d", ErrPortsFull, a)
	}
	if pb < 0 {
		return fmt.Errorf("%w: node %d", ErrPortsFull, b)
	}
	mk := func(dir string, to *Node, toPort int) *halfLink {
		name := fmt.Sprintf("link%d-%d/%s", a, b, dir)
		return &halfLink{
			// +1 is the reserved forwarding credit (bubble flow
			// control); see linkCredits.
			pipe:    sim.NewPipe(n.eng, name, n.cfg.LinkBytesPerSec, n.cfg.HopLatency),
			credits: newLinkCredits(n.eng, n.cfg.LinkTokens+1),
			to:      to,
			toPort:  toPort,
		}
	}
	l := &Link{a: na, b: nb, aPort: pa, bPort: pb}
	l.ab = mk("ab", nb, pb)
	l.ba = mk("ba", na, pa)
	na.ports[pa] = l.ab
	na.portPeer[pa] = b
	nb.ports[pb] = l.ba
	nb.portPeer[pb] = a
	n.links = append(n.links, l)
	return nil
}

func (nd *Node) freePort() int {
	for i, p := range nd.ports {
		if p == nil {
			return i
		}
	}
	return -1
}

// ID returns the node's identity.
func (nd *Node) ID() NodeID { return nd.id }

// computeRoutes fills every node's routing table with deterministic
// shortest-path routes, and Hops with the distances they follow. For
// each (endpoint, destination) the next hop is fixed, but different
// endpoints rotate across equal-cost ports, so traffic from different
// endpoints spreads over parallel links while each endpoint's stream
// stays FIFO (paper §3.2.3). maxEndpoint is the highest endpoint index
// with a row of its own.
func (n *Network) computeRoutes(maxEndpoint int) error {
	nn := len(n.nodes)
	for _, node := range n.nodes {
		node.routes = make([][]int, max(maxEndpoint, 0)+1)
		for ep := range node.routes {
			node.routes[ep] = slices.Repeat([]int{-1}, nn)
		}
	}
	n.hops = make([][]int, nn)
	for d := 0; d < nn; d++ {
		dist := n.bfs(NodeID(d))
		n.hops[d] = dist
		for v := 0; v < nn; v++ {
			if v == d {
				continue
			}
			if dist[v] < 0 {
				return fmt.Errorf("%w: node %d cannot reach %d", ErrNotConnected, v, d)
			}
			// Candidate ports: neighbors one hop closer to d.
			node := n.nodes[v]
			var cands []int
			for p, peer := range node.portPeer {
				if peer >= 0 && dist[peer] == dist[v]-1 {
					cands = append(cands, p)
				}
			}
			for ep, tbl := range node.routes {
				tbl[d] = cands[(ep+d)%len(cands)]
			}
		}
	}
	return nil
}

// bfs returns hop distances from every node to dst (-1 = unreachable).
func (n *Network) bfs(dst NodeID) []int {
	dist := slices.Repeat([]int{-1}, len(n.nodes))
	dist[dst] = 0
	queue := []NodeID{dst}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, peer := range n.nodes[v].portPeer {
			if peer >= 0 && dist[peer] < 0 {
				dist[peer] = dist[v] + 1
				queue = append(queue, peer)
			}
		}
	}
	return dist
}

// Hops returns the number of links on a shortest path between nodes a
// and b, the path the routes follow: 0 for a == b. It is defined on a
// network Topology.Build made.
func (n *Network) Hops(a, b NodeID) int { return n.hops[b][a] }

// routePort returns the output port for (ep, dst). An endpoint past
// the last row of the table routes as endpoint 0.
func (nd *Node) routePort(ep int, dst NodeID) (int, error) {
	row := 0
	if uint(ep) < uint(len(nd.routes)) {
		row = ep
	}
	if row < len(nd.routes) {
		if port := nd.routes[row][dst]; port >= 0 {
			return port, nil
		}
	}
	return 0, fmt.Errorf("%w: node %d ep %d -> node %d", ErrNoRoute, nd.id, ep, dst)
}

// inject starts a segment from its source node: route lookup, token
// acquire, wire transfer. The segment's onAcc fires once the segment
// is on the wire (source-side buffer freed), which is the sender's
// backpressure.
func (nd *Node) inject(seg *segment) error {
	seg.curNode = nd
	if seg.dst == nd.id {
		// Local delivery through the internal switch only. Nothing
		// waits on a non-last segment — no wire, no credit, no ack — so
		// only the message's last one crosses it as an event.
		if !seg.last {
			seg.reset()
			nd.net.segs.Put(seg)
			return nil
		}
		nd.net.eng.After(nd.net.cfg.InternalLatency, seg.localFn)
		return nil
	}
	port, err := nd.routePort(seg.ep, seg.dst)
	if err != nil {
		return err
	}
	seg.out = nd.ports[port]
	// Bubble flow control: a source injection must leave the reserved
	// forwarding credit free. arrive() holds a segment's inbound
	// credit while it waits for the outbound one (hold-and-wait), so a
	// traffic cycle — a saturated ring — could otherwise fill every
	// link and deadlock; with injections barred from the last credit,
	// every cycle always retains a bubble and forwarded segments drain.
	seg.out.credits.acquireInj(seg.injGrantFn)
	return nil
}

// transmit puts a segment on its outbound half-link (seg.out); arrival
// is handled by the peer's external switch. On the final hop of a
// segment that does not end its message there is nothing for that
// switch to do: the segment occupies the wire like any other, the
// receive buffer it fills is booked to come free InternalLatency after
// it lands (linkCredits.returnAt), and it is recycled here.
func (nd *Node) transmit(seg *segment) {
	wire := seg.payload + nd.net.cfg.HeaderBytes
	nd.net.SegsMoved.Inc()
	nd.net.BytesMoved.Add(int64(seg.payload))
	if !seg.last && seg.out.to.id == seg.dst {
		landed := seg.out.pipe.Transfer(wire, nil)
		seg.out.credits.returnAt(landed + nd.net.cfg.InternalLatency)
		seg.reset()
		nd.net.segs.Put(seg)
		return
	}
	seg.out.pipe.Transfer(wire, seg.arriveFn)
}

// arrive runs the external switch at a receiving node: deliver locally
// or forward toward the destination. The inbound token (seg.in, the
// link just traversed) is held until the segment leaves this node, so
// congestion backpressures upstream.
func (nd *Node) arrive(seg *segment) {
	seg.in = seg.out
	seg.curNode = nd
	if seg.dst == nd.id {
		// Only the last segment of a message gets here (transmit).
		nd.net.eng.After(nd.net.cfg.InternalLatency, seg.deliverFn)
		return
	}
	port, err := nd.routePort(seg.ep, seg.dst)
	if err != nil {
		// No route mid-path is a wiring bug: drop loudly.
		panic(fmt.Sprintf("fabric: node %d cannot forward to %d: %v", nd.id, seg.dst, err))
	}
	seg.out = nd.ports[port]
	seg.out.credits.acquireFwd(seg.fwdGrantFn)
}

// deliver hands the last segment of a message to its endpoint and
// recycles it. OnReceive handlers that send from inside the callback
// draw fresh segments from the pool (this one is recycled only after
// receive returns).
func (nd *Node) deliver(seg *segment) {
	// Delivery to an unbound endpoint is silently dropped, like
	// hardware writing to an unselected channel.
	if ep := nd.Endpoint(seg.ep); ep != nil {
		ep.receive(seg)
	}
	seg.reset()
	nd.net.segs.Put(seg)
}

// CheckInvariants reports the first way in which an idle fabric — the
// engine has drained, so nothing is on a wire or in a switch — fails to
// be back in its initial state: once the returns that have fallen due
// are counted, every link direction holds all LinkTokens+1 credits with
// no waiter, no pending return and no wake armed, and no segment is
// out of the pool.
func (n *Network) CheckInvariants() error {
	for _, l := range n.links {
		for _, h := range [...]*halfLink{l.ab, l.ba} {
			lc := h.credits
			lc.mature()
			switch {
			case lc.free != n.cfg.LinkTokens+1:
				return fmt.Errorf("fabric: %s holds %d credits, want %d", h.pipe.Name(), lc.free, n.cfg.LinkTokens+1)
			case lc.q.Len() > 0:
				return fmt.Errorf("fabric: %s has %d waiters queued", h.pipe.Name(), lc.q.Len())
			case lc.returns.Len() > 0:
				return fmt.Errorf("fabric: %s has %d credit returns pending", h.pipe.Name(), lc.returns.Len())
			case lc.armed:
				return fmt.Errorf("fabric: %s has a wake armed", h.pipe.Name())
			}
		}
	}
	if out := n.segs.Out(); out != 0 {
		return fmt.Errorf("fabric: %d segments are out of the pool", out)
	}
	return nil
}

// LinkUtilization reports the utilization of each direction of every
// link, for load-distribution experiments.
func (n *Network) LinkUtilization() []float64 {
	var out []float64
	for _, l := range n.links {
		out = append(out, l.ab.pipe.Utilization(), l.ba.pipe.Utilization())
	}
	return out
}
