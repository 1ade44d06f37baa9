package core

import (
	"errors"
	"fmt"

	"repro/internal/fabric"
	"repro/internal/flashctl"
	"repro/internal/flashserver"
	"repro/internal/hostif"
	"repro/internal/hostmodel"
	"repro/internal/nand"
	"repro/internal/sim"
)

// Endpoint indices of the built-in cluster services. Remote flash
// traffic is striped over FlashLanes request/response endpoint pairs:
// deterministic routing pins each endpoint to one path (§3.2.3), so
// multiple endpoints are what lets parallel cables between two nodes
// carry parallel flash traffic (the ISP-3Nodes setup of Figure 13).
// User in-store processors bind their own endpoints at EPUser and up.
const (
	FlashLanes  = 4
	EPFlashReq  = 0          // lanes 0..FlashLanes-1: requests
	EPFlashResp = FlashLanes // lanes FlashLanes..2*FlashLanes-1: responses
	EPUser      = 8          // first endpoint index free for applications
)

// ISPReadLanes is the number of parallel read channels each card
// offers its ordinary in-store reads (ISPReadDirect of a local page and
// the host reads a node serves for a remote one). A flashserver interface
// delivers responses in FIFO request order, so one shared channel
// would head-of-line-block every ISP read behind whichever chip happens
// to be busiest; striping reads round-robin over independent channels
// models the tag-based flash controller completing reads out of order.
// Admitted reads (ISPReadAdmitted) do not use them: each chip has a
// bulk lane of its own. Writes and erases keep the single in-order
// channel: NAND programs blocks strictly in page order.
const ISPReadLanes = 4

// AccessPath selects how a host read fetches a remote page (paper
// §6.4). The zero value is H-F; the in-store path of Figure 12, ISP-F,
// is ISPReadDirect. A local page is read from the node's own flash
// whatever the path.
type AccessPath uint8

// The host access paths of Figure 12.
const (
	PathHF   AccessPath = iota // host -> remote flash (integrated network)
	PathHRHF                   // host -> remote flash via remote host
	PathHD                     // host -> remote DRAM
)

func (p AccessPath) String() string {
	switch p {
	case PathHF:
		return "H-F"
	case PathHRHF:
		return "H-RH-F"
	case PathHD:
		return "H-D"
	default:
		return fmt.Sprintf("path(%d)", int(p))
	}
}

// Trace decomposes one access's latency the way Figure 14 does.
type Trace struct {
	Software sim.Time // host software + RPC + interrupt charges
	Storage  sim.Time // flash array access (first byte out of storage)
	Transfer sim.Time // data movement: buses, serial links, PCIe
	Network  sim.Time // per-hop switch/wire latency
	Total    sim.Time
}

// reqMsg describes a remote flash request: a read or a write. Erases
// and background traffic stay on the node that owns the card.
type reqMsg struct {
	card    int
	addr    nand.Addr
	viaHost bool // remote host processes the request (H-RH-F)
	dram    bool // serve from the on-device DRAM buffer (H-D)
	write   bool
	bulk    bool   // an admitted in-store read: the bulk lanes (ISPReadAdmitted)
	data    []byte // payload for writes
}

// remoteOp is one remote flash operation from the remoteReq that sends
// it until its completion callback has run. The record is the message:
// it crosses the fabric by pointer on a request lane, is served by the
// far node, and crosses back on the paired response lane, so neither
// the descriptor, nor the server's flash continuation, nor the response
// is allocated per operation. Ops are pooled per cluster
// (Cluster.remoteOps: the record changes hands between two nodes) and
// the server's continuations are bound when the record is made.
type remoteOp struct {
	reqMsg
	lane   int
	from   fabric.NodeID // the requester, which the response goes back to
	server *Node         // the node serving the request; set on arrival
	cb     func(data []byte, err error)

	// the response: a read's page and the operation's outcome
	page []byte
	err  error

	// bound once, for the serving node
	onRead     func(data []byte, err error) // the flash read completed
	onAck      func(err error)              // the program completed
	onIntr     func()                       // viaHost: the request interrupted the host
	onSoftware func()                       // viaHost: the host's software has run
	serve      func()                       // viaHost: the host's RPC reached the device
	onDRAM     func()                       // dram: the buffer access completed
}

// newRemoteOp is Cluster.remoteOps.New.
func newRemoteOp() *remoteOp {
	op := &remoteOp{}
	op.onRead = func(data []byte, err error) { op.server.respond(op, data, err) }
	op.onAck = func(err error) { op.server.respond(op, nil, err) }
	op.onIntr = func() { op.server.hostSoftware(op) }
	op.onSoftware = func() { op.server.Host.RPC(op.serve) }
	op.serve = func() { op.server.serveRemote(op) }
	op.onDRAM = func() { op.server.dramDone(op) }
	return op
}

// reset drops what an op referenced, for its return to the pool once
// its completion callback has returned (or its request was never sent).
func (op *remoteOp) reset() {
	op.reqMsg = reqMsg{}
	op.server, op.cb = nil, nil
	op.page, op.err = nil, nil
}

// Node is one BlueDBM node: Xeon host + storage device (Figure 2).
type Node struct {
	cluster *Cluster
	id      int

	cards   []*nand.Card
	ctls    []*flashctl.Controller
	servers []*flashserver.Server

	// Per-card in-order flash interfaces, one per user of the card. An
	// interface delivers responses in FIFO request order, so an op
	// waits for every slower op issued before it on its interface:
	// hostReads carry the host's foreground reads, hostIfaces its
	// programs and erases (NAND programs a block in page order), and
	// bgIfaces its background traffic (FTL garbage collection), so no
	// 350 µs program or 3 ms erase holds back a host read of another
	// chip. ispIfaces keep ISP writes and erases in order; ispReads
	// stripe ISP reads over ISPReadLanes channels per card; bulkReads
	// hold one bulk interface per chip of each card (bus-major), for
	// the reads the scheduler admits at class Accel: an admitted read
	// that waits at its chip holds back only reads of that chip, which
	// the chip's FIFO bulk queue holds back anyway.
	ispIfaces  []*flashserver.Iface
	ispReads   []readLanes
	bulkReads  [][]*flashserver.Iface
	hostReads  []*flashserver.Iface
	hostIfaces []*flashserver.Iface
	bgIfaces   []*flashserver.Iface

	Host *hostif.HostIf
	CPU  *hostmodel.CPU
	dram *sim.Pipe

	// ioThread is the host's serial I/O submission thread: every
	// batched doorbell (SubmitHostBatch) is charged here, so doorbell
	// software cost consumes CPU instead of being pure latency.
	ioThread *hostmodel.Thread

	netNode *fabric.Node
	reqEPs  []*fabric.Endpoint
	respEPs []*fabric.Endpoint

	nextReq uint64 // remote requests sent; picks the lane round-robin

	// hostOps recycles the per-request records of doorbell batches, and
	// hostBatches the per-doorbell ones.
	hostOps     sim.Pool[hostOp]
	hostBatches sim.Pool[hostBatch]
}

// ID returns the node index.
func (n *Node) ID() int { return n.id }

// Card returns flash card c.
func (n *Node) Card(c int) *nand.Card { return n.cards[c] }

// Controller returns the flash controller of card c.
func (n *Node) Controller(c int) *flashctl.Controller { return n.ctls[c] }

// NewIface creates a fresh in-order flash interface on card c, for
// in-store processors that want private FIFO channels. The name is the
// caller's label; the interface does not keep it.
func (n *Node) NewIface(c int, _ string) *flashserver.Iface {
	return n.servers[c].NewIface()
}

// NetNode exposes the node's fabric personality so applications can
// bind their own endpoints (>= EPUser).
func (n *Node) NetNode() *fabric.Node { return n.netNode }

// --- local flash access (device side / ISP path) ---------------------

// readLanes is one card's set of ISP read channels, taken round-robin.
type readLanes struct {
	ifaces []*flashserver.Iface
	next   int
}

// readIface picks the interface an ISP read of addr on card issues on:
// for an admitted read, the bulk lane of addr's chip; else the next of
// the card's ISP read lanes, round-robin. An address off the card's
// chips takes the nearest bulk lane, and the card refuses it there.
func (n *Node) readIface(card int, addr nand.Addr, bulk bool) *flashserver.Iface {
	if bulk {
		lanes := n.bulkReads[card]
		return lanes[max(0, min(addr.Bus*n.cluster.Params.Geometry.ChipsPerBus+addr.Chip, len(lanes)-1))]
	}
	l := &n.ispReads[card]
	f := l.ifaces[l.next%len(l.ifaces)]
	l.next++
	return f
}

// writeLocal programs a page on this node's own flash (ISP interface).
func (n *Node) writeLocal(card int, addr nand.Addr, data []byte, cb func(err error)) {
	n.ispIfaces[card].WritePhysical(addr, data, cb)
}

// --- global address space (ISP-F path) ------------------------------

// ISPReadDirect reads any page in the cluster from this node's
// in-store processor, issuing at once: the unadmitted device read.
// A local page is read through the in-store processor interface, no
// host and no network: reads stripe round-robin over the card's
// ISPReadLanes channels, so concurrent reads complete out of order
// instead of convoying behind one busy chip (a caller needing a private
// FIFO channel uses NewIface). A remote page goes over the integrated
// storage network to the remote flash server — the ISP-F path, with
// zero host involvement anywhere. It runs at ordinary priority at the
// chip, like a host read.
//
// The admitted device read is a sched.Stream at class Accel: it queues
// the read at the node that owns the page under the Accel token budget,
// beside host traffic, and issues it through ISPReadAdmitted once
// granted, where it yields to ordinary commands at the chip. The
// single-node runners of Figures 13 and 16–19 call this directly;
// in-store engines over a volume or a file system reach admission
// through ispvol.
func (n *Node) ISPReadDirect(a PageAddr, cb func(data []byte, err error)) {
	n.ispRead(a, false, cb)
}

// ISPReadAdmitted is ISPReadDirect for a read the scheduler has
// admitted at class Accel: it issues on the bulk lane of its page's
// chip, local or remote, so at its chip it waits behind ordinary
// commands up to the card's starvation bound (nand.Card.ReadPageBulk)
// and holds back no read of another chip. Only the Accel dispatcher
// calls it.
func (n *Node) ISPReadAdmitted(a PageAddr, cb func(data []byte, err error)) {
	n.ispRead(a, true, cb)
}

// ispRead is ISPReadDirect, on the chip's bulk lane when bulk.
func (n *Node) ispRead(a PageAddr, bulk bool, cb func(data []byte, err error)) {
	if a.Node == n.id {
		n.readIface(a.Card, a.Addr, bulk).ReadPhysical(a.Addr, cb)
		return
	}
	n.remoteReq(reqMsg{card: a.Card, addr: a.Addr, bulk: bulk}, a.Node, cb)
}

// remoteReq sends a request on the next lane (round-robin); cb fires
// when the response is back.
func (n *Node) remoteReq(msg reqMsg, dst int, cb func(data []byte, err error)) {
	op := n.cluster.remoteOps.Get()
	op.reqMsg = msg
	op.lane = int(n.nextReq % FlashLanes)
	op.from = n.netNode.ID()
	op.cb = cb
	n.nextReq++
	size := 32 // request descriptor
	if msg.write {
		size += len(msg.data)
	}
	if err := n.reqEPs[op.lane].Send(fabric.NodeID(dst), size, op, nil); err != nil {
		op.reset()
		n.cluster.remoteOps.Put(op)
		cb(nil, err)
	}
}

// handleFlashReq is the device-side service for remote requests.
func (n *Node) handleFlashReq(_ fabric.NodeID, _ int, payload any) {
	op := payload.(*remoteOp)
	op.server = n
	if op.viaHost {
		// The request surfaces to the remote host's software before
		// being served: interrupt, software (hostSoftware), RPC.
		n.cluster.Eng.After(n.Host.Config().InterruptLatency, op.onIntr)
		return
	}
	n.serveRemote(op)
}

// hostSoftware charges the remote host for a request it serves itself.
// Flash requests (H-RH-F) pay the full storage stack; DRAM-cached
// requests (H-D) take the lightweight user-level serving path.
func (n *Node) hostSoftware(op *remoteOp) {
	if op.dram {
		n.Host.ChargeLightSoftware(op.onSoftware)
	} else {
		n.Host.ChargeSoftware(op.onSoftware)
	}
}

// serveRemote hands a remote request to this node's flash.
func (n *Node) serveRemote(op *remoteOp) {
	switch {
	case op.dram:
		// The page is cached in the on-device DRAM buffer: no flash
		// latency, just the buffer access.
		n.dram.Transfer(n.cluster.Params.PageSize(), op.onDRAM)
	case op.write:
		n.ispIfaces[op.card].WritePhysical(op.addr, op.data, op.onAck)
	default:
		// Remote reads stripe over the card's ISP read lanes like local
		// ISP reads do; an admitted one takes its chip's bulk lane.
		n.readIface(op.card, op.addr, op.bulk).ReadPhysical(op.addr, op.onRead)
	}
}

// dramDone answers a request served from the on-device DRAM buffer
// (H-D), which holds the same logical content as the flash page: the
// stored image's page as a read-only view, like any clean flash read
// (nand.ReadPage), or a zeroed page where nothing is stored.
func (n *Node) dramDone(op *remoteOp) {
	ps := n.cluster.Params.PageSize()
	data := n.cards[op.card].Peek(op.addr)
	if data == nil {
		data = make([]byte, ps)
	}
	n.respond(op, data[:ps], nil)
}

// respond ships the result back over the integrated network on the
// response lane paired with the request's lane.
func (n *Node) respond(op *remoteOp, page []byte, err error) {
	op.data = nil // a write's payload is the flash's now
	op.page, op.err = page, err
	if serr := n.respEPs[op.lane].Send(op.from, 32+len(page), op, nil); serr != nil {
		panic(fmt.Sprintf("core: response route missing: %v", serr))
	}
}

// handleFlashResp completes a remote request at the node that sent it.
func (n *Node) handleFlashResp(_ fabric.NodeID, _ int, payload any) {
	op := payload.(*remoteOp)
	op.cb(op.page, op.err)
	op.reset()
	n.cluster.remoteOps.Put(op)
}

// --- host-mediated access paths (Figure 12) --------------------------

// ErrNotLocal fails a host erase or Background request for another
// node's card: only reads and writes cross the fabric.
var ErrNotLocal = errors.New("core: erase or background request for a remote card")

// HostReq is one host-side flash request in the batched submission
// path: the unit the request scheduler (internal/sched) admits, queues
// and coalesces. For writes Data carries the payload and Done's data
// argument is nil. Erase requests (issued by the host-resident FTL's
// garbage collector) erase the whole block containing Addr; for them
// too Done's data argument is nil. Done fires exactly once.
//
// A request for another node's card is a read or a write: an erase or
// a Background request for one fails with ErrNotLocal, since the FTL
// and the cleaner that issue those run on the node that owns the card.
//
// A write's Data is a page image (nand.Geometry.PageImage) that
// SubmitHostBatch adopts: it is the buffer the flash ends up storing,
// so the submitter gives it away — until Done reports an error, after
// which nothing below holds it. A buffer of any length but PageSize
// fails with flashctl.ErrDataSize.
type HostReq struct {
	Addr  PageAddr
	Write bool
	Erase bool
	// Background routes the request over the card's background flash
	// interface instead of the foreground ones (host reads on one,
	// programs and erases on another). Interfaces deliver responses in
	// FIFO request order, so slow housekeeping ops (GC relocation, 3 ms
	// erases) sharing a foreground interface would head-of-line-block
	// every op behind them; a separate interface confines the wait to
	// real chip-level contention.
	Background bool
	// Path is how a read of a remote page reaches it: H-F, the zero
	// value, over the integrated network to the far flash, or through
	// the far node's host (H-RH-F, H-D).
	Path AccessPath
	Data []byte
	Done func(data []byte, err error)
}

// SubmitHostBatch issues a group of host requests paying the storage
// stack software overhead and the RPC doorbell ONCE for the whole
// batch: the driver rings the device with a queue of requests, which
// is what lets a host keep thousands of flash requests in flight
// (paper §3.3) instead of serialising on the 70 µs software path.
// Per-request buffer flow control, DMA and completion interrupts are
// still charged individually. It is the one host path for writes and
// erases, and the one the request scheduler (internal/sched) drives.
//
// Its software runs on the node's serial I/O submission thread and
// occupies host CPU — so under heavy traffic the doorbell rate, not
// the flash, is what saturates first unless batches amortize it.
// HostRead, the unloaded measurement harness of Fig. 12, rings a batch
// of one whose software cost is pure latency instead.
//
// issued (optional) fires when the submission thread has finished the
// batch's software work and is free for the next doorbell; schedulers
// use it to accumulate the next batch instead of committing early to
// many small doorbells.
//
// The requests are copied into the batch's own record before the call
// returns: the slice stays the caller's, which may refill it for the
// next doorbell at once. (The Data of a write is an adopted image, as
// HostReq says; that is the request's business, not the slice's.)
func (n *Node) SubmitHostBatch(reqs []HostReq, issued func()) {
	if len(reqs) == 0 {
		return
	}
	h := n.Host.Config()
	cost := h.SoftwareOverhead + sim.Time(len(reqs))*h.BatchRequestOverhead
	b := n.hostBatches.Get()
	b.reqs, b.issued = append(b.reqs[:0], reqs...), issued
	n.ioThread.Do(cost, b.onSoftware)
}

// hostBatch is one doorbell batch from SubmitHostBatch until its RPC
// has issued every request. Batches are pooled per node
// (Node.hostBatches) with both continuations bound when the record is
// made and the request slice kept from one use to the next, so a
// doorbell allocates nothing.
type hostBatch struct {
	reqs   []HostReq
	issued func()

	// bound once
	onSoftware func() // the submission thread finished the batch's software work
	onRPC      func() // the doorbell reached the device
}

// newHostBatch is hostBatches.New.
func (n *Node) newHostBatch() *hostBatch {
	b := &hostBatch{}
	b.onSoftware = func() {
		if b.issued != nil {
			b.issued()
		}
		n.Host.RPC(b.onRPC)
	}
	b.onRPC = func() {
		for i := range b.reqs {
			op := n.hostOps.Get()
			op.req, b.reqs[i] = b.reqs[i], HostReq{}
			n.issueHostOp(op)
		}
		b.reqs, b.issued = b.reqs[:0], nil
		n.hostBatches.Put(b)
	}
	return b
}

// hostIface picks the interface a program or erase of a local card
// issues on: the host's foreground one or the background one.
func (n *Node) hostIface(card int, bg bool) *flashserver.Iface {
	if bg {
		return n.bgIfaces[card]
	}
	return n.hostIfaces[card]
}

// hostOp is one request of a doorbell batch from the moment the device
// starts on it until its Done fires. Ops are pooled per node
// (Node.hostOps), and every continuation of the device-side path —
// flash or network completion, DMA landing, ack — is bound when the
// record is made, so a batched request allocates nothing here.
type hostOp struct {
	req  HostReq
	data []byte // read: the page on its way up to host memory

	// bound once
	onFlash  func(data []byte, err error) // the flash read, or any remote op, completed
	onAck    func(err error)              // the local program or erase completed
	onLanded func()                       // the read's page reached host memory
	onDown   func()                       // the write's page crossed PCIe
}

// newHostOp is hostOps.New.
func (n *Node) newHostOp() *hostOp {
	op := &hostOp{}
	op.onFlash = func(data []byte, err error) { n.hostFlashDone(op, data, err) }
	op.onAck = func(err error) { n.hostAck(op, err) }
	op.onLanded = func() { n.finishHostOp(op, op.data, nil) }
	op.onDown = func() { n.hostWriteDown(op) }
	return op
}

// finishHostOp recycles op — nothing is in flight on any of its
// continuations — and fires its request's Done.
func (n *Node) finishHostOp(op *hostOp, data []byte, err error) {
	done := op.req.Done
	op.req, op.data = HostReq{}, nil
	n.hostOps.Put(op)
	done(data, err)
}

// issueHostOp starts the device-side path of one batched request. A
// read goes to the flash (local) or the network (remote) and then up
// through a host read buffer; a write takes a write buffer and crosses
// PCIe first; an erase moves no data at all. An erase or a Background
// request for a remote card is refused (ErrNotLocal).
func (n *Node) issueHostOp(op *hostOp) {
	r := &op.req
	remote := r.Addr.Node != n.id
	switch {
	case remote && (r.Erase || r.Background):
		n.finishHostOp(op, nil, ErrNotLocal)
	case r.Write:
		n.Host.PageDown(len(r.Data), op.onDown)
	case remote:
		// §6.4: H-RH-F and H-D are served by the far host, not its ISP.
		n.remoteReq(reqMsg{card: r.Addr.Card, addr: r.Addr.Addr, viaHost: r.Path != PathHF, dram: r.Path == PathHD},
			r.Addr.Node, op.onFlash)
	case r.Erase:
		n.hostIface(r.Addr.Card, r.Background).Erase(r.Addr.Addr, op.onAck)
	case r.Background:
		n.bgIfaces[r.Addr.Card].ReadPhysical(r.Addr.Addr, op.onFlash)
	default:
		n.hostReads[r.Addr.Card].ReadPhysical(r.Addr.Addr, op.onFlash)
	}
}

// hostWriteDown sends a write whose page has crossed PCIe on to the
// flash (local, which adopts the image) or the network (remote).
func (n *Node) hostWriteDown(op *hostOp) {
	r := &op.req
	img := r.Data
	r.Data = nil // handed down: the op neither keeps nor touches it
	if r.Addr.Node == n.id {
		n.hostIface(r.Addr.Card, r.Background).WriteImage(r.Addr.Addr, img, op.onAck)
		return
	}
	n.remoteReq(reqMsg{card: r.Addr.Card, addr: r.Addr.Addr, write: true, data: img}, r.Addr.Node, op.onFlash)
}

// hostFlashDone takes a read's page from the flash or the network and
// DMAs it into a host read buffer, the completion interrupt following;
// for a remote write it is the ack.
func (n *Node) hostFlashDone(op *hostOp, data []byte, err error) {
	switch {
	case op.req.Write:
		n.hostAck(op, err)
	case err != nil:
		n.finishHostOp(op, nil, err)
	default:
		op.data = data
		n.Host.PageUp(len(data), op.onLanded)
	}
}

// hostAck completes a write (returning its write buffer) or an erase.
func (n *Node) hostAck(op *hostOp, err error) {
	if op.req.Write {
		n.Host.ReleaseWriteBuffer()
	}
	n.finishHostOp(op, nil, err)
}

// HostRead fetches a page into host memory via the selected access
// path, filling tr (optional) with the latency decomposition. It is
// the single-request measurement harness of Figures 12/14 and issues
// at once, unadmitted: a doorbell batch of one whose host software —
// the storage stack, or for H-D a lightweight client library — is pure
// latency, not a turn of the I/O submission thread. Host traffic that
// shares the scheduler's admission queues goes through a sched.Stream,
// which drives SubmitHostBatch.
func (n *Node) HostRead(a PageAddr, path AccessPath, tr *Trace, cb func(data []byte, err error)) {
	if tr != nil {
		cb = n.traced(a, path, tr, cb)
	}
	b := n.hostBatches.Get()
	b.reqs = append(b.reqs[:0], HostReq{Addr: a, Path: path, Done: cb})
	if path == PathHD {
		n.Host.ChargeLightSoftware(b.onSoftware)
	} else {
		n.Host.ChargeSoftware(b.onSoftware)
	}
}

// traced wraps a HostRead completion to fill tr. Software is the
// host's issue, doorbell and completion interrupt, plus the far host's
// interrupt, software and doorbell where it serves a remote page;
// Storage is the medium that served the page; Transfer is the rest.
func (n *Node) traced(a PageAddr, path AccessPath, tr *Trace, cb func(data []byte, err error)) func(data []byte, err error) {
	start, h := n.cluster.Eng.Now(), n.Host.Config()
	sw := h.SoftwareOverhead
	if path == PathHD {
		sw = h.LightSoftware
	}
	*tr = Trace{
		Software: sw + h.RPCLatency,
		Storage:  n.cluster.Params.FlashTiming.ReadPage,
		Network:  sim.Time(2*n.cluster.Hops(n.id, a.Node)) * n.cluster.Net.Config().HopLatency,
	}
	if a.Node != n.id && path != PathHF {
		tr.Software += h.InterruptLatency + sw + h.RPCLatency
		if path == PathHD {
			tr.Storage = n.cluster.Params.DRAMLatency
		}
	}
	return func(data []byte, err error) {
		if err == nil {
			tr.Software += h.InterruptLatency
		}
		tr.Total = n.cluster.Eng.Now() - start
		tr.Transfer = max(0, tr.Total-tr.Network-tr.Storage-tr.Software)
		cb(data, err)
	}
}
