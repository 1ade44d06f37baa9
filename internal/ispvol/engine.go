package ispvol

import (
	"repro/internal/hostmodel"
	"repro/internal/sim"
)

// engine is one scan loop in flight, one run of its sim.LaneLoop: an
// in-store engine streaming its node's partition (Figure 8 steps 2–3),
// or, with q set, the host-mediated loop that stands in for the
// engines. Engines are pooled (System.engines); the loop, its unit
// claim and every lane's page completions are bound once, so neither a
// run nor a page scanned allocates.
type engine struct {
	sys          *System
	p            partial
	failed       int // pages whose read or reduction failed
	node, origin int
	query        uint64
	refs         []pageRef // in-store: the partition, chip-interleaved

	q       *query // host-mediated: its pages' host-path reader and worker threads
	read    func(i int, cb func([]byte, error))
	idx     []int
	workers []*hostmodel.Thread
	cost    sim.Time

	lanes []lane        // System.depth of them, what either loop may use
	run   *sim.LaneLoop // over page and finish, on those lanes
	claim func()        // claimed, runPart's acceleration-unit request
}

// lane is one lane of an engine's run: the page it is on, and that
// page's completions, bound once.
type lane struct {
	e         *engine
	i         int
	next      func()
	data      []byte // the page between its read and its reduction
	onRead    func(data []byte, err error)
	onReduced func()
}

// runPart executes one node's engine (Figure 8 steps 2–3): claim an
// acceleration unit, reduce every local page of the partition, ship the
// partial to the origin.
func (sys *System) runPart(ns *nodeISP, m *startMsg) {
	e := sys.engines.Get()
	e.node, e.origin, e.query = ns.node.ID(), m.origin, m.query
	e.p = m.k.newPartial(m.ps, len(m.refs))
	e.refs = sys.chipInterleave(e.refs, m.refs)
	ns.units.Acquire(e.claim)
}

// claimed runs an in-store engine on the acceleration unit it was
// granted: System.depth lanes over its partition.
func (e *engine) claimed() { e.run.Run(len(e.refs), len(e.lanes)) }

// hostScan is the host-mediated placement: a depth-bounded closed loop
// that reads each page through the host path and reduces it on a
// worker thread into one partial, merged through the same kernel code
// as the engines' partials — so the two placements can only diverge on
// the data path, which is what the experiments cross-validate. The
// loop keeps the hardware's read depth (System.depth) in flight; each
// slot is read-then-process, so slots overlap flash, PCIe and CPU work
// across each other.
func (q *query) hostScan(read func(i int, cb func([]byte, error)), idx []int) {
	sys := q.sys
	//simlint:allow obligation (the engine's bound loop takes it over: the loop's done, finish, puts it back)
	e := sys.engines.Get()
	e.q, e.read, e.idx = q, read, idx
	e.p = q.k.newPartial(q.st.ps, q.st.pages)
	e.workers = sys.c.Node(q.origin).CPU.NewThreads(hostThreads)
	e.cost = q.k.hostCost(q.st.ps)
	e.run.Run(q.st.pages, len(e.lanes))
}

// newEngine is engines.New.
func (sys *System) newEngine() *engine {
	e := &engine{sys: sys, lanes: make([]lane, sys.depth)}
	for i := range e.lanes {
		l := &e.lanes[i]
		l.e, l.onRead, l.onReduced = e, l.read, l.reduced
	}
	e.run, e.claim = sim.NewLaneLoop(len(e.lanes), e.page, e.finish), e.claimed
	return e
}

// page is the Lanes body: issue page i's read on the lane.
func (e *engine) page(lane, i int, next func()) {
	l := &e.lanes[lane]
	l.i, l.next = i, next
	switch {
	case e.q == nil:
		e.sys.readPage(e.node, e.refs[i], l.onRead)
	case e.idx != nil:
		e.read(e.idx[i], l.onRead)
	default:
		e.read(i, l.onRead)
	}
}

// read is the lane's page read completion. An in-store engine reduces
// the page next to the flash; the host-mediated loop counts it into host
// memory and reduces it on the lane's worker thread. A failed read skips
// the page; it is counted, not fatal.
func (l *lane) read(data []byte, err error) {
	e := l.e
	switch {
	case err != nil:
		e.failed++
		l.next()
	case e.q != nil:
		e.q.st.toHost += int64(len(data))
		l.data = data
		e.workers[l.i%len(e.workers)].Do(e.cost, l.onReduced)
	default:
		l.data = data
		l.reduced()
	}
}

// reduced reduces the lane's page into the engine's partial.
func (l *lane) reduced() {
	e, ref := l.e, pageRef{qidx: l.i}
	if e.q == nil {
		ref = e.refs[l.i]
	}
	if !e.p.scan(ref, l.data) {
		e.failed++
	}
	l.data = nil
	l.next()
}

// finish ends the run. An in-store engine releases its unit and ships
// its partial to the origin; the host-mediated loop merges its partial
// and completes the query. The record goes back to the pool first,
// keeping its lanes, its bound loop and its partition buffer: a query
// it completes may take it for its next run from here.
func (e *engine) finish() {
	sys, p, failed, q := e.sys, e.p, e.failed, e.q
	self, origin, query := e.node, e.origin, e.query
	*e = engine{sys: sys, refs: e.refs[:0], lanes: e.lanes, run: e.run, claim: e.claim}
	sys.engines.Put(e)
	if q != nil {
		q.st.failed += failed
		q.k.merge(p)
		q.k.finish(q.st.pages, q.st.ps)
		q.complete()
		return
	}
	sys.nodes[self].units.Release()
	sys.deliver(self, origin, p.wireBytes(), &partMsg{query: query, failed: failed, p: p})
}
