package sched

import (
	"repro/internal/core"
	"repro/internal/sim"
)

// Retrier admits flash operations for layers that cannot refuse their
// own callers — the page logs under a Port, ispvol's in-store engines,
// the closed-loop workload drivers. A Stream reports a full admission
// queue as ErrBackpressure; a Retrier absorbs it, admitting again after
// a fixed delay until the node takes the request. Reads and erases have
// no ordering constraint and retry each on its own; page writes go
// through a Sequencer, which keeps them in issue order.
type Retrier struct {
	s     *Scheduler
	delay sim.Time

	// Backpressure counts the ErrBackpressure refusals absorbed so far,
	// by Read, Erase and every Sequencer of this retrier.
	Backpressure int64

	ops sim.Pool[retryOp]
}

// defaultRetryDelay is the backoff used when a caller names none.
const defaultRetryDelay = 5 * sim.Microsecond

// NewRetrier returns a retrier that re-admits a refused request after
// delay (5 µs when zero or negative).
func (s *Scheduler) NewRetrier(delay sim.Time) *Retrier {
	if delay <= 0 {
		delay = defaultRetryDelay
	}
	rt := &Retrier{s: s, delay: delay}
	rt.ops.New = func() *retryOp {
		op := &retryOp{}
		op.try = func() { rt.admit(op) }
		return op
	}
	s.cluster.OnCheck(func() error { return rt.ops.Drained("sched retry ops") })
	return rt
}

// retryOp is one read or erase from the call that issued it until a
// stream admits it (or fails it for good). Ops are pooled per retrier.
type retryOp struct {
	st   *Stream
	addr core.PageAddr
	rcb  func(data []byte, err error) // a read's callback
	wcb  func(err error)              // an erase's callback
	try  func()                       // bound once: admit again
}

// Read admits a page read on st, retrying on backpressure. cb fires
// exactly once: with the stream's result, or with the admission error
// when the stream refuses the read for any other reason.
//
//simlint:hotpath
func (rt *Retrier) Read(st *Stream, a core.PageAddr, cb func(data []byte, err error)) {
	op := rt.ops.Get()
	op.st, op.addr, op.rcb = st, a, cb
	rt.admit(op)
}

// Erase admits a block erase on st, retrying on backpressure; cb fires
// exactly once, like Read's.
//
//simlint:hotpath
func (rt *Retrier) Erase(st *Stream, a core.PageAddr, cb func(err error)) {
	op := rt.ops.Get()
	op.st, op.addr, op.wcb = st, a, cb
	rt.admit(op)
}

// admit offers op to its stream once, and schedules the next offer if
// the node's queue is full.
//
//simlint:hotpath
func (rt *Retrier) admit(op *retryOp) {
	var err error
	if op.wcb != nil {
		err = op.st.Erase(op.addr, op.wcb)
	} else {
		err = op.st.Read(op.addr, op.rcb)
	}
	if err == ErrBackpressure {
		rt.Backpressure++
		rt.s.eng.After(rt.delay, op.try)
		return
	}
	rcb, wcb := op.rcb, op.wcb
	*op = retryOp{try: op.try}
	rt.ops.Put(op)
	switch {
	case err == nil:
	case wcb != nil:
		wcb(err)
	default:
		rcb(nil, err)
	}
}

// Sequencer admits page writes strictly in the order they were issued.
// NAND programs the pages of a block in order and the layers above
// allocate frontier pages in issue order, so a write that meets
// backpressure must stall the writes behind it, never let them
// overtake: the sequencer retries its head after the retrier's delay
// and admits nothing else meanwhile. Writes that must stay ordered
// among themselves share one sequencer (a Port keeps one per node and
// traffic tag).
type Sequencer struct {
	rt      *Retrier
	q       sim.Queue[seqWrite]
	stalled bool
	resume  func() // bound once: the stall is over, admit again
}

// seqWrite is one write waiting in a sequencer.
type seqWrite struct {
	st   *Stream
	addr core.PageAddr
	img  []byte
	cb   func(err error)
}

// NewSequencer returns an empty write sequencer backed by rt.
func (rt *Retrier) NewSequencer() *Sequencer {
	sq := &Sequencer{rt: rt}
	sq.resume = func() {
		sq.stalled = false
		sq.pump()
	}
	return sq
}

// WriteImage queues the write of a page image behind the sequencer's
// earlier writes and admits it on st when its turn comes. It adopts img
// as Stream.WriteImage does; while the write waits here, and again
// whenever the stream refuses it, the image is the sequencer's, and the
// same one is offered again. cb fires exactly once.
//
//simlint:hotpath
func (sq *Sequencer) WriteImage(st *Stream, a core.PageAddr, img []byte, cb func(err error)) {
	sq.q.Push(seqWrite{st: st, addr: a, img: img, cb: cb})
	sq.pump()
}

// pump admits queued writes from the head until the queue is empty or
// the node pushes back.
//
//simlint:hotpath
func (sq *Sequencer) pump() {
	for !sq.stalled && sq.q.Len() > 0 {
		w := sq.q.Front()
		err := w.st.WriteImage(w.addr, w.img, w.cb)
		if err == ErrBackpressure {
			sq.rt.Backpressure++
			sq.stalled = true
			sq.rt.s.eng.After(sq.rt.delay, sq.resume)
			return
		}
		sq.q.Pop()
		if err != nil {
			w.cb(err)
		}
	}
}

// Port is a page log's way into the scheduler: the reclaim.Port under
// the volume's card FTLs and the cluster file system alike. It admits
// each op at the node that owns its page, at the class its tag rides
// (classOf), and retries on backpressure through its Retrier. Programs
// of one tag at one node go through one Sequencer, so they are admitted
// in issue order: the log allocates each tag's frontier pages in issue
// order and NAND programs a block's pages in order, so a backpressured
// program must stall its tag's later ones, never let them overtake.
// Programs of different tags pass each other, Background ones included:
// a stalled relocation does not hold up a rebuild or a flush.
type Port struct {
	rt      *Retrier
	addr    func(ppn int) core.PageAddr
	streams [][NumClasses]Stream // per node, per class
	seqs    map[lane]*Sequencer
}

// lane names the programs that must stay in issue order: one tag's at
// one node.
type lane struct {
	node int
	tag  uint8
}

// NewPort returns a port admitting through rt; addr resolves a ppn of
// the log to the page it names.
func (rt *Retrier) NewPort(addr func(ppn int) core.PageAddr) *Port {
	p := &Port{rt: rt, addr: addr, streams: make([][NumClasses]Stream, len(rt.s.nodes)), seqs: make(map[lane]*Sequencer)}
	for n := range p.streams {
		for cl := range p.streams[n] {
			p.streams[n][cl] = Stream{s: rt.s, node: n, class: Class(cl)}
		}
	}
	return p
}

// classOf is the one rule from a page log's traffic tag to a class: a
// tag below Accel is a tenant's class and rides it; every other tag is
// the log's own work or its layer's housekeeping (reclaim.TagMove, and
// the FTL's rebuild and flush tags) and rides Background, under the
// urgency token budget.
func classOf(tag uint8) Class {
	if Class(tag) < Accel {
		return Class(tag)
	}
	return Background
}

// Read admits a page read at the owning node, retrying on backpressure
// (reads have no ordering constraint).
//
//simlint:hotpath
func (p *Port) Read(ppn int, tag uint8, cb func(data []byte, err error)) {
	a := p.addr(ppn)
	p.rt.Read(&p.streams[a.Node][classOf(tag)], a, cb)
}

// Program admits a page program through its (node, tag) sequencer. It
// adopts img (reclaim.Port).
//
//simlint:hotpath
func (p *Port) Program(ppn int, tag uint8, img []byte, cb func(err error)) {
	a := p.addr(ppn)
	k := lane{a.Node, tag}
	sq := p.seqs[k]
	if sq == nil {
		//simlint:allow hotpath (cold edge: a lane's sequencer is made at its first program, once per node and tag)
		//simlint:allow escapecheck (the same cold edge, inlined here)
		sq = p.rt.NewSequencer()
		p.seqs[k] = sq
	}
	sq.WriteImage(&p.streams[a.Node][classOf(tag)], a, img, cb)
}

// Erase admits a block erase at the owning node on the Background
// class, retrying on backpressure. A log erases a unit only after its
// programs and reads drained, so no ordering hazard exists.
//
//simlint:hotpath
func (p *Port) Erase(ppn int, cb func(err error)) {
	a := p.addr(ppn)
	p.rt.Erase(&p.streams[a.Node][Background], a, cb)
}
