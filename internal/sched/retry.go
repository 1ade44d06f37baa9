package sched

import (
	"repro/internal/core"
	"repro/internal/sim"
)

// Retrier admits flash operations for layers that cannot refuse their
// own callers — the volume's per-card FTL backends, the cluster file
// system, the closed-loop workload drivers. A Stream reports a full
// admission queue as ErrBackpressure; a Retrier absorbs it, admitting
// again after a fixed delay until the node takes the request. Reads and
// erases have no ordering constraint and retry each on its own; page
// writes go through a Sequencer, which keeps them in issue order.
type Retrier struct {
	s     *Scheduler
	delay sim.Time

	// Backpressure counts the ErrBackpressure refusals absorbed so far,
	// by Read, AccelRead, Erase and every Sequencer of this retrier.
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
	ast  *AccelStream // set for an in-store processor's read, st nil
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

// AccelRead is Read for an in-store processor's stream: the admitted
// device read for a caller with no error return to refuse through,
// ispvol's engines among them. It takes what core.Node.ISPReadDirect
// takes, and cb fires exactly once, the way ISPReadDirect's does.
//
//simlint:hotpath
func (rt *Retrier) AccelRead(st *AccelStream, a core.PageAddr, cb func(data []byte, err error)) {
	op := rt.ops.Get()
	op.ast, op.addr, op.rcb = st, a, cb
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
	switch {
	case op.ast != nil:
		err = op.ast.Read(op.addr, op.rcb)
	case op.wcb != nil:
		err = op.st.Erase(op.addr, op.wcb)
	default:
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
// among themselves share one sequencer (the volume keeps one per FTL
// traffic tag, the file system one per node and class).
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
