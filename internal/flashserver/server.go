// Package flashserver is the Flash Server of paper §3.1.2, Figure 3:
// the layer that lets many users share one flash controller.
//
//   - Server gives each request a controller tag from the controller's
//     tag space (128 tags on the paper's board), queueing FIFO while
//     every tag is in flight — the splitter function, here in the
//     server itself since one server is the card's only agent — and
//     turns the controller's out-of-order, interleaved bursts back into
//     whole pages;
//   - Iface is one in-order request/response interface of the server:
//     local in-store processors, host DMA and remote nodes each use
//     their own, and each delivers in request order.
//
// Requests name physical pages only. An in-store engine that scans a
// file is handed the file's physical pages by the file system
// (rfs.File.PhysicalAddrs, the paper's Figure 8) and reads them through
// an interface like any other reader.
package flashserver

import (
	"errors"
	"fmt"
	"hash/crc32"

	"repro/internal/flashctl"
	"repro/internal/nand"
	"repro/internal/sim"
)

// ErrShortRead fails a read whose bursts did not assemble into one
// whole page: a burst went missing, arrived out of order or was not a
// view of the tag's page buffer, or the controller reported the read
// done before a page's worth had arrived.
var ErrShortRead = errors.New("flashserver: read bursts did not assemble into a whole page")

// errNotImage fails a write whose buffer is not a page image: not
// PageSize bytes.
var errNotImage = fmt.Errorf("%w: not a page image (nand.Geometry.PageImage)", flashctl.ErrDataSize)

// Server is the Flash Server module (paper §3.1.2) of one card: it
// shares the card's controller among in-order request/response
// interfaces, renaming their requests onto the controller's tags and
// reassembling each read's bursts into a page.
type Server struct {
	ctl *flashctl.Controller

	queueDepth int
	geo        nand.Geometry
	guard      bool // nand.Reliability.GuardImages: checksum each image WriteImage adopts

	// freeTags is the stack of idle controller tags, handed out from 0
	// and reused last in, first out; inflight holds the op issued under
	// each busy tag; tagWait queues credited ops, FIFO, while every tag
	// is busy.
	freeTags []int
	inflight []*pageOp
	tagWait  sim.Queue[*pageOp]

	pool sim.Pool[pageOp]
}

// pageOp is one request from the moment an interface accepts it until
// its callback fires: the page buffer of a read or write, the
// completion status, and the place in its interface's FIFO.
type pageOp struct {
	iface *Iface
	kind  flashctl.Op
	addr  nand.Addr
	// buf is, for a read, the page reassembled so far — a growing view
	// of the controller's page buffer — and, for a write, the adopted
	// page image.
	buf      []byte
	sum      uint32 // write, under the guard: checksum of buf as WriteImage adopted it
	credited bool   // holds one of the interface's queue-depth credits
	done     bool
	err      error
	onRead   func(data []byte, err error)
	onAck    func(err error)
}

// Iface is one in-order interface of the server. Responses on an
// interface are delivered strictly in request order, like a FIFO,
// regardless of how the flash reorders them internally.
type Iface struct {
	srv  *Server
	bulk bool // reads issue at bulk priority (NewBulkIface)

	fifo    sim.Queue[*pageOp] // every undelivered op, in request order
	waiting sim.Queue[*pageOp] // the tail of fifo still waiting for a credit
	credits int
	// draining is set while drainInOrder delivers: a completion that
	// re-enters it (a passed-on credit issued a read the card refused
	// at once, or a callback submitted one) only marks its op done, and
	// the outer loop delivers it in request order.
	draining bool
}

// Drained reports page ops still out of the server's pool.
func (s *Server) Drained() error { return s.pool.Drained("flashserver page ops") }

// New builds a card's flash controller with cfg and the Flash Server
// in front of it. queueDepth bounds each interface's requests
// outstanding at the controller (the paper's "command queue depth").
func New(eng *sim.Engine, card *nand.Card, cfg flashctl.Config, queueDepth int) (*flashctl.Controller, *Server, error) {
	s := newServer(card, queueDepth)
	ctl, err := flashctl.New(eng, card, cfg, s.handlers())
	if err != nil {
		return nil, nil, err
	}
	s.attach(ctl)
	return ctl, s, nil
}

// newServer is a server for card, not yet attached to its controller.
func newServer(card *nand.Card, queueDepth int) *Server {
	return &Server{
		queueDepth: queueDepth,
		geo:        card.Geometry(),
		guard:      card.Guarded(),
		pool:       sim.Pool[pageOp]{New: func() *pageOp { return &pageOp{} }},
	}
}

// handlers are the server's controller handlers, each bound once.
func (s *Server) handlers() flashctl.Handlers {
	return flashctl.Handlers{
		ReadChunk:    s.readChunk,
		ReadDone:     s.readDone,
		WriteDataReq: s.writeDataReq,
		WriteDone:    s.finish,
		EraseDone:    s.finish,
	}
}

// attach gives the server the controller built with its handlers.
func (s *Server) attach(ctl *flashctl.Controller) {
	s.ctl = ctl
	n := ctl.Config().Tags
	s.inflight = make([]*pageOp, n)
	for tag := n - 1; tag >= 0; tag-- {
		s.freeTags = append(s.freeTags, tag)
	}
}

// NewIface creates an in-order interface. The paper makes the number
// of interfaces a design-time parameter; here it is just a
// constructor call.
func (s *Server) NewIface() *Iface {
	return &Iface{srv: s, credits: s.queueDepth}
}

// NewBulkIface creates an in-order interface whose reads may wait: the
// card runs them at bulk priority, behind the ordinary commands at
// their chip up to a bound (nand.Card.ReadPageBulk). Writes and erases
// on it are ordinary.
func (s *Server) NewBulkIface() *Iface {
	return &Iface{srv: s, bulk: true, credits: s.queueDepth}
}

// release frees the controller tag of a command the controller has
// finished and returns the op it was issued for, nil when none was.
// The freed tag goes to the oldest op waiting for one, which is issued
// before the caller delivers the finished op's outcome.
func (s *Server) release(tag int) *pageOp {
	op := s.inflight[tag]
	s.inflight[tag] = nil
	s.freeTags = append(s.freeTags, tag)
	if s.tagWait.Len() > 0 {
		s.send(s.tagWait.Pop())
	}
	return op
}

// readChunk reassembles a read by view: the controller's bursts for
// one tag are consecutive slices of one page buffer, so the first
// burst is kept and each later one extends it, with no copy. A burst
// that does not continue the page — a gap, a repeat, a reordering, or
// memory that is not the next bytes of the same buffer — poisons the
// op, which then completes with ErrShortRead.
func (s *Server) readChunk(tag, offset int, chunk []byte, _ bool) {
	op := s.inflight[tag]
	if op == nil || op.err != nil || len(chunk) == 0 {
		return
	}
	n := len(op.buf)
	switch {
	case offset != n:
		op.err = ErrShortRead
	case n == 0:
		op.buf = chunk
	case cap(op.buf)-n >= len(chunk) && &op.buf[:n+1][n] == &chunk[0]:
		op.buf = op.buf[:n+len(chunk)]
	default:
		op.err = ErrShortRead
	}
}

// readDone completes a read. A read the controller calls good must
// have assembled into exactly one page.
func (s *Server) readDone(tag, _ int, err error) {
	op := s.release(tag)
	if op == nil {
		return
	}
	if err == nil {
		err = op.err
	}
	if err == nil && len(op.buf) != s.geo.PageSize {
		err = ErrShortRead
	}
	// The page is a page image as it stands: its receiver may program
	// it back.
	s.complete(op, err)
}

// writeDataReq gives the controller the image WriteImage adopted, when
// its scheduler asks for it. The op keeps its reference for the guard
// only; the controller owns the image from here.
func (s *Server) writeDataReq(tag int) {
	if op := s.inflight[tag]; op != nil {
		if err := s.ctl.WriteImage(tag, op.buf); err != nil {
			s.complete(op, err)
		}
	}
}

// finish completes the write or erase issued under tag. Under the guard
// a program's image must still be what WriteImage adopted.
func (s *Server) finish(tag int, err error) {
	op := s.release(tag)
	if op == nil {
		return
	}
	if s.guard && op.kind == flashctl.OpWrite && crc32.Checksum(op.buf, castagnoli) != op.sum {
		panic(fmt.Sprintf("flashserver: the image for %v was written to after WriteImage adopted it (found by program): page images are immutable", op.addr))
	}
	s.complete(op, err)
}

// castagnoli is the guard's checksum, the one the card takes.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// complete records an op's outcome and delivers whatever that
// unblocks at the head of its interface's FIFO.
func (s *Server) complete(op *pageOp, err error) {
	op.done = true
	op.err = err
	if err != nil {
		op.buf = nil
	}
	op.iface.drainInOrder()
}

// ReadPhysical reads the page at a physical address. The callback
// fires in FIFO order relative to other requests on this interface.
//
// Ownership: data is the callback's to keep; never to modify. It is as
// a rule the image the card stores (see nand.ReadPage), the one every
// other clean read of the page, earlier, concurrent or later, delivers
// too; a read with bits to correct delivers a private corrected copy,
// and the receiver cannot tell which it got. Either way data is a page
// image: a relocation hands it straight back to WriteImage.
func (f *Iface) ReadPhysical(addr nand.Addr, cb func(data []byte, err error)) {
	op := f.srv.pool.Get()
	op.iface, op.kind, op.addr, op.onRead = f, flashctl.OpRead, addr, cb
	f.submit(op)
}

// WritePhysical programs a page. The ack callback fires in FIFO order.
//
// Ownership: data is snapshotted into a page image before WritePhysical
// returns, so the caller may reuse its buffer at once; whatever shape
// data has, it is never adopted. Callers that already hold an image use
// WriteImage.
func (f *Iface) WritePhysical(addr nand.Addr, data []byte, cb func(err error)) {
	f.WriteImage(addr, f.srv.geo.PageImage(data), cb)
}

// WriteImage programs a page image (nand.Geometry.PageImage). The ack
// callback fires in FIFO order.
//
// Ownership: the interface adopts img — the buffer the card ends up
// storing, the one page-sized allocation of the program path — so the
// caller must not write to it again unless the ack reports an error: a
// failed write leaves no reference to img below. img may be an image a
// read delivered, which the card already stores elsewhere. Anything
// that is not an image fails with flashctl.ErrDataSize, in order, and
// is not adopted. Under nand.Reliability.GuardImages the checksum is
// taken here, the first adoption below the snapshot, and verified when
// the program completes: a holder that writes to img after this call
// fails that program, which panics naming the page.
func (f *Iface) WriteImage(addr nand.Addr, img []byte, cb func(err error)) {
	op := f.srv.pool.Get()
	op.iface, op.kind, op.addr, op.onAck = f, flashctl.OpWrite, addr, cb
	if !f.srv.geo.IsPageImage(img) {
		f.reject(op, errNotImage)
		return
	}
	op.buf = img
	if f.srv.guard {
		op.sum = crc32.Checksum(img, castagnoli)
	}
	f.submit(op)
}

// Erase erases a block. The ack callback fires in FIFO order.
func (f *Iface) Erase(addr nand.Addr, cb func(err error)) {
	op := f.srv.pool.Get()
	op.iface, op.kind, op.addr, op.onAck = f, flashctl.OpErase, addr, cb
	f.submit(op)
}

// submit queues op behind the interface's earlier requests and issues
// it now if a queue-depth credit is free.
func (f *Iface) submit(op *pageOp) {
	f.fifo.Push(op)
	if f.credits == 0 {
		f.waiting.Push(op)
		return
	}
	f.credits--
	f.issue(op)
}

// reject fails op without sending it to the controller. Order must
// still hold, so it completes through the FIFO like any other op; it
// never held a credit and gives none back.
func (f *Iface) reject(op *pageOp, err error) {
	f.fifo.Push(op)
	f.srv.complete(op, err)
}

// issue sends a credited op to the controller, or queues it FIFO while
// every controller tag is busy.
func (f *Iface) issue(op *pageOp) {
	op.credited = true
	if len(f.srv.freeTags) == 0 {
		f.srv.tagWait.Push(op)
		return
	}
	f.srv.send(op)
}

// send issues op under the most recently freed controller tag.
func (s *Server) send(op *pageOp) {
	tag := s.freeTags[len(s.freeTags)-1]
	s.freeTags = s.freeTags[:len(s.freeTags)-1]
	s.inflight[tag] = op
	if err := s.ctl.Issue(flashctl.Command{Op: op.kind, Tag: tag, Addr: op.addr, Bulk: op.iface.bulk}); err != nil {
		// The server owns the tags and makes only reads, writes and
		// erases, so this is a bug in the model, not a runtime condition.
		panic(fmt.Sprintf("flashserver: controller rejected a command: %v", err))
	}
}

// releaseCredit passes a delivered op's credit to the oldest waiting
// op, or back to the interface.
func (f *Iface) releaseCredit() {
	if f.waiting.Len() > 0 {
		f.issue(f.waiting.Pop())
		return
	}
	f.credits++
}

// drainInOrder delivers completed ops from the FIFO head. It does not
// re-enter itself (see draining).
func (f *Iface) drainInOrder() {
	if f.draining {
		return
	}
	f.draining = true
	for f.fifo.Len() > 0 && f.fifo.Front().done {
		op := f.fifo.Pop()
		credited, onRead, onAck, buf, err := op.credited, op.onRead, op.onAck, op.buf, op.err
		*op = pageOp{}
		f.srv.pool.Put(op)
		if credited {
			f.releaseCredit()
		}
		if onRead != nil {
			onRead(buf, err)
		} else {
			onAck(err)
		}
	}
	f.draining = false
}
