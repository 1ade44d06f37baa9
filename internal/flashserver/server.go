package flashserver

import (
	"errors"
	"fmt"
	"hash/crc32"

	"repro/internal/flashctl"
	"repro/internal/nand"
	"repro/internal/sim"
)

// Server errors.
var (
	ErrNoMapping   = errors.New("flashserver: file handle not mapped")
	ErrOutOfBounds = errors.New("flashserver: offset beyond file mapping")
	// ErrShortRead fails a read whose bursts did not assemble into one
	// whole page: a burst went missing, arrived out of order or was not
	// a view of the tag's page buffer, or the controller reported the
	// read done before a page's worth had arrived.
	ErrShortRead = errors.New("flashserver: read bursts did not assemble into a whole page")
)

// errNotImage fails a write whose buffer is not a page image: not
// PageSize bytes.
var errNotImage = fmt.Errorf("%w: not a page image (nand.Geometry.PageImage)", flashctl.ErrDataSize)

// Server is the optional Flash Server module (paper §3.1.2): it turns
// the controller's out-of-order interleaved interface into simple
// in-order request/response interfaces using page buffers, and hosts
// the Address Translation Unit for file-handle based requests.
type Server struct {
	port *Port
	atu  *ATU

	queueDepth int
	geo        nand.Geometry
	guard      bool // nand.Reliability.GuardImages: checksum each image WriteImage adopts

	// ops holds every pageOp the server has made, indexed by its tag;
	// pool recycles those not in use. It grows to the most requests ever
	// outstanding at once and is then reused forever.
	ops  []*pageOp
	pool sim.Pool[pageOp]

	ifaces []*Iface
}

// pageOp is one request from the moment an interface accepts it until
// its callback fires: the page buffer of a read or write, the
// completion status, and the place in its interface's FIFO.
type pageOp struct {
	iface *Iface
	tag   int // index in Server.ops, and the op's agent tag at the splitter
	kind  flashctl.Op
	addr  nand.Addr
	// buf is, for a read, the page reassembled so far — a growing view
	// of the controller's page buffer — and, for a write, the adopted
	// page image.
	buf      []byte
	sum      uint32 // write, under the guard: checksum of buf as WriteImage adopted it
	credited bool   // issued to the controller on one of the interface's queue-depth credits
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
	name string

	fifo    sim.Queue[*pageOp] // every undelivered op, in request order
	waiting sim.Queue[*pageOp] // the tail of fifo still waiting for a credit
	credits int
}

// Drained reports page ops still out of the server's pool.
func (s *Server) Drained() error { return s.pool.Drained("flashserver page ops") }

// NewServer attaches a Flash Server to a splitter. queueDepth bounds
// the per-interface number of requests outstanding at the controller
// (the "command queue depth" parameter of the paper).
func NewServer(sp *Splitter, name string, queueDepth int) *Server {
	if queueDepth <= 0 {
		queueDepth = 8
	}
	srv := &Server{
		atu:        NewATU(),
		queueDepth: queueDepth,
		geo:        sp.ctl.Card().Geometry(),
		guard:      sp.ctl.Card().Guarded(),
	}
	// A new op's tag is its index in ops for life.
	srv.pool.New = func() *pageOp {
		op := &pageOp{tag: len(srv.ops)}
		srv.ops = append(srv.ops, op)
		return op
	}
	srv.port = sp.NewPort(name, flashctl.Handlers{
		ReadChunk:    func(tag, offset int, chunk []byte, _ bool) { srv.readChunk(tag, offset, chunk) },
		ReadDone:     func(tag, _ int, err error) { srv.readDone(tag, err) },
		WriteDataReq: srv.writeDataReq,
		WriteDone:    srv.finish,
		EraseDone:    srv.finish,
	})
	return srv
}

// ATU returns the server's address translation unit.
//
//simlint:allow unused (the ATU path of the paper's Figure 8, which the flash-server and rfs tests run)
func (s *Server) ATU() *ATU { return s.atu }

// NewIface creates an in-order interface. The paper makes the number
// of interfaces a design-time parameter; here it is just a
// constructor call.
func (s *Server) NewIface(name string) *Iface {
	f := &Iface{srv: s, name: name, credits: s.queueDepth}
	s.ifaces = append(s.ifaces, f)
	return f
}

// inflight returns the op at the controller under tag — issued and not
// yet completed — or nil when the event is for a tag this server has
// nothing outstanding on.
//
//simlint:hotpath
func (s *Server) inflight(tag int) *pageOp {
	if tag < 0 || tag >= len(s.ops) {
		return nil
	}
	if op := s.ops[tag]; op.credited && !op.done {
		return op
	}
	return nil
}

// readChunk reassembles a read by view: the controller's bursts for
// one tag are consecutive slices of one page buffer, so the first
// burst is kept and each later one extends it, with no copy. A burst
// that does not continue the page — a gap, a repeat, a reordering, or
// memory that is not the next bytes of the same buffer — poisons the
// op, which then completes with ErrShortRead.
//
//simlint:hotpath
func (s *Server) readChunk(tag, offset int, chunk []byte) {
	op := s.inflight(tag)
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
//
//simlint:hotpath
func (s *Server) readDone(tag int, err error) {
	op := s.inflight(tag)
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
	if op := s.inflight(tag); op != nil && op.kind == flashctl.OpWrite {
		if err := s.port.WriteImage(tag, op.buf); err != nil {
			s.complete(op, err)
		}
	}
}

// finish completes the write or erase issued under tag. Under the guard
// a program's image must still be what WriteImage adopted.
//
//simlint:hotpath
func (s *Server) finish(tag int, err error) {
	op := s.inflight(tag)
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
//
//simlint:hotpath
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
//
//simlint:hotpath
func (f *Iface) ReadPhysical(addr nand.Addr, cb func(data []byte, err error)) {
	op := f.srv.pool.Get()
	op.iface, op.kind, op.addr, op.onRead = f, flashctl.OpRead, addr, cb
	f.submit(op)
}

// ReadFile reads page number pageOff of the file mapped under handle,
// using the ATU (the in-store processor path of paper Figure 8).
//
//simlint:allow unused (the ATU path of the paper's Figure 8, which the flash-server and rfs tests run)
func (f *Iface) ReadFile(handle FileHandle, pageOff int, cb func(data []byte, err error)) {
	addr, err := f.srv.atu.Translate(handle, pageOff)
	op := f.srv.pool.Get()
	op.iface, op.kind, op.addr, op.onRead = f, flashctl.OpRead, addr, cb
	if err != nil {
		f.reject(op, err)
		return
	}
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
//
//simlint:hotpath
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

// issue sends a credited op to the controller through the splitter.
//
//simlint:hotpath
func (f *Iface) issue(op *pageOp) {
	op.credited = true
	//simlint:allow hotpath (the flash command itself: the private copy of a read that drew bit errors and a bounded handful of continuations per command, hidden under NAND latency; the allocation pins in this package's tests hold the budget)
	if err := f.srv.port.Issue(flashctl.Command{Op: op.kind, Tag: op.tag, Addr: op.addr}); err != nil {
		f.srv.complete(op, err)
	}
}

// releaseCredit passes a delivered op's credit to the oldest waiting
// op, or back to the interface.
//
//simlint:hotpath
func (f *Iface) releaseCredit() {
	if f.waiting.Len() > 0 {
		f.issue(f.waiting.Pop())
		return
	}
	f.credits++
}

// drainInOrder delivers completed ops from the FIFO head.
//
//simlint:hotpath
func (f *Iface) drainInOrder() {
	for f.fifo.Len() > 0 && f.fifo.Front().done {
		op := f.fifo.Pop()
		credited, onRead, onAck, buf, err := op.credited, op.onRead, op.onAck, op.buf, op.err
		*op = pageOp{tag: op.tag} // delivered: nothing is in flight under its tag
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
}
