package sched

import (
	"errors"
	"fmt"

	"repro/internal/core"
)

// Stream is one client's admission handle: a named, QoS-classed
// sequence of requests issued from one node. Many streams are open
// concurrently; the scheduler multiplexes them onto the nodes'
// admission queues and batches host requests at the device doorbell.
//
// A stream at class Accel is an in-store processor's: the admitted
// device read, where core.Node.ISPReadDirect is the unadmitted one. Its
// reads are admitted at the node that OWNS the page (that is where the
// flash contention lives), wait their turn in the Accel class under its
// token budget, and — once granted — issue through ISPReadAdmitted from
// the stream's node: local pages hit the card's bulk lanes, remote pages
// ride the integrated storage network, and no host software, doorbell,
// DMA or host window slot is charged anywhere. So the scheduler sees
// every flash operation the appliance performs — host, housekeeping and
// ISP alike — while the ISP data path keeps the paper's
// zero-host-involvement property. An Accel stream only reads.
type Stream struct {
	s     *Scheduler
	node  int
	class Class

	// Submitted counts operations this stream admitted successfully.
	Submitted int64
}

// ErrAccelReadOnly fails a write or an erase on an Accel stream: in-store
// processors only read the flash. Nothing was admitted.
var ErrAccelReadOnly = errors.New("sched: an accel stream only reads")

// errNoOwner fails an Accel read whose page names a node outside the
// cluster. It is a fixed value because Read sits under the Retrier's
// hot path.
var errNoOwner = errors.New("sched: page owner is not a node of the cluster")

// NewStream opens a stream issuing from node at the given QoS class.
// The stream may address any page in the cluster; a host stream's
// remote pages ride the integrated storage network over H-F, the
// device-side path Node.HostRead shares, and an Accel stream's the ISP-F
// path.
func (s *Scheduler) NewStream(name string, node int, class Class) (*Stream, error) {
	if node < 0 || node >= len(s.nodes) {
		return nil, fmt.Errorf("%w: node %d of %d", ErrOutOfRange, node, len(s.nodes))
	}
	if class >= NumClasses {
		return nil, fmt.Errorf("%w: class %d of %d", ErrOutOfRange, class, NumClasses)
	}
	return &Stream{s: s, node: node, class: class}, nil
}

// Read admits a page read. cb fires when the page has landed in host
// memory — for an Accel stream, in the stream's node's in-store
// processor — or failed. ErrBackpressure means the request was NOT
// admitted and cb will never fire: back off and retry.
func (st *Stream) Read(a core.PageAddr, cb func(data []byte, err error)) error {
	at := st.node
	if st.class == Accel {
		if a.Node < 0 || a.Node >= len(st.s.nodes) {
			return errNoOwner
		}
		at = a.Node
	}
	r := st.s.reqs.Get()
	r.class, r.statClass, r.addr, r.enq, r.rcb = st.class, st.class, a, st.s.eng.Now(), cb
	r.origin = st.node
	if err := st.s.nodes[at].admit(r); err != nil {
		return err
	}
	st.Submitted++
	return nil
}

// Write admits a page write. The payload is snapshotted into a page
// image before Write returns, admitted or not, so the caller may reuse
// its buffer at once; data is copied whatever its shape, never adopted.
//
//simlint:allow unused (the public snapshot write of the ownership rule; the sched, cache and fabric tests write through it)
func (st *Stream) Write(a core.PageAddr, data []byte, cb func(err error)) error {
	return st.WriteImage(a, st.s.geo.PageImage(data), cb)
}

// WriteImage admits the write of a page image
// (nand.Geometry.PageImage), adopting it: the image is the buffer the
// flash ends up storing, and the caller must not touch it again. It
// comes back to the caller in two cases only — WriteImage returns an
// error (ErrBackpressure: not admitted, cb will never fire, submit the
// same image again later), or cb reports one (nothing below kept it).
func (st *Stream) WriteImage(a core.PageAddr, img []byte, cb func(err error)) error {
	if st.class == Accel {
		return ErrAccelReadOnly
	}
	r := st.s.reqs.Get()
	r.class = st.class
	r.statClass = st.class
	r.addr = a
	r.write = true
	r.data = img
	r.size = len(img)
	r.enq = st.s.eng.Now()
	r.wcb = cb
	if err := st.s.nodes[st.node].admit(r); err != nil {
		return err
	}
	st.Submitted++
	return nil
}

// Erase admits a block erase for the block containing a. It is the
// admission path for a page log's victim erases (on the Background
// class, through a Port); like writes it is never coalesced and fences
// nothing — the log guarantees no reads target the block.
func (st *Stream) Erase(a core.PageAddr, cb func(err error)) error {
	if st.class == Accel {
		return ErrAccelReadOnly
	}
	r := st.s.reqs.Get()
	r.class, r.statClass, r.addr, r.erase, r.enq, r.wcb = st.class, st.class, a, true, st.s.eng.Now(), cb
	if err := st.s.nodes[st.node].admit(r); err != nil {
		return err
	}
	st.Submitted++
	return nil
}
