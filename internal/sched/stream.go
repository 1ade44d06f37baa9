package sched

import (
	"fmt"

	"repro/internal/core"
)

// Stream is one client's admission handle: a named, QoS-classed
// sequence of requests issued from one node's host. Many streams are
// open concurrently; the scheduler multiplexes them onto the node's
// admission queue and batches them at the device doorbell.
type Stream struct {
	s     *Scheduler
	node  int
	class Class

	// Submitted counts operations this stream admitted successfully.
	Submitted int64
}

// NewStream opens a stream issuing from node's host at the given QoS
// class. The stream may address any page in the cluster; remote pages
// ride the integrated storage network over H-F, the device-side path
// Node.HostRead shares.
func (s *Scheduler) NewStream(name string, node int, class Class) (*Stream, error) {
	if node < 0 || node >= len(s.nodes) {
		return nil, fmt.Errorf("sched: node %d out of range [0,%d)", node, len(s.nodes))
	}
	if class >= NumClasses {
		return nil, fmt.Errorf("sched: class %d out of range", class)
	}
	if class == Accel {
		return nil, fmt.Errorf("sched: %v requests enter through AccelStream, not host streams", class)
	}
	return &Stream{s: s, node: node, class: class}, nil
}

// Read admits a page read. cb fires when the page has landed in host
// memory (or failed). ErrBackpressure means the request was NOT
// admitted and cb will never fire: back off and retry.
func (st *Stream) Read(a core.PageAddr, cb func(data []byte, err error)) error {
	r := st.s.reqs.Get()
	r.class, r.statClass, r.addr, r.enq, r.rcb = st.class, st.class, a, st.s.eng.Now(), cb
	if err := st.s.nodes[st.node].admit(r); err != nil {
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
// admission path for FTL garbage-collection erases (normally on a
// Background-class stream); like writes it is never coalesced and
// fences nothing — the FTL guarantees no reads target the block.
func (st *Stream) Erase(a core.PageAddr, cb func(err error)) error {
	r := st.s.reqs.Get()
	r.class, r.statClass, r.addr, r.erase, r.enq, r.wcb = st.class, st.class, a, true, st.s.eng.Now(), cb
	if err := st.s.nodes[st.node].admit(r); err != nil {
		return err
	}
	st.Submitted++
	return nil
}
