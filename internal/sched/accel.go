package sched

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/sim"
)

// AccelStream is an in-store processor's admission handle: the fix
// for ISP traffic bypassing the QoS scheduler. Engine flash reads are
// admitted at the node that OWNS the page (that is where the flash
// contention lives), wait their turn in the Accel class under its
// token budget, and — once granted a device-window slot — issue on
// the device-side ISP path (core.Node.ISPReadDirect): local pages hit
// the card's ISP interface, remote pages ride the integrated storage
// network, and no host software, doorbell or DMA is charged anywhere.
//
// The scheduler therefore sees and window-accounts every flash
// operation the appliance performs — host, GC and ISP alike — while
// the ISP data path keeps the paper's zero-host-involvement property.
type AccelStream struct {
	s      *Scheduler
	origin int
	closed bool

	// Submitted counts reads this stream admitted successfully.
	Submitted int64
}

// NewAccelStream opens a device-side ISP read stream issuing from
// node origin's in-store processors.
func (s *Scheduler) NewAccelStream(origin int) (*AccelStream, error) {
	if origin < 0 || origin >= len(s.nodes) {
		return nil, fmt.Errorf("sched: node %d out of range [0,%d)", origin, len(s.nodes))
	}
	return &AccelStream{s: s, origin: origin}, nil
}

// errNoOwner fails a read whose page names a node outside the cluster.
// It is a fixed value because Read sits under the Retrier's hot path.
var errNoOwner = errors.New("sched: page owner is not a node of the cluster")

// Read admits a physical page read anywhere in the cluster. cb fires
// when the page data reaches the origin node's in-store processor (or
// failed). ErrBackpressure means the owning node's admission queue is
// full and cb will never fire: back off and retry.
func (st *AccelStream) Read(a core.PageAddr, cb func(data []byte, err error)) error {
	if st.closed {
		return ErrClosed
	}
	if a.Node < 0 || a.Node >= len(st.s.nodes) {
		return errNoOwner
	}
	r := st.s.reqs.Get()
	r.class, r.statClass, r.addr, r.accel = Accel, Accel, a, true
	r.origin, r.enq, r.rcb = st.origin, st.s.eng.Now(), cb
	if err := st.s.nodes[a.Node].admit(r); err != nil {
		return err
	}
	st.Submitted++
	return nil
}

// Close marks the stream closed; further submissions fail with
// ErrClosed. In-flight requests still complete.
func (st *AccelStream) Close() { st.closed = true }

// AttachAccelRouter installs this scheduler as the cluster's accel
// router: subsequent core.Node.ISPRead calls — the path the
// single-node accelerator runners use — are admitted through the Accel
// class exactly like AccelStream reads, because they are AccelStream
// reads: the router keeps one stream per origin node and one Retrier,
// so no accelerator can bypass QoS arbitration just by holding a
// *core.Node. Admission backpressure is absorbed by the Retrier, which
// admits again after retryDelay (default 5 µs when zero): an ISPRead
// caller has no error return to refuse through. DetachAccelRouter
// removes the hook.
func (s *Scheduler) AttachAccelRouter(retryDelay sim.Time) {
	rt := s.NewRetrier(retryDelay)
	streams := make([]*AccelStream, len(s.nodes))
	for i := range streams {
		streams[i] = &AccelStream{s: s, origin: i}
	}
	s.cluster.SetAccelRouter(func(origin int, a core.PageAddr, cb func(data []byte, err error)) {
		rt.AccelRead(streams[origin], a, cb)
	})
}

// DetachAccelRouter removes the cluster accel-router hook.
func (s *Scheduler) DetachAccelRouter() {
	s.cluster.SetAccelRouter(nil)
}
