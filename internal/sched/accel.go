package sched

import (
	"errors"
	"fmt"

	"repro/internal/core"
)

// AccelStream is an in-store processor's admission handle: the
// admitted device read, where core.Node.ISPReadDirect is the unadmitted
// one. Engine flash reads are admitted at the node that OWNS the page
// (that is where the flash contention lives), wait their turn in the
// Accel class under its token budget, and — once granted a
// device-window slot — issue through ISPReadDirect from the origin
// node: local pages hit the card's ISP interface, remote pages ride the
// integrated storage network, and no host software, doorbell or DMA is
// charged anywhere. Retrier.AccelRead absorbs its backpressure for a
// caller that has no error return to refuse through.
//
// The scheduler therefore sees and window-accounts every flash
// operation the appliance performs through it — host, GC and ISP alike
// — while the ISP data path keeps the paper's zero-host-involvement
// property.
type AccelStream struct {
	s      *Scheduler
	origin int

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
