package fabric

import (
	"fmt"

	"repro/internal/sim"
)

// Endpoint is a logical endpoint (paper §3.2.1): a virtual channel over
// the shared physical network with FIFO send/receive semantics. Each
// endpoint has a cluster-unique index (indexes need not be contiguous)
// and exists on every node that binds it.
type Endpoint struct {
	node  *Node
	index int

	// OnReceive is invoked for every delivered message with the source
	// node, the payload size in bytes, and the payload itself.
	OnReceive func(src NodeID, size int, payload any)

	// e2eWindow > 0 enables end-to-end flow control: at most window
	// unacknowledged messages per destination. Zero disables it for the
	// low-latency configuration the paper describes (§3.2.3).
	// Per-destination state is dense (indexed by NodeID — the node
	// population is fixed at Network construction) so the send hot path
	// never hashes or allocates map cells.
	e2eWindow int
	credits   []int                   // remaining e2e credits toward each dst
	blocked   []sim.Queue[blockedMsg] // sends waiting on a credit, per dst

	// stats. Sent and Received count user messages only, so a fully
	// delivered workload always satisfies Sent == peer.Received even
	// under end-to-end flow control; the credit-return control
	// messages that e2e mode generates are tallied separately.
	Sent     int64
	Received int64
	// CtrlSent / CtrlReceived count end-to-end credit-return control
	// messages (sent by the receiver of a wantAck message, consumed by
	// its sender). They never appear in Sent/Received/Delivered.
	CtrlSent     int64
	CtrlReceived int64
}

// blockedMsg is a send parked behind exhausted e2e credits, stored by
// value so queuing does not allocate a closure per blocked message.
type blockedMsg struct {
	size       int
	payload    any
	onAccepted func()
}

// BindEndpoint creates (or returns an error for a duplicate) logical
// endpoint idx on this node.
func (nd *Node) BindEndpoint(idx int) (*Endpoint, error) {
	if idx < 0 {
		return nil, fmt.Errorf("fabric: negative endpoint index %d on node %d", idx, nd.id)
	}
	if nd.Endpoint(idx) != nil {
		return nil, fmt.Errorf("%w: %d on node %d", ErrBadEndpoint, idx, nd.id)
	}
	n := len(nd.net.nodes)
	ep := &Endpoint{
		node:    nd,
		index:   idx,
		credits: make([]int, n),
		blocked: make([]sim.Queue[blockedMsg], n),
	}
	for len(nd.endpoints) <= idx {
		nd.endpoints = append(nd.endpoints, nil)
	}
	nd.endpoints[idx] = ep
	return ep, nil
}

// Endpoint returns the bound endpoint idx, or nil.
//
//simlint:hotpath
func (nd *Node) Endpoint(idx int) *Endpoint {
	if idx < 0 || idx >= len(nd.endpoints) {
		return nil
	}
	return nd.endpoints[idx]
}

// SetEndToEnd enables end-to-end flow control with the given window
// (messages in flight per destination), or disables it with 0.
//
//simlint:allow unused (the end-to-end flow control of the paper's §3.2, which the fabric tests and ablation_test.go run)
func (ep *Endpoint) SetEndToEnd(window int) {
	ep.e2eWindow = window
	for i := range ep.credits {
		ep.credits[i] = window
	}
}

// Send transmits a message of size payload bytes to the endpoint with
// the same index on node dst. onAccepted (optional) fires when the
// local send buffer is free — the sender-side backpressure signal.
// Messages to the same destination arrive in send order.
//
//simlint:hotpath
func (ep *Endpoint) Send(dst NodeID, size int, payload any, onAccepted func()) error {
	if int(dst) < 0 || int(dst) >= len(ep.node.net.nodes) {
		//simlint:allow hotpath (caller-bug error path, not steady state)
		return fmt.Errorf("%w: destination %d", ErrNoRoute, dst)
	}
	if size < 0 {
		//simlint:allow hotpath (caller-bug error path, not steady state)
		return fmt.Errorf("%w: %d", ErrBadSize, size)
	}
	if ep.e2eWindow > 0 {
		if ep.credits[dst] == 0 {
			ep.blocked[dst].Push(blockedMsg{size: size, payload: payload, onAccepted: onAccepted})
			return nil
		}
		ep.credits[dst]--
		ep.transmitMsg(dst, size, payload, onAccepted, false, true)
		return nil
	}
	ep.transmitMsg(dst, size, payload, onAccepted, false, false)
	return nil
}

// transmitMsg segments and injects one message. Control messages
// (e2e credit returns) are invisible to the user-message stats: they
// are link plumbing, not payload traffic, and counting them in Sent
// made Sent != Received even when every user message arrived.
// Segments come from the network's recycle pool, so the steady-state
// send path allocates nothing.
//
//simlint:hotpath
func (ep *Endpoint) transmitMsg(dst NodeID, size int, payload any, onAccepted func(), ctrl, wantAck bool) {
	mtu := ep.node.net.cfg.MTU
	if ctrl {
		ep.CtrlSent++
	} else {
		ep.Sent++
	}

	remaining := size
	for {
		segBytes := remaining
		if segBytes > mtu {
			segBytes = mtu
		}
		last := remaining-segBytes == 0
		seg := ep.node.net.segs.Get()
		seg.src, seg.dst, seg.ep = ep.node.id, dst, ep.index
		seg.last, seg.payload, seg.msgBytes = last, segBytes, size
		seg.ctrl, seg.wantAck = ctrl, wantAck
		if last {
			seg.body = payload
			seg.onAcc = onAccepted
		}
		if err := ep.node.inject(seg); err != nil {
			panic(fmt.Sprintf("fabric: inject failed after route check: %v", err))
		}
		remaining -= segBytes
		if last {
			break
		}
	}
}

// receive takes the last segment of an inbound message, which stands
// for the whole of it: the segments of one message arrive contiguously
// and in order (routing is deterministic and links are FIFO), so when
// the last one is in, all are, and the earlier ones are never seen here
// (Node.transmit).
//
//simlint:hotpath
func (ep *Endpoint) receive(seg *segment) {
	if seg.ctrl {
		// Credit return: unblock one queued send toward seg.src.
		ep.CtrlReceived++
		ep.credits[seg.src]++
		if q := &ep.blocked[seg.src]; q.Len() > 0 {
			b := q.Pop()
			ep.credits[seg.src]--
			ep.transmitMsg(seg.src, b.size, b.payload, b.onAccepted, false, true)
		}
		return
	}
	ep.Received++
	if seg.wantAck {
		// Return a credit to the sender as a small control message.
		ep.transmitMsg(seg.src, ep.node.net.cfg.HeaderBytes, nil, nil, true, false)
	}
	if ep.OnReceive != nil {
		ep.OnReceive(seg.src, seg.msgBytes, seg.body)
	}
}
