package fabric

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/sim"
)

// TestEndpointPastTableRoutesAsZero: an endpoint above the highest one
// Build gave a routing table of its own takes endpoint 0's port at
// every hop, so its message arrives at the instant endpoint 0's does.
// On a network Build never routed there is no table at all, and the
// refusal names the endpoint the caller sent on.
func TestEndpointPastTableRoutesAsZero(t *testing.T) {
	const maxEP, past = 3, 9
	topo := Mesh2D(3, 3)
	_, net := buildNet(t, topo, maxEP)
	const src, dst NodeID = 0, 8
	spread := false
	for ep := 1; ep <= maxEP; ep++ {
		p0, _ := net.Node(src).routePort(0, dst)
		if p, _ := net.Node(src).routePort(ep, dst); p != p0 {
			spread = true
		}
	}
	if !spread {
		t.Fatal("every endpoint leaves node 0 on one port: the test shows nothing")
	}
	for at := src; at != dst; {
		p0, err0 := net.Node(at).routePort(0, dst)
		p, err := net.Node(at).routePort(past, dst)
		if err0 != nil || err != nil || p != p0 {
			t.Fatalf("at node %d: endpoint %d takes port %d (%v), endpoint 0 port %d (%v)", at, past, p, err, p0, err0)
		}
		at = net.Node(at).portPeer[p]
	}

	arrival := func(ep int) sim.Time {
		eng, net := buildNet(t, topo, maxEP)
		s, err := net.Node(src).BindEndpoint(ep)
		if err != nil {
			t.Fatal(err)
		}
		d, err := net.Node(dst).BindEndpoint(ep)
		if err != nil {
			t.Fatal(err)
		}
		var at sim.Time = -1
		d.OnReceive = func(NodeID, int, any) { at = eng.Now() }
		if err := s.Send(dst, 3000, nil, nil); err != nil {
			t.Fatal(err)
		}
		eng.Run()
		return at
	}
	if a0, a := arrival(0), arrival(past); a0 < 0 || a != a0 {
		t.Fatalf("endpoint %d arrives at %v, endpoint 0 at %v", past, a, a0)
	}

	_, err := New(sim.NewEngine(), DefaultConfig(), 2).Node(0).routePort(past, 1)
	if !errors.Is(err, ErrNoRoute) || !strings.Contains(err.Error(), "ep 9 ") {
		t.Fatalf("unrouted network: err = %v, want ErrNoRoute naming ep 9", err)
	}
}

// TestEndToEndStatsSymmetry: under e2e flow control the credit-return
// control traffic must not leak into the user-message stats.
// Regression: ctrl messages incremented Sent (and burned sequence
// numbers) but were excluded from Received, so Sent !=
// Received even when every message arrived.
func TestEndToEndStatsSymmetry(t *testing.T) {
	eng, net := buildNet(t, Line(2, 1), 0)
	a, _ := net.Node(0).BindEndpoint(0)
	b, _ := net.Node(1).BindEndpoint(0)
	a.SetEndToEnd(1)
	b.SetEndToEnd(1)
	gotA, gotB := 0, 0
	a.OnReceive = func(NodeID, int, any) { gotA++ }
	b.OnReceive = func(NodeID, int, any) { gotB++ }
	for i := 0; i < 5; i++ {
		if err := a.Send(1, 256, nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		if err := b.Send(0, 256, nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	eng.Run()
	if gotB != 5 || gotA != 3 {
		t.Fatalf("delivered a->b %d/5, b->a %d/3", gotB, gotA)
	}
	if a.Sent != 5 || b.Received != 5 || b.Sent != 3 || a.Received != 3 {
		t.Fatalf("user stats asymmetric: a.Sent=%d b.Received=%d b.Sent=%d a.Received=%d",
			a.Sent, b.Received, b.Sent, a.Received)
	}
	// Every wantAck delivery produced exactly one credit return, and
	// they are tallied on the ctrl counters only.
	if b.CtrlSent != 5 || a.CtrlReceived != 5 || a.CtrlSent != 3 || b.CtrlReceived != 3 {
		t.Fatalf("ctrl stats: b.CtrlSent=%d a.CtrlReceived=%d a.CtrlSent=%d b.CtrlReceived=%d",
			b.CtrlSent, a.CtrlReceived, a.CtrlSent, b.CtrlReceived)
	}
}

// TestTransitDoesNotStarveInjection: a node forwarding a transit
// stream must still get its own traffic onto the shared outbound
// link whenever the link has ANY slack. Forwarders may overtake a
// waiting injection only at the reserve boundary (free == 1); above
// it grants are FIFO across both classes, so the moment two credits
// are free the oldest waiter — injection included — is served. (At
// full saturation every released credit is claimed instantly and
// free never reaches two, so injections lawfully wait for slack:
// the same property as hardware bubble flow control, where a
// saturated ring admits no new packets.)
func TestTransitDoesNotStarveInjection(t *testing.T) {
	cfg := DefaultConfig()
	cfg.LinkTokens = 2
	eng := sim.NewEngine()
	// Line 0-1-2: node 0 streams to node 2 (transit through node 1)
	// at ~70% link utilization while node 1 sends its own messages to
	// node 2 over the same cable.
	net, err := Line(3, 1).Build(eng, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	transit, _ := net.Node(0).BindEndpoint(0)
	local, _ := net.Node(1).BindEndpoint(0)
	dst, _ := net.Node(2).BindEndpoint(0)
	recv := map[NodeID]int{}
	var localDone sim.Time = -1
	dst.OnReceive = func(src NodeID, _ int, _ any) {
		recv[src]++
		if src == 1 && recv[1] == 50 {
			localDone = eng.Now()
		}
	}
	// Paced transit: one 1 KB message per 1.4 us (a 1 KB segment
	// serializes in ~1 us), injected for the whole run.
	const transitMsgs = 400
	sent := 0
	var pace func()
	pace = func() {
		if sent >= transitMsgs {
			return
		}
		sent++
		if err := transit.Send(2, 1024, nil, nil); err != nil {
			t.Error(err)
		}
		eng.After(1400, pace)
	}
	pace()
	for i := 0; i < 50; i++ {
		if err := local.Send(2, 1024, nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	eng.Run()
	if recv[0] != transitMsgs || recv[1] != 50 {
		t.Fatalf("delivered transit %d/%d, local %d/50", recv[0], transitMsgs, recv[1])
	}
	// The local stream rides the slack: it must finish while the
	// transit stream is still running, not after it drains.
	if localDone < 0 || localDone >= eng.Now()*3/4 {
		t.Fatalf("local injection starved: finished at %v of %v", localDone, eng.Now())
	}
	checkIdle(t, net)
}

// TestRingSaturationNoDeadlock: cyclic-forwarding regression. A ring
// at LinkTokens=1 saturated with all-to-all traffic creates the
// textbook credit cycle: arrive() holds the inbound credit while
// waiting for the outbound one, so without the reserved forwarding
// credit (bubble flow control) every link direction fills and the
// network wedges with undelivered traffic.
func TestRingSaturationNoDeadlock(t *testing.T) {
	cfg := DefaultConfig()
	cfg.LinkTokens = 1
	eng := sim.NewEngine()
	const n = 8
	net, err := Ring(n, 1).Build(eng, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	const perPair = 20
	want := 0
	got := 0
	eps := make([]*Endpoint, n)
	for v := 0; v < n; v++ {
		ep, err := net.Node(NodeID(v)).BindEndpoint(0)
		if err != nil {
			t.Fatal(err)
		}
		ep.OnReceive = func(NodeID, int, any) { got++ }
		eps[v] = ep
	}
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			if s == d {
				continue
			}
			for k := 0; k < perPair; k++ {
				// 1500-byte messages cut into two segments each, all
				// injected at once: maximal pressure on every link.
				if err := eps[s].Send(NodeID(d), 1500, nil, nil); err != nil {
					t.Fatal(err)
				}
				want++
			}
		}
	}
	eng.Run()
	// On deadlock the engine simply runs out of events with traffic
	// still queued, so this fails rather than hangs.
	if got != want {
		t.Fatalf("ring wedged: delivered %d of %d messages at LinkTokens=1", got, want)
	}
	checkIdle(t, net)
}
