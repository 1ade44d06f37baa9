package fabric_test

import (
	"testing"

	"repro/internal/alloctest"
	"repro/internal/fabric"
	"repro/internal/sim"
)

// These pins count every allocation of their window exactly
// (alloctest.Mallocs).

// buildRing wires a 4-node ring with endpoint 0 bound everywhere.
func buildRing(t *testing.T) (*sim.Engine, []*fabric.Endpoint) {
	t.Helper()
	eng := sim.NewEngine()
	net, err := fabric.Ring(4, 1).Build(eng, fabric.DefaultConfig(), 2)
	if err != nil {
		t.Fatal(err)
	}
	eps := make([]*fabric.Endpoint, net.Nodes())
	for i := range eps {
		ep, err := net.Node(fabric.NodeID(i)).BindEndpoint(0)
		if err != nil {
			t.Fatal(err)
		}
		eps[i] = ep
	}
	return eng, eps
}

// The fabric send path — segmentation, injection, credit waits,
// per-hop forwarding, delivery — must not allocate in steady state.
// This is the path the cache tier's invalidation broadcasts ride, so
// an allocation here is a GC-pressure regression for every
// cross-node write.
func TestSendPathAllocFree(t *testing.T) {
	eng, eps := buildRing(t)
	var delivered int
	for _, ep := range eps {
		ep.OnReceive = func(src fabric.NodeID, size int, payload any) { delivered++ }
	}
	// Warm: segments pooled, credit rings and pipe pools grown, every
	// (endpoint, dst) route exercised — including multi-segment (MTU
	// crossing) and two-hop sends.
	for rep := 0; rep < 4; rep++ {
		for i, ep := range eps {
			for d := 0; d < len(eps); d++ {
				if err := ep.Send(fabric.NodeID(d), 4096, nil, nil); err != nil {
					t.Fatalf("send %d->%d: %v", i, d, err)
				}
			}
		}
		eng.Run()
	}

	if n := alloctest.Mallocs(500, func() {
		for _, ep := range eps {
			for d := 0; d < len(eps); d++ {
				_ = ep.Send(fabric.NodeID(d), 4096, nil, nil)
			}
		}
		eng.Run()
	}); n != 0 {
		t.Fatalf("500 fabric send cycles allocate %d objects, want 0", n)
	}
	if delivered == 0 {
		t.Fatal("no messages delivered")
	}
}

// Invalidation-shaped traffic: small single-segment control messages
// with a pooled payload pointer, broadcast from one node to every
// other. Zero allocations once warm.
func TestBroadcastSmallMessageAllocFree(t *testing.T) {
	eng, eps := buildRing(t)
	type inv struct{ lpn int }
	msg := &inv{}
	got := 0
	for _, ep := range eps {
		ep.OnReceive = func(src fabric.NodeID, size int, payload any) {
			if payload.(*inv) != msg {
				t.Error("payload pointer mangled")
			}
			got++
		}
	}
	for d := 1; d < len(eps); d++ {
		_ = eps[0].Send(fabric.NodeID(d), 16, msg, nil)
	}
	eng.Run()

	if n := alloctest.Mallocs(500, func() {
		for d := 1; d < len(eps); d++ {
			_ = eps[0].Send(fabric.NodeID(d), 16, msg, nil)
		}
		eng.Run()
	}); n != 0 {
		t.Fatalf("500 invalidation broadcasts allocate %d objects, want 0", n)
	}
	if got == 0 {
		t.Fatal("no invalidations delivered")
	}
}

// Saturating a link past its credit depth queues credit waiters: once
// the waiter ring has reached its high-water mark, a burst that fills
// and drains it again allocates nothing.
func TestCreditWaiterRingAllocFree(t *testing.T) {
	eng, eps := buildRing(t)
	for _, ep := range eps {
		ep.OnReceive = func(fabric.NodeID, int, any) {}
	}
	burst := func() {
		// 64 MTU-sized segments into a 16-credit link direction.
		for i := 0; i < 16; i++ {
			_ = eps[0].Send(1, 4*1024, nil, nil)
		}
		eng.Run()
	}
	for i := 0; i < 4; i++ {
		burst()
	}
	if n := alloctest.Mallocs(200, burst); n != 0 {
		t.Fatalf("200 credit-saturated bursts allocate %d objects, want 0", n)
	}
}
