package fabric

import (
	"errors"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func buildNet(t *testing.T, topo Topology, maxEP int) (*sim.Engine, *Network) {
	t.Helper()
	eng := sim.NewEngine()
	net, err := topo.Build(eng, DefaultConfig(), maxEP)
	if err != nil {
		t.Fatal(err)
	}
	return eng, net
}

func TestPointToPointDelivery(t *testing.T) {
	eng, net := buildNet(t, Line(2, 1), 0)
	a, err := net.Node(0).BindEndpoint(0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := net.Node(1).BindEndpoint(0)
	if err != nil {
		t.Fatal(err)
	}
	var gotSrc NodeID = -1
	var gotSize int
	var gotPayload any
	b.OnReceive = func(src NodeID, size int, payload any) {
		gotSrc, gotSize, gotPayload = src, size, payload
	}
	if err := a.Send(1, 128, "hello", nil); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if gotSrc != 0 || gotSize != 128 || gotPayload != "hello" {
		t.Fatalf("received src=%d size=%d payload=%v", gotSrc, gotSize, gotPayload)
	}
}

func TestHopLatency(t *testing.T) {
	// A minimal (16-byte) message over k hops costs ~k * 0.48us plus
	// negligible serialization (paper Figure 11: 0.48us per hop).
	for hops := 1; hops <= 5; hops++ {
		eng, net := buildNet(t, Line(hops+1, 1), 0)
		src, _ := net.Node(0).BindEndpoint(0)
		dst, _ := net.Node(NodeID(hops)).BindEndpoint(0)
		var arrival sim.Time = -1
		dst.OnReceive = func(NodeID, int, any) { arrival = eng.Now() }
		if err := src.Send(NodeID(hops), 16, nil, nil); err != nil {
			t.Fatal(err)
		}
		eng.Run()
		perHop := float64(arrival) / float64(hops) / 1000 // us
		if perHop < 0.45 || perHop > 0.65 {
			t.Fatalf("hops=%d: per-hop latency %.3fus, want ~0.5", hops, perHop)
		}
	}
}

func TestStreamBandwidth(t *testing.T) {
	// Streaming 2KB messages over 1 hop approaches the 8.2 Gbps
	// effective link bandwidth (paper Figure 11).
	eng, net := buildNet(t, Line(2, 1), 0)
	src, _ := net.Node(0).BindEndpoint(0)
	dst, _ := net.Node(1).BindEndpoint(0)
	const msgs = 2000
	const size = 2048
	received := 0
	dst.OnReceive = func(NodeID, int, any) { received++ }
	// Windowed sending: keep 8 in flight via onAccepted chaining.
	sent := 0
	var pump func()
	pump = func() {
		if sent >= msgs {
			return
		}
		sent++
		if err := src.Send(1, size, nil, pump); err != nil {
			t.Error(err)
		}
	}
	for i := 0; i < 8 && sent < msgs; i++ {
		pump()
	}
	eng.Run()
	if received != msgs {
		t.Fatalf("received %d of %d", received, msgs)
	}
	gbps := float64(msgs*size*8) / eng.Now().Seconds() / 1e9
	if gbps < 7.5 || gbps > 8.2 {
		t.Fatalf("stream bandwidth %.2f Gbps, want ~8.0-8.2", gbps)
	}
}

func TestFIFOPerEndpointPair(t *testing.T) {
	// Messages from one endpoint to one destination must arrive in
	// order, over any topology.
	eng, net := buildNet(t, Mesh2D(3, 3), 2)
	src, _ := net.Node(0).BindEndpoint(1)
	dst, _ := net.Node(8).BindEndpoint(1)
	var got []int
	dst.OnReceive = func(_ NodeID, _ int, payload any) { got = append(got, payload.(int)) }
	for i := 0; i < 50; i++ {
		// Mixed sizes stress segmentation.
		size := 16 + (i%5)*700
		if err := src.Send(8, size, i, nil); err != nil {
			t.Fatal(err)
		}
	}
	eng.Run()
	if len(got) != 50 {
		t.Fatalf("delivered %d of 50", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("out of order at %d: %v", i, got[:i+1])
		}
	}
}

func TestDifferentEndpointsMayDiverge(t *testing.T) {
	// With parallel lanes, different endpoints should use different
	// cables (deterministic per-endpoint routing distributes load).
	eng, net := buildNet(t, Ring(4, 2), 7)
	var eps []*Endpoint
	for i := 0; i < 8; i++ {
		ep, err := net.Node(0).BindEndpoint(i)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := net.Node(1).BindEndpoint(i); err != nil {
			t.Fatal(err)
		}
		eps = append(eps, ep)
	}
	for _, ep := range eps {
		for k := 0; k < 20; k++ {
			if err := ep.Send(1, 1024, nil, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	eng.Run()
	// Count cables with traffic from node 0 to node 1.
	busy := 0
	for _, u := range net.LinkUtilization() {
		if u > 0 {
			busy++
		}
	}
	if busy < 2 {
		t.Fatalf("only %d link directions carried traffic; endpoints did not spread", busy)
	}
}

func TestRouteDeterminism(t *testing.T) {
	// Two identical builds route identically.
	mk := func() [][]int {
		eng := sim.NewEngine()
		net, err := Mesh2D(4, 4).Build(eng, DefaultConfig(), 3)
		if err != nil {
			t.Fatal(err)
		}
		var out [][]int
		for n := 0; n < net.Nodes(); n++ {
			for ep := 0; ep <= 3; ep++ {
				out = append(out, append([]int(nil), net.Node(NodeID(n)).routes[ep]...))
			}
		}
		return out
	}
	a, b := mk(), mk()
	for i := range a {
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				t.Fatalf("routes differ at %d/%d", i, j)
			}
		}
	}
}

func TestTokenBackpressureBounds(t *testing.T) {
	// A receiver that never drains... is not expressible (delivery is
	// immediate), but a long multi-hop chain with a slow far link still
	// bounds in-flight segments by the token depth per link.
	cfg := DefaultConfig()
	cfg.LinkTokens = 2
	eng := sim.NewEngine()
	net, err := Line(3, 1).Build(eng, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	src, _ := net.Node(0).BindEndpoint(0)
	dst, _ := net.Node(2).BindEndpoint(0)
	got := 0
	dst.OnReceive = func(NodeID, int, any) { got++ }
	for i := 0; i < 100; i++ {
		if err := src.Send(2, 4096, nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	eng.Run()
	if got != 100 {
		t.Fatalf("delivered %d of 100 under tight tokens", got)
	}
	checkIdle(t, net)
}

func TestEndToEndFlowControl(t *testing.T) {
	eng, net := buildNet(t, Line(2, 1), 0)
	src, _ := net.Node(0).BindEndpoint(0)
	dst, _ := net.Node(1).BindEndpoint(0)
	src.SetEndToEnd(2)
	order := []string{}
	dst.OnReceive = func(_ NodeID, _ int, p any) { order = append(order, p.(string)) }
	for _, m := range []string{"a", "b", "c", "d", "e"} {
		if err := src.Send(1, 256, m, nil); err != nil {
			t.Fatal(err)
		}
	}
	eng.Run()
	if len(order) != 5 {
		t.Fatalf("delivered %d of 5 with e2e window", len(order))
	}
	for i, m := range []string{"a", "b", "c", "d", "e"} {
		if order[i] != m {
			t.Fatalf("order %v", order)
		}
	}
}

func TestEndToEndLatencyCost(t *testing.T) {
	// E2E flow control must cost extra latency for a message burst
	// exceeding the window (the paper's stated trade-off).
	run := func(window int) sim.Time {
		eng, net := buildNet(t, Line(2, 1), 0)
		src, _ := net.Node(0).BindEndpoint(0)
		dst, _ := net.Node(1).BindEndpoint(0)
		if window > 0 {
			src.SetEndToEnd(window)
		}
		got := 0
		dst.OnReceive = func(NodeID, int, any) { got++ }
		for i := 0; i < 20; i++ {
			if err := src.Send(1, 512, nil, nil); err != nil {
				t.Fatal(err)
			}
		}
		eng.Run()
		if got != 20 {
			t.Fatalf("delivered %d", got)
		}
		return eng.Now()
	}
	without := run(0)
	with := run(1)
	if with <= without {
		t.Fatalf("e2e window=1 (%v) should be slower than disabled (%v)", with, without)
	}
}

func TestUnroutableDestination(t *testing.T) {
	eng, net := buildNet(t, Line(2, 1), 0)
	src, _ := net.Node(0).BindEndpoint(0)
	if err := src.Send(99, 16, nil, nil); !errors.Is(err, ErrNoRoute) {
		t.Fatalf("err = %v, want ErrNoRoute", err)
	}
	_ = eng
}

func TestNegativeSizeRejected(t *testing.T) {
	_, net := buildNet(t, Line(2, 1), 0)
	src, _ := net.Node(0).BindEndpoint(0)
	if err := src.Send(1, -1, nil, nil); !errors.Is(err, ErrBadSize) {
		t.Fatalf("err = %v, want ErrBadSize", err)
	}
}

func TestDisconnectedTopologyRejected(t *testing.T) {
	eng := sim.NewEngine()
	topo := Topology{Name: "split", Nodes: 4, Edges: [][2]int{{0, 1}, {2, 3}}}
	if _, err := topo.Build(eng, DefaultConfig(), 0); !errors.Is(err, ErrNotConnected) {
		t.Fatalf("err = %v, want ErrNotConnected", err)
	}
}

func TestPortBudgetEnforced(t *testing.T) {
	// A 10-node star hub exceeds 8 ports.
	topo := DistributedStar(11, 1)
	if err := topo.Validate(8); err == nil {
		t.Fatal("over-budget topology validated")
	}
	// Figure 5 claim: these all fit in 8 ports per node.
	for _, topo := range []Topology{
		Ring(20, 4),
		Mesh2D(4, 5),
		DistributedStar(20, 4),
		Line(20, 4),
	} {
		if err := topo.Validate(8); err != nil {
			t.Errorf("topology %s should fit 8 ports: %v", topo.Name, err)
		}
	}
}

func TestTopologyEncodeDecode(t *testing.T) {
	topo := Ring(5, 2)
	b, err := topo.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeTopology(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != topo.Name || got.Nodes != topo.Nodes || len(got.Edges) != len(topo.Edges) {
		t.Fatalf("round trip mismatch: %+v vs %+v", got, topo)
	}
	if _, err := DecodeTopology([]byte("{")); err == nil {
		t.Fatal("bad JSON accepted")
	}
}

func TestDuplicateEndpointRejected(t *testing.T) {
	_, net := buildNet(t, Line(2, 1), 0)
	if _, err := net.Node(0).BindEndpoint(3); err != nil {
		t.Fatal(err)
	}
	if _, err := net.Node(0).BindEndpoint(3); !errors.Is(err, ErrBadEndpoint) {
		t.Fatalf("err = %v, want ErrBadEndpoint", err)
	}
}

// TestHopsMatchBFS holds Network.Hops, the distances route
// computation keeps, to a breadth-first search over the topology's
// edge list on every shape the package generates and on one node.
func TestHopsMatchBFS(t *testing.T) {
	for _, topo := range []Topology{
		Ring(16, 4), Line(7, 2), Mesh2D(4, 4), DistributedStar(16, 4), FullMesh(6),
		{Name: "single", Nodes: 1},
	} {
		_, net := buildNet(t, topo, 3)
		adj := make([][]int, topo.Nodes)
		for _, e := range topo.Edges {
			adj[e[0]] = append(adj[e[0]], e[1])
			adj[e[1]] = append(adj[e[1]], e[0])
		}
		for a := 0; a < topo.Nodes; a++ {
			dist := make([]int, topo.Nodes)
			for i := range dist {
				dist[i] = -1
			}
			dist[a] = 0
			for queue := []int{a}; len(queue) > 0; queue = queue[1:] {
				for _, w := range adj[queue[0]] {
					if dist[w] < 0 {
						dist[w] = dist[queue[0]] + 1
						queue = append(queue, w)
					}
				}
			}
			for b, want := range dist {
				if got := net.Hops(NodeID(a), NodeID(b)); got != want {
					t.Errorf("%s: Hops(%d, %d) = %d, BFS says %d", topo.Name, a, b, got, want)
				}
			}
		}
	}
}

func TestLocalDelivery(t *testing.T) {
	eng, net := buildNet(t, Line(2, 1), 0)
	ep, _ := net.Node(0).BindEndpoint(0)
	var got any
	ep.OnReceive = func(_ NodeID, _ int, p any) { got = p }
	if err := ep.Send(0, 64, "self", nil); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if got != "self" {
		t.Fatal("local (internal switch) delivery failed")
	}
	if net.SegsMoved.Value() != 0 {
		t.Fatal("local delivery used the external network")
	}
}

// Property: on random connected ring-with-chords topologies, messages
// between random endpoint pairs always arrive, in FIFO order per pair.
func TestFIFODeliveryProperty(t *testing.T) {
	prop := func(seed uint64) bool {
		rng := sim.NewRNG(seed)
		n := 3 + rng.Intn(6)
		topo := Ring(n, 1)
		// Add up to 3 random chords within port budget.
		for i := 0; i < 3; i++ {
			a, b := rng.Intn(n), rng.Intn(n)
			if a != b {
				topo.Edges = append(topo.Edges, [2]int{a, b})
			}
		}
		if topo.Validate(8) != nil {
			return true // skip over-budget layouts
		}
		eng := sim.NewEngine()
		net, err := topo.Build(eng, DefaultConfig(), 3)
		if err != nil {
			return false
		}
		type pair struct{ src, dst NodeID }
		wantOrder := map[pair][]int{}
		gotOrder := map[pair][]int{}
		eps := make([][]*Endpoint, n)
		for v := 0; v < n; v++ {
			for e := 0; e <= 3; e++ {
				ep, err := net.Node(NodeID(v)).BindEndpoint(e)
				if err != nil {
					return false
				}
				v := NodeID(v)
				ep.OnReceive = func(src NodeID, _ int, payload any) {
					k := pair{src, v}
					gotOrder[k] = append(gotOrder[k], payload.(int))
				}
				eps[v] = append(eps[v], ep)
			}
		}
		for i := 0; i < 60; i++ {
			s := NodeID(rng.Intn(n))
			d := NodeID(rng.Intn(n))
			e := rng.Intn(4)
			if s == d {
				continue
			}
			wantOrder[pair{s, d}] = append(wantOrder[pair{s, d}], i)
			if err := eps[s][e].Send(d, 16+rng.Intn(3000), i, nil); err != nil {
				return false
			}
		}
		eng.Run()
		// Every message delivered; per-pair arrivals are a merge of the
		// per-endpoint FIFO streams, so each pair's multiset matches and
		// per-endpoint order is preserved. We verify the multiset here
		// (per-endpoint order is covered by TestFIFOPerEndpointPair).
		for k, want := range wantOrder {
			got := gotOrder[k]
			if len(got) != len(want) {
				return false
			}
			seen := map[int]bool{}
			for _, v := range got {
				seen[v] = true
			}
			for _, v := range want {
				if !seen[v] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
