package fabric

import (
	"testing"

	"repro/internal/sim"
)

// segTime is the wire occupancy of one full segment under cfg.
func segTime(cfg Config) sim.Time {
	return sim.Time(int64(cfg.MTU+cfg.HeaderBytes) * int64(sim.Second) / cfg.LinkBytesPerSec)
}

// checkIdle fails the test unless the drained fabric is back in its
// initial state.
func checkIdle(t *testing.T, net *Network) {
	t.Helper()
	if err := net.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestNonLastSegmentsFireNoEvents: a message costs one event per
// segment per forwarding hop, plus arrive and deliver for its last
// segment only — and lands when it always did.
func TestNonLastSegmentsFireNoEvents(t *testing.T) {
	eng, net := buildNet(t, Ring(16, 4), 0)
	cfg := net.Config()
	src, _ := net.Node(0).BindEndpoint(0)
	dst, _ := net.Node(4).BindEndpoint(0)
	var landed sim.Time = -1
	dst.OnReceive = func(_ NodeID, size int, _ any) {
		if size != 8192 {
			t.Errorf("received %d bytes, want 8192", size)
		}
		landed = eng.Now()
	}
	const hops, segs = 4, 8
	if err := src.Send(4, segs*cfg.MTU, nil, nil); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if got, want := eng.Fired(), uint64(segs*(hops-1)+2); got != want {
		t.Fatalf("8-segment message over 4 hops fired %d events, want %d", got, want)
	}
	// The train pipelines: the last segment leaves the source after the
	// seven ahead of it and then pays every hop in full.
	ser := segTime(cfg)
	if want := hops*(ser+cfg.HopLatency) + (segs-1)*ser + cfg.InternalLatency; landed != want {
		t.Fatalf("delivered at %v, want %v", landed, want)
	}
	if net.SegsMoved.Value() != segs*hops || net.BytesMoved.Value() != segs*hops*int64(cfg.MTU) {
		t.Fatalf("moved %d segments, %d bytes", net.SegsMoved.Value(), net.BytesMoved.Value())
	}
	checkIdle(t, net)

	// Same node: the internal switch, once.
	var self sim.Time = -1
	src.OnReceive = func(NodeID, int, any) { self = eng.Now() }
	before, start := eng.Fired(), eng.Now()
	if err := src.Send(0, segs*cfg.MTU, nil, nil); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if got := eng.Fired() - before; got != 1 {
		t.Fatalf("same-node 8-segment message fired %d events, want 1", got)
	}
	if self != start+cfg.InternalLatency {
		t.Fatalf("same-node message delivered after %v, want %v", self-start, cfg.InternalLatency)
	}
	checkIdle(t, net)
}

// TestLazyReturnWakesWaiter: an injection blocked on the credit window
// is granted at the instant the credit it waits for falls due — the
// segment's arrival plus InternalLatency — by the link direction's one
// wake event, and a link that never blocks fires none.
func TestLazyReturnWakesWaiter(t *testing.T) {
	for _, tc := range []struct {
		tokens, segs int
		wakes        uint64
		grantedAfter int // full credit round trips the last segment waits
	}{
		// One slot: every segment after the first waits for the one
		// before it to land and free the buffer.
		{tokens: 1, segs: 4, wakes: 3, grantedAfter: 3},
		// Two slots, three segments: only the last waits, for the first.
		{tokens: 2, segs: 3, wakes: 1, grantedAfter: 1},
	} {
		cfg := DefaultConfig()
		cfg.LinkTokens = tc.tokens
		eng := sim.NewEngine()
		net, err := Line(2, 1).Build(eng, cfg, 0)
		if err != nil {
			t.Fatal(err)
		}
		src, _ := net.Node(0).BindEndpoint(0)
		dst, _ := net.Node(1).BindEndpoint(0)
		got := 0
		dst.OnReceive = func(NodeID, int, any) { got++ }
		// onAccepted fires when the message's last segment is granted
		// its injection credit.
		var granted sim.Time = -1
		if err := src.Send(1, tc.segs*cfg.MTU, nil, func() { granted = eng.Now() }); err != nil {
			t.Fatal(err)
		}
		if granted >= 0 {
			t.Fatalf("tokens=%d: %d segments went out past the credit window", tc.tokens, tc.segs)
		}
		eng.Run()
		roundTrip := segTime(cfg) + cfg.HopLatency + cfg.InternalLatency
		if want := sim.Time(tc.grantedAfter) * roundTrip; granted != want {
			t.Fatalf("tokens=%d: blocked injection granted at %v, want %v", tc.tokens, granted, want)
		}
		// The wakes, then arrive + deliver of the last segment.
		if want := tc.wakes + 2; eng.Fired() != want {
			t.Fatalf("tokens=%d: %d events, want %d (%d wakes)", tc.tokens, eng.Fired(), want, tc.wakes)
		}
		checkIdle(t, net)

		// Inside the window nothing blocks, so nothing wakes.
		before := eng.Fired()
		if err := src.Send(1, tc.tokens*cfg.MTU, nil, nil); err != nil {
			t.Fatal(err)
		}
		eng.Run()
		if fired := eng.Fired() - before; fired != 2 || got != 2 {
			t.Fatalf("tokens=%d: unblocked message fired %d events, want 2 (delivered %d of 2)", tc.tokens, fired, got)
		}
		checkIdle(t, net)
	}
}

// TestReturnDueNowIsUsable is the tie rule as a test — returns first: a
// credit due at t serves a request processed at t whatever the event
// order inside that nanosecond, and not one processed a nanosecond
// earlier.
func TestReturnDueNowIsUsable(t *testing.T) {
	for _, early := range []sim.Time{0, 1} {
		cfg := DefaultConfig()
		cfg.LinkTokens = 2
		eng := sim.NewEngine()
		net, err := Line(2, 1).Build(eng, cfg, 0)
		if err != nil {
			t.Fatal(err)
		}
		src, _ := net.Node(0).BindEndpoint(0)
		dst, _ := net.Node(1).BindEndpoint(0)
		dst.OnReceive = func(NodeID, int, any) {}
		// Two segments take two of the three credits; the window is shut
		// to injections until the first segment's credit comes back.
		if err := src.Send(1, 2*cfg.MTU, nil, nil); err != nil {
			t.Fatal(err)
		}
		due := segTime(cfg) + cfg.HopLatency + cfg.InternalLatency
		var granted sim.Time = -1
		queued := false
		eng.At(due-early, func() {
			if err := src.Send(1, 16, nil, func() { granted = eng.Now() }); err != nil {
				t.Error(err)
			}
			queued = granted < 0
		})
		eng.Run()
		if granted != due {
			t.Fatalf("request at due-%d granted at %v, want %v", early, granted, due)
		}
		if queued != (early > 0) {
			t.Fatalf("request at due-%d: queued = %v", early, queued)
		}
		// The test's own event, arrive + deliver of both last segments,
		// and a wake only for the request that came early.
		if want := uint64(5 + early); eng.Fired() != want {
			t.Fatalf("request at due-%d: %d events, want %d", early, eng.Fired(), want)
		}
		checkIdle(t, net)
	}
}
