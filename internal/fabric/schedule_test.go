package fabric

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"repro/internal/sim"
)

// unbindingScheduleDigest was recorded by running this same test on
// the commit before non-last segments stopped firing events on their
// final hop (602820d, per-segment arrive + deliver everywhere).
const unbindingScheduleDigest = "2bb6dc9e89dd131889550b1f12b78a13011a3b3697be9562864027f16f2e0aa4"

// TestUnbindingCreditsScheduleUnchanged: with a credit window so deep
// it never binds, the only thing the lazy credit return could change —
// the order of a return and a request inside one nanosecond — cannot
// matter, so every message must be delivered at the virtual time, and
// in the order, it was before the change. Seeded all-pairs page
// traffic keeps every pipe of the ring contended; the digest covers
// each delivery's (time, src, dst, ep, size).
func TestUnbindingCreditsScheduleUnchanged(t *testing.T) {
	cfg := DefaultConfig()
	cfg.LinkTokens = 4096
	eng := sim.NewEngine()
	const nodes, lanes, eps = 16, 4, 4
	net, err := Ring(nodes, lanes).Build(eng, cfg, eps-1)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	deliveries := 0
	bound := make([][]*Endpoint, nodes)
	for v := 0; v < nodes; v++ {
		for e := 0; e < eps; e++ {
			ep, err := net.Node(NodeID(v)).BindEndpoint(e)
			if err != nil {
				t.Fatal(err)
			}
			dst := NodeID(v)
			ep.OnReceive = func(src NodeID, size int, _ any) {
				var rec [5]uint64
				rec[0], rec[1], rec[2] = uint64(eng.Now()), uint64(src), uint64(dst)
				rec[3], rec[4] = uint64(ep.index), uint64(size)
				for _, w := range rec {
					var b [8]byte
					binary.LittleEndian.PutUint64(b[:], w)
					h.Write(b[:])
				}
				deliveries++
			}
			bound[v] = append(bound[v], ep)
		}
	}
	// Four rounds of every ordered pair in a seeded order: a 32-byte
	// request descriptor and an 8 224-byte page response (nine
	// segments), half of them injected in one instant and the rest
	// spread over 40 us, so trains from many flows interleave on every
	// link direction.
	rng := sim.NewRNG(18)
	sent := 0
	for round := 0; round < 4; round++ {
		for _, k := range rng.Perm(nodes * nodes) {
			s, d := k/nodes, k%nodes
			if s == d {
				continue
			}
			ep := bound[s][rng.Intn(eps)]
			size := 8224
			if rng.Intn(4) == 0 {
				size = 32
			}
			send := func() {
				if err := ep.Send(NodeID(d), size, nil, nil); err != nil {
					t.Error(err)
				}
			}
			sent++
			if rng.Intn(2) == 0 {
				send()
			} else {
				eng.After(sim.Time(rng.Intn(40_000)), send)
			}
		}
	}
	eng.Run()
	if deliveries != sent {
		t.Fatalf("delivered %d of %d messages", deliveries, sent)
	}
	checkIdle(t, net)
	if got := hex.EncodeToString(h.Sum(nil)); got != unbindingScheduleDigest {
		t.Fatalf("delivery schedule digest %s, want %s (recorded at the parent commit): something other than the credit tie order moved", got, unbindingScheduleDigest)
	}
}
