package fabric

import (
	"testing"

	"repro/internal/sim"
)

// The fabric's cost per 8 KiB page (eight MTU segments) on the paper's
// ring, 16 nodes with 4 lanes: ns/op is host time, allocs/op the heap
// traffic (none once the segment pool is warm), events/op the engine
// events — one per segment per forwarding hop, plus two for the
// message. Run with -benchmem.

const benchPage = 8192

func benchRing(b *testing.B) (*sim.Engine, []*Endpoint) {
	eng := sim.NewEngine()
	net, err := Ring(16, 4).Build(eng, DefaultConfig(), 0)
	if err != nil {
		b.Fatal(err)
	}
	eps := make([]*Endpoint, net.Nodes())
	for i := range eps {
		if eps[i], err = net.Node(NodeID(i)).BindEndpoint(0); err != nil {
			b.Fatal(err)
		}
		eps[i].OnReceive = func(_ NodeID, size int, _ any) {
			if size != benchPage {
				b.Fatalf("received %d bytes", size)
			}
		}
	}
	return eng, eps
}

func BenchmarkSendPage(b *testing.B) {
	// One page at a time over four hops of an idle ring.
	b.Run("4hop-idle", func(b *testing.B) {
		eng, eps := benchRing(b)
		send := func() {
			if err := eps[0].Send(4, benchPage, nil, nil); err != nil {
				b.Fatal(err)
			}
			eng.Run()
		}
		send() // warm the segment pool
		b.SetBytes(benchPage)
		b.ReportAllocs()
		b.ResetTimer()
		fired := eng.Fired()
		for i := 0; i < b.N; i++ {
			send()
		}
		b.ReportMetric(float64(eng.Fired()-fired)/float64(b.N), "events/op")
	})
	// Every node sends every other node two pages in the same instant,
	// 480 pages a round: trains from many flows share every link
	// direction and the 16-credit windows bind (two acquires in three
	// queue), so blocked link directions pay for their wakes.
	b.Run("all-pairs-contended", func(b *testing.B) {
		eng, eps := benchRing(b)
		round := func(pages int) {
			for k := 0; k < pages; k++ {
				s := k % len(eps)
				d := (s + 1 + k/len(eps)%(len(eps)-1)) % len(eps)
				if err := eps[s].Send(NodeID(d), benchPage, nil, nil); err != nil {
					b.Fatal(err)
				}
			}
			eng.Run()
		}
		perRound := 2 * len(eps) * (len(eps) - 1)
		round(perRound) // warm the segment pool and the waiter rings
		b.SetBytes(benchPage)
		b.ReportAllocs()
		b.ResetTimer()
		fired := eng.Fired()
		for left := b.N; left > 0; left -= perRound {
			round(min(left, perRound))
		}
		b.ReportMetric(float64(eng.Fired()-fired)/float64(b.N), "events/op")
	})
}
