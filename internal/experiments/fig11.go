package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/sim"
)

// fig11 reproduces Figure 11 (§6.3): a single stream of packets pushed
// through 1..5 hops of the integrated network, p.Net's links, at each
// hop count the bandwidth per lane and the end-to-end latency of a
// minimal packet. The paper sustains 8.2 Gbps per lane and 0.48 µs per
// hop.
func fig11(p core.Params) (Rows, error) {
	out := Rows{Title: "Figure 11: integrated network performance", Key: "Hops",
		Cols: cols("%.2f", "Gbps/lane", "Latency(us)")}
	for hops := 1; hops <= 5; hops++ {
		eng := sim.NewEngine()
		net, err := fabric.Line(hops+1, 1).Build(eng, p.Net, 0)
		if err != nil {
			return Rows{}, err
		}
		src, err := net.Node(0).BindEndpoint(0)
		if err != nil {
			return Rows{}, err
		}
		dst, err := net.Node(fabric.NodeID(hops)).BindEndpoint(0)
		if err != nil {
			return Rows{}, err
		}

		// Latency: one minimal (128-bit) packet on the idle network.
		var lat sim.Time
		dst.OnReceive = func(fabric.NodeID, int, any) { lat = eng.Now() }
		if err := src.Send(fabric.NodeID(hops), 16, nil, nil); err != nil {
			return Rows{}, err
		}
		eng.Run()

		// Bandwidth: stream 2 KB messages with a small send window.
		const msgs = 1500
		const size = 2048
		received := 0
		dst.OnReceive = func(fabric.NodeID, int, any) { received++ }
		bwStart := eng.Now()
		sent := 0
		var pump func()
		pump = func() {
			if sent >= msgs {
				return
			}
			sent++
			if err := src.Send(fabric.NodeID(hops), size, nil, pump); err != nil {
				panic(err)
			}
		}
		for i := 0; i < 8 && sent < msgs; i++ {
			pump()
		}
		eng.Run()
		if received != msgs {
			return Rows{}, fmt.Errorf("fig11: delivered %d of %d at %d hops", received, msgs, hops)
		}
		elapsed := (eng.Now() - bwStart).Seconds()
		out.add(fmt.Sprint(hops), float64(msgs*size*8)/elapsed/1e9, lat.Micros())
	}
	return out, nil
}
