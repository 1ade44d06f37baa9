package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/sim"
)

// fig12 reproduces Figure 12 (§6.4): the latency of reading one remote
// 8 KB page over each access path, decomposed into software, storage,
// data-transfer and network components (Figure 14's taxonomy), in
// microseconds, on a 4-node cluster.
func fig12(p core.Params) (Rows, error) {
	p.Nodes = 4
	c, err := newCluster(p)
	if err != nil {
		return Rows{}, err
	}
	// One page on node 1, read from node 0.
	a := core.LinearPage(c.Params, 1, 0)
	var werr error
	c.Node(1).WriteLocal(a.Card, a.Addr, make([]byte, c.Params.PageSize()), func(err error) { werr = err })
	c.Run()
	if werr != nil {
		return Rows{}, werr
	}

	out := Rows{Title: "Figure 12: remote access latency breakdown", Key: "Path",
		Cols: cols("%.1f", "Software", "Storage", "Transfer", "Network", "Total(us)")}

	// ISP-F: the in-store processor path has no host software at all;
	// decompose analytically from the measured total.
	start := c.Eng.Now()
	var ispTotal sim.Time
	var ispErr error
	c.Node(0).ISPReadDirect(a, func(_ []byte, err error) {
		ispErr = err
		ispTotal = c.Eng.Now() - start
	})
	c.Run()
	if ispErr != nil {
		return Rows{}, ispErr
	}
	hops := c.Hops(0, 1)
	netLat := (sim.Time(2*hops) * c.Params.Net.HopLatency).Micros()
	storage := c.Params.FlashTiming.ReadPage.Micros()
	out.add("ISP-F", 0, storage, ispTotal.Micros()-storage-netLat, netLat, ispTotal.Micros())

	for _, pc := range []struct {
		name string
		path core.AccessPath
	}{
		{"H-F", core.PathHF},
		{"H-RH-F", core.PathHRHF},
		{"H-D", core.PathHD},
	} {
		var tr core.Trace
		var rerr error
		c.Node(0).HostRead(a, pc.path, &tr, func(_ []byte, err error) { rerr = err })
		c.Run()
		if rerr != nil {
			return Rows{}, fmt.Errorf("%s: %w", pc.name, rerr)
		}
		out.add(pc.name, tr.Software.Micros(), tr.Storage.Micros(), tr.Transfer.Micros(), tr.Network.Micros(), tr.Total.Micros())
	}
	return out, nil
}
