package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/sim"
)

// Fig12Row is one access path's latency breakdown (microseconds).
type Fig12Row struct {
	Path       string
	SoftwareUs float64
	StorageUs  float64
	TransferUs float64
	NetworkUs  float64
	TotalUs    float64
}

// Fig12 reproduces Figure 12 (§6.4): the latency of reading one remote
// 8 KB page over each access path, decomposed into software, storage,
// data-transfer and network components (Figure 14's taxonomy).
func Fig12() ([]Fig12Row, error) {
	c, err := core.NewCluster(scaledParams(4))
	if err != nil {
		return nil, err
	}
	// One page on node 1, read from node 0.
	a := core.LinearPage(c.Params, 1, 0)
	var werr error
	c.Node(1).WriteLocal(a.Card, a.Addr, make([]byte, c.Params.PageSize()), func(err error) { werr = err })
	c.Run()
	if werr != nil {
		return nil, werr
	}

	var out []Fig12Row

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
		return nil, ispErr
	}
	hops := c.Hops(0, 1)
	netLat := (sim.Time(2*hops) * c.Params.Net.HopLatency).Micros()
	storage := c.Params.FlashTiming.ReadPage.Micros()
	out = append(out, Fig12Row{
		Path:       "ISP-F",
		SoftwareUs: 0,
		StorageUs:  storage,
		TransferUs: ispTotal.Micros() - storage - netLat,
		NetworkUs:  netLat,
		TotalUs:    ispTotal.Micros(),
	})

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
			return nil, fmt.Errorf("fig12 %s: %w", pc.name, rerr)
		}
		out = append(out, Fig12Row{
			Path:       pc.name,
			SoftwareUs: tr.Software.Micros(),
			StorageUs:  tr.Storage.Micros(),
			TransferUs: tr.Transfer.Micros(),
			NetworkUs:  tr.Network.Micros(),
			TotalUs:    tr.Total.Micros(),
		})
	}
	return out, nil
}

// FormatFig12 renders the stacked-bar data.
func FormatFig12(rows []Fig12Row) string {
	var t table
	t.row("Path", "Software", "Storage", "Transfer", "Network", "Total(us)")
	for _, r := range rows {
		t.row(r.Path, f1(r.SoftwareUs), f1(r.StorageUs), f1(r.TransferUs), f1(r.NetworkUs), f1(r.TotalUs))
	}
	return "Figure 12: remote access latency breakdown\n" + t.String()
}
