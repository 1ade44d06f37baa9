// Package power models BlueDBM's power budget (paper §6.2, Table 3)
// and the cost-power comparison against a DRAM-based cluster that
// motivates the whole design. Like the paper's own table, the numbers
// are datasheet estimates, not measurements.
package power

import (
	"fmt"
	"strings"
)

// Component is one power consumer.
type Component struct {
	Name  string
	Count int
	Watts float64 // per instance
}

// Budget is a node- or cluster-level power inventory.
type Budget struct {
	Title      string
	Components []Component
}

// Total returns the budget's total watts.
func (b Budget) Total() float64 {
	var w float64
	for _, c := range b.Components {
		w += float64(float64(c.Count) * c.Watts) // converted: no fused multiply-add on arm64
	}
	return w
}

// NodeBudget reproduces Table 3 for one BlueDBM node, parameterized by
// flash card count.
func NodeBudget(flashCards int) Budget {
	return Budget{
		Title: "BlueDBM node power (Table 3)",
		Components: []Component{
			{Name: "VC707", Count: 1, Watts: 30},
			{Name: "Flash Board", Count: flashCards, Watts: 5},
			{Name: "Xeon Server", Count: 1, Watts: 200},
		},
	}
}

// ClusterBudget scales a node budget to n nodes.
func ClusterBudget(n, flashCards int) Budget {
	nb := NodeBudget(flashCards)
	out := Budget{Title: fmt.Sprintf("BlueDBM %d-node cluster power", n)}
	for _, c := range nb.Components {
		c.Count *= n
		out.Components = append(out.Components, c)
	}
	return out
}

// RAMCloudBudget estimates a DRAM cluster holding the same dataset:
// servers of serverDRAMGB gigabytes each, at a typical 250 W per
// loaded server plus 0.4 W per GB of DRAM (§1: ~100 servers with
// 128-256 GB each for a 20 TB dataset).
func RAMCloudBudget(datasetGB, serverDRAMGB int) Budget {
	if serverDRAMGB <= 0 {
		serverDRAMGB = 256
	}
	servers := (datasetGB + serverDRAMGB - 1) / serverDRAMGB
	return Budget{
		Title: fmt.Sprintf("ram-cloud for %d GB (%d servers x %d GB)", datasetGB, servers, serverDRAMGB),
		Components: []Component{
			{Name: "Server (base)", Count: servers, Watts: 250},
			{Name: "DRAM", Count: servers * serverDRAMGB, Watts: 0.4},
		},
	}
}

// AddedFraction returns the share of a node's total power that the
// storage device (FPGA board + flash cards) contributes — the paper
// claims it "adds less than 20% of power consumption to the system".
//
//simlint:allow unused (checker: the paper's claim that the device adds under 20% of a node's power, which power_test checks)
func AddedFraction(flashCards int) float64 {
	b := NodeBudget(flashCards)
	var added float64
	for _, c := range b.Components {
		if c.Name != "Xeon Server" {
			added += float64(float64(c.Count) * c.Watts)
		}
	}
	total := b.Total()
	if total == 0 {
		return 0
	}
	return added / total
}

// FormatTable renders a budget like the paper's Table 3.
func FormatTable(b Budget) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s\n", b.Title)
	fmt.Fprintf(&sb, "%-20s %8s %12s\n", "Component", "Count", "Power (W)")
	for _, c := range b.Components {
		fmt.Fprintf(&sb, "%-20s %8d %12.1f\n", c.Name, c.Count, float64(c.Count)*c.Watts)
	}
	fmt.Fprintf(&sb, "%-20s %8s %12.1f\n", "Total", "", b.Total())
	return sb.String()
}
