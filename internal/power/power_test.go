package power

import (
	"strings"
	"testing"
)

func TestNodeBudgetMatchesTable3(t *testing.T) {
	b := NodeBudget(2)
	// Paper Table 3: VC707 30 W, 2 flash boards 10 W, Xeon 200 W = 240 W.
	if got := b.Total(); got != 240 {
		t.Fatalf("node total %.1f W, paper reports 240", got)
	}
}

func TestAddedFractionUnder20Pct(t *testing.T) {
	// §6.2: "BlueDBM adds less than 20% of power consumption": the
	// storage device is every component of a node but its server.
	b := NodeBudget(2)
	var added float64
	for _, c := range b.Components {
		if c.Name != "Xeon Server" {
			added += float64(c.Count) * c.Watts
		}
	}
	if f := added / b.Total(); f >= 0.20 {
		t.Fatalf("storage adds %.0f%%, paper claims < 20%%", f*100)
	}
}

func TestClusterBudget(t *testing.T) {
	b := ClusterBudget(20, 2)
	if got := b.Total(); got != 20*240 {
		t.Fatalf("20-node cluster %.0f W, want 4800", got)
	}
}

func TestRAMCloudComparison(t *testing.T) {
	// §8: a rack-size BlueDBM is "an order of magnitude ... less power
	// hungry than a cloud based system with enough DRAM for 10-20 TB".
	blue := ClusterBudget(20, 2).Total()
	ram := RAMCloudBudget(20_000, 256).Total()
	if ram/blue < 4 {
		t.Fatalf("ram-cloud (%.0f W) vs BlueDBM (%.0f W): ratio %.1f too small", ram, blue, ram/blue)
	}
}

func TestFormatTable(t *testing.T) {
	s := FormatTable(NodeBudget(2))
	for _, want := range []string{"VC707", "Flash Board", "Xeon Server", "Total"} {
		if !strings.Contains(s, want) {
			t.Fatalf("table missing %q:\n%s", want, s)
		}
	}
}
