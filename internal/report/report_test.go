package report

import (
	"strings"
	"testing"

	"repro/internal/core"
)

func TestSnapshotCountsActivity(t *testing.T) {
	p := core.DefaultParams(2)
	p.Geometry.BlocksPerChip = 8
	p.Geometry.PagesPerBlock = 16
	p.Reliability.BitErrorRate = 1e-5
	c, err := core.NewCluster(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.SeedLinear(1, 16, nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		a := core.LinearPage(p, 1, i)
		c.Node(0).ISPReadDirect(a, func(_ []byte, err error) {
			if err != nil {
				t.Errorf("read %d: %v", i, err)
			}
		})
	}
	c.Run()

	s := Snapshot(c)
	if len(s.Nodes) != 2 {
		t.Fatalf("nodes = %d", len(s.Nodes))
	}
	tot := s.Totals()
	if tot.FlashPrograms != 16 {
		t.Fatalf("programs = %d, want 16", tot.FlashPrograms)
	}
	if tot.FlashReads != 16 {
		t.Fatalf("reads = %d, want 16", tot.FlashReads)
	}
	// Remote reads moved messages over the network.
	if s.NetDelivered == 0 || s.NetBytes == 0 {
		t.Fatalf("network counters empty: %d msgs %d bytes", s.NetDelivered, s.NetBytes)
	}
	// Error injection at 1e-5 over 32 page ops has expectation ~20 flips.
	if tot.InjectedFlips > 0 && tot.CorrectedBits == 0 {
		t.Fatal("flips injected but none corrected")
	}

	out := s.Format()
	for _, want := range []string{"cluster snapshot", "node", "total", "network:"} {
		if !strings.Contains(out, want) {
			t.Fatalf("dashboard missing %q:\n%s", want, out)
		}
	}
}

func TestSnapshotActivityOnRightNode(t *testing.T) {
	p := core.DefaultParams(3)
	p.Geometry.BlocksPerChip = 8
	p.Geometry.PagesPerBlock = 16
	c, err := core.NewCluster(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.SeedLinear(2, 8, nil); err != nil {
		t.Fatal(err)
	}
	s := Snapshot(c)
	if s.Nodes[2].FlashPrograms != 8 {
		t.Fatalf("node 2 programs = %d, want 8", s.Nodes[2].FlashPrograms)
	}
	if s.Nodes[0].FlashPrograms != 0 || s.Nodes[1].FlashPrograms != 0 {
		t.Fatal("programs attributed to idle nodes")
	}
}
