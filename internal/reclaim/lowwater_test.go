package reclaim_test

import (
	"strings"
	"testing"

	"repro/internal/ftl"
	"repro/internal/nand"
	"repro/internal/reclaim"
	"repro/internal/rfs"
)

// TestLowWaterBelowOneRefused: a pass needs a free unit to start from,
// so a low-water mark of 0 is refused by the log and by both keyings,
// whose errors name their own field. (It used to be raised to 1 without
// a word, so 0 and 1 ran identically.)
func TestLowWaterBelowOneRefused(t *testing.T) {
	geo := nand.Geometry{Buses: 1, ChipsPerBus: 1, BlocksPerChip: 4, PagesPerBlock: 4, PageSize: 16}
	for _, c := range []struct {
		name, field string
		build       func() error
	}{
		{"log", "low-water", func() error {
			_, err := reclaim.New("log", geo, 1, 0, 1, nil, nil)
			return err
		}},
		{"ftl", "GCLowWater", func() error {
			cfg := ftl.DefaultConfig()
			cfg.GCLowWater = 0
			_, err := ftl.New(nil, geo, cfg)
			return err
		}},
		{"rfs", "CleanLowWater", func() error {
			_, err := rfs.New(nil, geo, rfs.Config{CleanLowWater: 0})
			return err
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			if err := c.build(); err == nil || !strings.Contains(err.Error(), c.field) {
				t.Fatalf("low-water mark 0 built a log or was refused without naming %s: %v", c.field, err)
			}
		})
	}
}
