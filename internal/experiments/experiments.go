// Package experiments regenerates every table and figure of the
// paper's evaluation (§6 and §7). Each Fig*/Table* function builds the
// simulated appliance it needs, runs the paper's workload, and returns
// typed rows; Format* helpers print them in the paper's layout.
//
// `bluedbm-bench -list` is the per-experiment index and the README's
// subsystem sections describe each workload; EXPERIMENTS.md, the
// measured-vs-paper record, is not yet written. harness.go holds what
// the beyond-the-paper experiments share.
package experiments

import (
	"fmt"
	"strings"

	"repro/internal/core"
)

// scaledParams returns paper-faithful cluster parameters with flash
// capacity scaled down so experiments finish in seconds of wall-clock
// time. Bandwidths and latencies are untouched.
func scaledParams(nodes int) core.Params {
	p := core.DefaultParams(nodes)
	p.Geometry.BlocksPerChip = 16
	p.Geometry.PagesPerBlock = 32
	return p
}

// table is a tiny column formatter shared by the Format helpers.
type table struct {
	b strings.Builder
}

func (t *table) row(cols ...string) {
	for i, c := range cols {
		if i > 0 {
			t.b.WriteString("  ")
		}
		fmt.Fprintf(&t.b, "%-14s", c)
	}
	t.b.WriteString("\n")
}

func (t *table) String() string { return t.b.String() }

func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func f0(v float64) string { return fmt.Sprintf("%.0f", v) }
