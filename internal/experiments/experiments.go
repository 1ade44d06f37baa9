// Package experiments regenerates every table and figure of the
// paper's evaluation (§6 and §7) and the beyond-the-paper experiments
// built on the same appliance. Experiments() is the one list of them:
// each record names an experiment, holds the core.Params it runs on
// and a run that builds the simulated appliance from those Params,
// measures, and returns the printed text and the value behind it.
// bluedbm-bench and the tests both read that table. harness.go holds
// what the beyond-the-paper experiments share.
package experiments

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/fpga"
	"repro/internal/power"
)

// Experiment is one record of the evaluation.
type Experiment struct {
	ID, Desc string
	// Params is the appliance the experiment runs on. A run sets only
	// Nodes and Topology on it: the cluster sizes it measures.
	Params core.Params
	// JSON marks the experiments that honour -short and whose value is
	// the -json metrics file.
	JSON bool
	// Run measures on p and returns the printed text and the value
	// behind it: a JSON experiment's metrics, a paper figure's Rows, a
	// table's report. short shrinks a JSON experiment to smoke size.
	Run func(p core.Params, short bool) (text string, value any, err error)
}

// Experiments is the evaluation, in the order bluedbm-bench runs it.
func Experiments() []Experiment {
	// The three appliances: paper timing and bandwidth everywhere, flash
	// capacity scaled down so every experiment finishes in seconds of
	// wall-clock time.
	shrunk := func(chipsPerBus, blocksPerChip, pagesPerBlock int) core.Params {
		p := core.DefaultParams(1)
		p.Geometry.ChipsPerBus, p.Geometry.BlocksPerChip, p.Geometry.PagesPerBlock = chipsPerBus, blocksPerChip, pagesPerBlock
		return p
	}
	scaled := shrunk(1, 16, 32)
	// Smaller still, so a volume can be seeded, churned to steady-state
	// GC, scanned repeatedly or rebuilt in seconds: the GC, ISP, apps,
	// fault and cache harnesses. Full-size blocks: the erase rate per
	// written page falls with block size, keeping unavoidable
	// read-behind-erase chip collisions (identical in both arms) out of
	// the p99 quantile the dispatch policies are compared on.
	vol := shrunk(2, 2, 32)
	// The file stack's: seeded files and repeated churn in seconds.
	files := shrunk(2, 4, 16)

	return []Experiment{
		{"engine", "event-engine speed: events/sec, ns/event, allocs/event at 4/16/64 nodes", scaled, true,
			harness(defaultEngineBench, engineBench, formatEngineBench)},
		{"sched", "multi-stream scheduler: QoS latency and batched-submission throughput", scaled, true,
			harness(defaultMultiStream, compareBatching, formatBatchComparison)},
		{"gc", "logical volume + FTL garbage collection: GC-aware vs GC-oblivious realtime p99", vol, true,
			harness(defaultGCIsolation, gcIsolation, formatGCIsolation)},
		{"isp", "distributed in-store processing: ISP-F vs host-mediated throughput + realtime p99 under contention", vol, true,
			harness(defaultISPContention, ispContention, formatISPContention)},
		{"fs", "file stack: blockfs-on-FTL vs cluster RFS vs cluster RFS + distributed file scans (Figure 8 end-to-end)", files, true,
			harness(defaultFileStack, fileStack, formatFileStack)},
		{"apps", "distributed applications: cluster nearest-neighbor + migrating graph traversal vs host-centric twins", vol, true,
			harness(defaultApps, apps, formatApps)},
		{"fault", "fault tolerance: node kill on a mirrored volume — degraded p99 and time-to-rebuild vs baseline", vol, true,
			harness(defaultFault, fault, formatFault)},
		{"cache", "host-DRAM cache tier: hit regimes + DRAM strawman perf-per-watt + invalidation-heavy p99", vol, true,
			harness(defaultCacheTier, cacheTier, formatCacheTier)},
		{"table1", "Artix-7 flash controller resources", scaled, false, func(p core.Params, _ bool) (string, any, error) {
			r := fpga.FlashControllerReport(p.Geometry.Buses)
			return fpga.FormatTable("Table 1: flash controller on Artix-7 resource usage", r), r, nil
		}},
		{"table2", "Virtex-7 host FPGA resources", scaled, false, func(p core.Params, _ bool) (string, any, error) {
			r := fpga.HostFPGAReport(p.Net.PortsPerNode)
			return fpga.FormatTable("Table 2: host Virtex-7 resource usage", r), r, nil
		}},
		{"table3", "node power budget", scaled, false, func(p core.Params, _ bool) (string, any, error) {
			b := power.NodeBudget(p.CardsPerNode)
			return power.FormatTable(b), b, nil
		}},
		{"fig11", "integrated network bandwidth/latency vs hops", scaled, false, figure(fig11)},
		{"fig12", "remote access latency breakdown", scaled, false, figure(fig12)},
		{"fig13", "read bandwidth by access mix", scaled, false, figure(fig13)},
		{"fig16", "nearest neighbor: BlueDBM vs DRAM", scaled, false, figure(fig16)},
		{"fig17", "nearest neighbor: mostly-DRAM configurations", scaled, false, figure(fig17)},
		{"fig18", "nearest neighbor: off-the-shelf SSD", scaled, false, figure(fig18)},
		{"fig19", "nearest neighbor: in-store processing advantage", scaled, false, figure(fig19)},
		{"fig20", "graph traversal performance", scaled, false, figure(fig20)},
		{"fig21", "string search bandwidth and CPU utilization", scaled, false, figure(fig21)},
	}
}

// harness makes a JSON experiment's run: its config at the run size,
// the measurement, and its text.
func harness[C, R any](config func(short bool) C, measure func(core.Params, C) (R, error),
	format func(R) string) func(core.Params, bool) (string, any, error) {
	return func(p core.Params, short bool) (string, any, error) {
		res, err := measure(p, config(short))
		if err != nil {
			return "", nil, err
		}
		return format(res), res, nil
	}
}

// figure makes a paper figure's run.
func figure(measure func(core.Params) (Rows, error)) func(core.Params, bool) (string, any, error) {
	return func(p core.Params, _ bool) (string, any, error) {
		rows, err := measure(p)
		if err != nil {
			return "", nil, err
		}
		return rows.String(), rows, nil
	}
}

// Rows is a paper figure's result: a title, named columns with their
// print format, and keyed rows (the figure's bars or x positions).
type Rows struct {
	Title string
	Key   string // the key column's header
	Cols  []Col
	Rows  []Row
}

// Col is one column: its header and the fmt verb its cells print with.
type Col struct{ Name, Format string }

// Row is one keyed row, a value per column.
type Row struct {
	Key  string
	Vals []float64
}

// cols gives every named column one format.
func cols(format string, names ...string) []Col {
	out := make([]Col, len(names))
	for i, n := range names {
		out[i] = Col{n, format}
	}
	return out
}

func (r *Rows) add(key string, vals ...float64) {
	r.Rows = append(r.Rows, Row{key, vals})
}

// Cell is the value in the named row and column.
//
//simlint:allow unused (probe: the figure tests and the root benchmarks read a figure's cells by row and column)
func (r Rows) Cell(row, col string) (float64, bool) {
	for _, rw := range r.Rows {
		for i, c := range r.Cols {
			if rw.Key == row && c.Name == col {
				return rw.Vals[i], true
			}
		}
	}
	return 0, false
}

// String prints the figure in the paper's layout.
func (r Rows) String() string {
	var t table
	cells := []string{r.Key}
	for _, c := range r.Cols {
		cells = append(cells, c.Name)
	}
	t.row(cells...)
	for _, rw := range r.Rows {
		cells = append(cells[:0], rw.Key)
		for i, v := range rw.Vals {
			cells = append(cells, fmt.Sprintf(r.Cols[i].Format, v))
		}
		t.row(cells...)
	}
	return r.Title + "\n" + t.String()
}

// table is a tiny column formatter shared by the formatters.
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
