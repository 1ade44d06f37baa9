package repro_test

// One benchmark over the experiment table: a sub-benchmark per table
// and figure of the paper's evaluation, plus the scheduler experiment.
// Each regenerates its experiment end to end (cluster construction,
// seeding, workload) on the table's Params and reports the headline
// metric of that figure as a custom benchmark unit, so `go test
// -bench=Evaluation` reproduces the whole evaluation section.

import (
	"encoding/json"
	"testing"

	"repro/internal/experiments"
	"repro/internal/fpga"
	"repro/internal/power"
	"repro/internal/sched"
)

// headlines reports each benchmarked experiment's headline metrics
// from the value its run returned.
var headlines = map[string]func(b *testing.B, v any){
	"table1": func(b *testing.B, v any) { reportLUTs(b, v.(fpga.Report), "artix-LUTs") },
	"table2": func(b *testing.B, v any) { reportLUTs(b, v.(fpga.Report), "virtex-LUTs") },
	"table3": func(b *testing.B, v any) { b.ReportMetric(v.(power.Budget).Total(), "node-W") },
	"fig11": func(b *testing.B, v any) {
		b.ReportMetric(cell(b, v, "5", "Gbps/lane"), "Gbps/lane")
		b.ReportMetric(cell(b, v, "5", "Latency(us)")/5, "us/hop")
	},
	"fig12": func(b *testing.B, v any) {
		b.ReportMetric(cell(b, v, "ISP-F", "Total(us)"), "ISP-F-us")
		b.ReportMetric(cell(b, v, "H-RH-F", "Total(us)"), "H-RH-F-us")
	},
	"fig13": func(b *testing.B, v any) {
		b.ReportMetric(cell(b, v, "ISP-Local", "GB/s"), "ISP-local-GBps")
		b.ReportMetric(cell(b, v, "ISP-3Nodes", "GB/s"), "ISP-3nodes-GBps")
	},
	"fig16": func(b *testing.B, v any) {
		b.ReportMetric(cell(b, v, "4", "1 Node"), "ISP-Kcmp/s")
		b.ReportMetric(cell(b, v, "16", "DRAM"), "DRAM16-Kcmp/s")
	},
	"fig17": func(b *testing.B, v any) { b.ReportMetric(cell(b, v, "8", "10% Flash"), "10pctFlash-Kcmp/s") },
	"fig18": func(b *testing.B, v any) {
		b.ReportMetric(cell(b, v, "8", "Full Flash"), "random-Kcmp/s")
		b.ReportMetric(cell(b, v, "8", "Seq Flash"), "seq-Kcmp/s")
	},
	"fig19": func(b *testing.B, v any) {
		b.ReportMetric(cell(b, v, "8", "ISP")/cell(b, v, "8", "BlueDBM+SW"), "ISP-advantage-x")
	},
	"fig20": func(b *testing.B, v any) {
		b.ReportMetric(cell(b, v, "ISP-F", "Lookups/s")/cell(b, v, "H-RH-F", "Lookups/s"), "ISPF-over-HRHF-x")
	},
	"fig21": func(b *testing.B, v any) {
		isp := cell(b, v, "Flash/ISP", "MB/s")
		b.ReportMetric(isp, "ISP-MBps")
		b.ReportMetric(isp/cell(b, v, "HDD/SW Grep", "MB/s"), "vs-HDD-x")
	},
	// Beyond the paper: 64 concurrent QoS-classed streams through the
	// internal/sched request scheduler at -short size, batched doorbells
	// against one-doorbell-per-request and depth-1 submission, read
	// through its JSON metrics.
	"sched": func(b *testing.B, v any) {
		var r struct {
			Batched struct {
				Sched sched.Snapshot `json:"sched"`
			} `json:"batched"`
			SpeedupVsDepth1 float64 `json:"speedup_vs_depth1_x"`
		}
		raw, err := json.Marshal(v)
		if err == nil {
			err = json.Unmarshal(raw, &r)
		}
		if err != nil {
			b.Fatal(err)
		}
		var rtP99 float64
		for _, cs := range r.Batched.Sched.Classes {
			if cs.Class == "realtime" {
				rtP99 = cs.P99Us
			}
		}
		b.ReportMetric(r.Batched.Sched.TotalOpsPerSec/1e3, "batched-Kops/s")
		b.ReportMetric(rtP99, "rt-p99-us")
		b.ReportMetric(r.SpeedupVsDepth1, "vs-depth1-x")
	},
}

func BenchmarkEvaluation(b *testing.B) {
	for _, e := range experiments.Experiments() {
		report, ok := headlines[e.ID]
		if !ok {
			continue
		}
		b.Run(e.ID, func(b *testing.B) {
			var v any
			for i := 0; i < b.N; i++ {
				var err error
				if _, v, err = e.Run(e.Params, true); err != nil {
					b.Fatal(err)
				}
			}
			report(b, v)
		})
	}
}

// reportLUTs reports an FPGA design's LUT total, failing when the
// design does not fit its device.
func reportLUTs(b *testing.B, r fpga.Report, unit string) {
	if !r.Fits() {
		b.Fatal("design does not fit")
	}
	luts, _, _, _ := r.Totals()
	b.ReportMetric(float64(luts), unit)
}

// cell reads one cell of a paper figure's Rows.
func cell(b *testing.B, v any, row, col string) float64 {
	b.Helper()
	x, ok := v.(experiments.Rows).Cell(row, col)
	if !ok {
		b.Fatalf("no cell (%s, %s)", row, col)
	}
	return x
}
