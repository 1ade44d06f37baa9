// Command bluedbm-bench regenerates the paper's evaluation — every
// table and figure of "BlueDBM: An Appliance for Big Data Analytics"
// (ISCA 2015), printed in the paper's layout — plus the multi-stream
// scheduler benchmark that goes beyond the paper.
//
// Usage:
//
//	bluedbm-bench                  # run everything
//	bluedbm-bench -run fig13,fig20 # run a subset
//	bluedbm-bench -run sched -json sched.json -short
//	                               # scheduler smoke run, JSON metrics
//	bluedbm-bench -run gc -json BENCH_GC.json
//	                               # GC-aware vs GC-oblivious QoS comparison
//	bluedbm-bench -run isp -json BENCH_ISP.json
//	                               # distributed ISP-F vs host-mediated + QoS
//	bluedbm-bench -run fs -json BENCH_FS.json
//	                               # blockfs-on-FTL vs cluster RFS vs RFS + ISP file scans
//	bluedbm-bench -run apps -json BENCH_APPS.json
//	                               # distributed NN + migrating traversal vs host twins
//	bluedbm-bench -run fault -json BENCH_FAULT.json
//	                               # node-kill on a mirrored volume: degraded p99 + rebuild
//	bluedbm-bench -run engine -json BENCH_ENGINE.json
//	                               # event-engine speed: events/sec at 4/16/64 nodes
//	bluedbm-bench -run cache -json BENCH_CACHE.json
//	                               # host-DRAM cache tier: hit regimes, perf-per-watt, invalidation p99
//	bluedbm-bench -list            # list experiment ids
//
// Profiling the simulator itself (any experiment selection):
//
//	bluedbm-bench -run engine -cpuprofile cpu.pb.gz
//	bluedbm-bench -run engine -memprofile mem.pb.gz
//	bluedbm-bench -run engine -trace trace.out
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
	"sort"
	"strings"

	"repro/internal/experiments"
)

type runner struct {
	id   string
	desc string
	// writesJSON marks experiments that emit metrics to the -json
	// file; at most one may be selected per invocation.
	writesJSON bool
	run        func() (string, error)
}

// writeJSON marshals v to jsonPath (no-op when jsonPath is empty).
func writeJSON(jsonPath string, v any) error {
	if jsonPath == "" {
		return nil
	}
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(jsonPath, append(b, '\n'), 0o644)
}

// jsonRunner wraps one experiment that honours -short and -json: its
// default config for the run size, the run, the optional JSON metrics
// file, and its text rendering.
func jsonRunner[C, R any](short bool, jsonPath string, def func(bool) C, run func(C) (R, error), format func(R) string) func() (string, error) {
	return func() (string, error) {
		res, err := run(def(short))
		if err != nil {
			return "", err
		}
		if err := writeJSON(jsonPath, res); err != nil {
			return "", err
		}
		return format(res), nil
	}
}

// figure wraps one paper figure: measure, then render.
func figure[R any](measure func() (R, error), format func(R) string) func() (string, error) {
	return func() (string, error) {
		res, err := measure()
		if err != nil {
			return "", err
		}
		return format(res), nil
	}
}

func allRunners(short bool, jsonPath string) []runner {
	// The four nearest-neighbor plots share a formatter and run their
	// default thread sweep.
	nn := func(title string, fig func([]int) ([]experiments.NNPoint, error)) func() (string, error) {
		return figure(func() ([]experiments.NNPoint, error) { return fig(nil) },
			func(pts []experiments.NNPoint) string { return experiments.FormatNN(title, pts) })
	}
	return []runner{
		{"engine", "event-engine speed: events/sec, ns/event, allocs/event at 4/16/64 nodes", true,
			jsonRunner(short, jsonPath, experiments.DefaultEngineBench, experiments.EngineBench, experiments.FormatEngineBench)},
		{"sched", "multi-stream scheduler: QoS latency and batched-submission throughput", true,
			jsonRunner(short, jsonPath, experiments.DefaultMultiStream, experiments.MultiStreamBatchComparison,
				func(cmp experiments.BatchComparison) string {
					return experiments.FormatMultiStream(cmp.Batched) + "\n" + experiments.FormatBatchComparison(cmp)
				})},
		{"gc", "logical volume + FTL garbage collection: GC-aware vs GC-oblivious realtime p99", true,
			jsonRunner(short, jsonPath, experiments.DefaultGCIsolation, experiments.GCIsolation, experiments.FormatGCIsolation)},
		{"isp", "distributed in-store processing: ISP-F vs host-mediated throughput + realtime p99 under contention", true,
			jsonRunner(short, jsonPath, experiments.DefaultISPContention, experiments.ISPContention, experiments.FormatISPContention)},
		{"fs", "file stack: blockfs-on-FTL vs cluster RFS vs cluster RFS + distributed file scans (Figure 8 end-to-end)", true,
			jsonRunner(short, jsonPath, experiments.DefaultFileStack, experiments.FileStack, experiments.FormatFileStack)},
		{"apps", "distributed applications: cluster nearest-neighbor + migrating graph traversal vs host-centric twins", true,
			jsonRunner(short, jsonPath, experiments.DefaultApps, experiments.Apps, experiments.FormatApps)},
		{"fault", "fault tolerance: node kill on a mirrored volume — degraded p99 and time-to-rebuild vs baseline", true,
			jsonRunner(short, jsonPath, experiments.DefaultFault, experiments.Fault, experiments.FormatFault)},
		{"cache", "host-DRAM cache tier: hit regimes + DRAM strawman perf-per-watt + invalidation-heavy p99", true,
			jsonRunner(short, jsonPath, experiments.DefaultCacheTier, experiments.CacheTier, experiments.FormatCacheTier)},
		{"table1", "Artix-7 flash controller resources", false,
			func() (string, error) { return experiments.FormatTable1(8), nil }},
		{"table2", "Virtex-7 host FPGA resources", false,
			func() (string, error) { return experiments.FormatTable2(8), nil }},
		{"table3", "node power budget", false,
			func() (string, error) { return experiments.FormatTable3(2), nil }},
		{"fig11", "integrated network bandwidth/latency vs hops", false,
			figure(func() ([]experiments.Fig11Point, error) { return experiments.Fig11(5) }, experiments.FormatFig11)},
		{"fig12", "remote access latency breakdown", false, figure(experiments.Fig12, experiments.FormatFig12)},
		{"fig13", "read bandwidth by access mix", false, figure(experiments.Fig13, experiments.FormatFig13)},
		{"fig16", "nearest neighbor: BlueDBM vs DRAM", false,
			nn("Figure 16: nearest neighbor, BlueDBM up to two nodes", experiments.Fig16)},
		{"fig17", "nearest neighbor: mostly-DRAM configurations", false,
			nn("Figure 17: nearest neighbor with mostly DRAM", experiments.Fig17)},
		{"fig18", "nearest neighbor: off-the-shelf SSD", false,
			nn("Figure 18: nearest neighbor with off-the-shelf SSD", experiments.Fig18)},
		{"fig19", "nearest neighbor: in-store processing advantage", false,
			nn("Figure 19: nearest neighbor with in-store processing", experiments.Fig19)},
		{"fig20", "graph traversal performance", false, figure(experiments.Fig20, experiments.FormatFig20)},
		{"fig21", "string search bandwidth and CPU utilization", false, figure(experiments.Fig21, experiments.FormatFig21)},
	}
}

// jsonIDs lists the experiments that honour -short and -json, joined
// by sep, in table order.
func jsonIDs(sep string) string {
	var ids []string
	for _, r := range allRunners(false, "") {
		if r.writesJSON {
			ids = append(ids, r.id)
		}
	}
	return strings.Join(ids, sep)
}

func main() {
	os.Exit(run())
}

// run is main's body; it returns the exit code so profiling defers
// (StopCPUProfile, trace.Stop, the -memprofile writer) run before the
// process exits.
func run() int {
	runFlag := flag.String("run", "all", "comma-separated experiment ids, or 'all'")
	list := flag.Bool("list", false, "list experiment ids and exit")
	short := flag.Bool("short", false, "reduced request counts for smoke runs ("+jsonIDs(", ")+")")
	jsonPath := flag.String("json", "", "write the "+jsonIDs("/")+" experiment's JSON metrics to this file (run them separately)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the selected experiments to this file")
	memProfile := flag.String("memprofile", "", "write an allocation profile (after the run) to this file")
	traceFile := flag.String("trace", "", "write a runtime execution trace of the selected experiments to this file")
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bluedbm-bench: -cpuprofile: %v\n", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "bluedbm-bench: -cpuprofile: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *traceFile != "" {
		f, err := os.Create(*traceFile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bluedbm-bench: -trace: %v\n", err)
			return 1
		}
		defer f.Close()
		if err := trace.Start(f); err != nil {
			fmt.Fprintf(os.Stderr, "bluedbm-bench: -trace: %v\n", err)
			return 1
		}
		defer trace.Stop()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bluedbm-bench: -memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fmt.Fprintf(os.Stderr, "bluedbm-bench: -memprofile: %v\n", err)
			}
		}()
	}

	runners := allRunners(*short, *jsonPath)
	if *list {
		for _, r := range runners {
			fmt.Printf("%-8s %s\n", r.id, r.desc)
		}
		return 0
	}

	want := map[string]bool{}
	if *runFlag != "all" {
		for _, id := range strings.Split(*runFlag, ",") {
			want[strings.TrimSpace(id)] = true
		}
		known := map[string]bool{}
		for _, r := range runners {
			known[r.id] = true
		}
		var unknown []string
		for id := range want {
			if !known[id] {
				unknown = append(unknown, id)
			}
		}
		if len(unknown) > 0 {
			sort.Strings(unknown)
			fmt.Fprintf(os.Stderr, "bluedbm-bench: unknown experiment(s): %s\n", strings.Join(unknown, ", "))
			return 2
		}
	}

	// -json writes one file; refuse to let two experiments silently
	// overwrite each other's metrics.
	if *jsonPath != "" {
		jsonRunners := 0
		for _, r := range runners {
			if r.writesJSON && (len(want) == 0 || want[r.id]) {
				jsonRunners++
			}
		}
		if jsonRunners > 1 {
			fmt.Fprintf(os.Stderr, "bluedbm-bench: -json selects one output file; run the %s experiments separately\n", jsonIDs("/"))
			return 2
		}
	}

	failed := false
	for _, r := range runners {
		if len(want) > 0 && !want[r.id] {
			continue
		}
		out, err := r.run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "bluedbm-bench: %s: %v\n", r.id, err)
			failed = true
			continue
		}
		fmt.Println(out)
	}
	if failed {
		return 1
	}
	return 0
}
