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
//	                               # event-engine speed: events/sec at 4/16/64 nodes,
//	                               # appended to the file's trajectory of earlier runs
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
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
	"sort"
	"strings"
	"time"

	"repro/internal/experiments"
)

// writeJSON marshals v to jsonPath.
func writeJSON(jsonPath string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(jsonPath, append(b, '\n'), 0o644)
}

// writeMetrics writes a JSON experiment's value to jsonPath: the
// deterministic experiments' file is the result, regenerated byte for
// byte; the engine's sweep is appended to a trajectory.
func writeMetrics(jsonPath string, v any) error {
	if res, ok := v.(experiments.EngineResult); ok {
		return appendEngineRun(jsonPath, res)
	}
	return writeJSON(jsonPath, v)
}

// engineRun is one sweep as BENCH_ENGINE.json keeps it: the result plus
// where and when it was measured. Wall-clock figures compare only
// between runs whose Machine matches; the per-request counts compare
// across all of them.
type engineRun struct {
	Commit  string `json:"commit"`  // the commit measured; a trailing + marks uncommitted changes on top
	Date    string `json:"date"`    // UTC, YYYY-MM-DD
	Machine string `json:"machine"` // what the sweep ran on
	experiments.EngineResult
}

// engineTrajectory is the committed BENCH_ENGINE.json: every recorded
// sweep, oldest first, so each simulator speed-up stays visible beside
// the one before it.
type engineTrajectory struct {
	Runs []engineRun `json:"runs"`
}

// appendEngineRun is the JSON writer of the engine experiment, whose
// wall-clock figures are no regenerable artifact but a history: the
// sweep is added to the trajectory already in jsonPath (a file that
// does not exist yet starts one), stamped with the commit, the date and
// the machine, so every recorded speed-up stays beside the one before.
func appendEngineRun(jsonPath string, res experiments.EngineResult) error {
	var traj engineTrajectory
	switch old, err := os.ReadFile(jsonPath); {
	case errors.Is(err, fs.ErrNotExist):
	case err != nil:
		return err
	default:
		dec := json.NewDecoder(bytes.NewReader(old))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&traj); err != nil {
			return fmt.Errorf("%s holds no engine trajectory to append to (move it away to start a new one): %w", jsonPath, err)
		}
	}
	traj.Runs = append(traj.Runs, engineRun{
		Commit:       headCommit(),
		Date:         time.Now().UTC().Format("2006-01-02"),
		Machine:      fmt.Sprintf("%s/%s, %d CPUs, GOMAXPROCS %d, %s", runtime.GOOS, runtime.GOARCH, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version()),
		EngineResult: res,
	})
	return writeJSON(jsonPath, traj)
}

// headCommit names the commit of the working tree the binary was run
// in, with a trailing + when there are uncommitted changes on top, or
// "unknown" outside a git checkout.
func headCommit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	commit := strings.TrimSpace(string(out))
	if dirty, err := exec.Command("git", "status", "--porcelain", "--untracked-files=no").Output(); err == nil && len(dirty) > 0 {
		commit += "+"
	}
	return commit
}

func main() {
	os.Exit(run())
}

// run is main's body; it returns the exit code so profiling defers
// (StopCPUProfile, trace.Stop, the -memprofile writer) run before the
// process exits.
func run() int {
	table := experiments.Experiments()
	var jsonIDs []string
	for _, e := range table {
		if e.JSON {
			jsonIDs = append(jsonIDs, e.ID)
		}
	}
	runFlag := flag.String("run", "all", "comma-separated experiment ids, or 'all'")
	list := flag.Bool("list", false, "list experiment ids and exit")
	short := flag.Bool("short", false, "reduced request counts for smoke runs ("+strings.Join(jsonIDs, ", ")+")")
	jsonPath := flag.String("json", "", "write the "+strings.Join(jsonIDs, "/")+" experiment's JSON metrics to this file (run them separately)")
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

	if *list {
		for _, e := range table {
			fmt.Printf("%-8s %s\n", e.ID, e.Desc)
		}
		return 0
	}

	all := *runFlag == "all"
	want := map[string]bool{}
	if !all {
		for _, id := range strings.Split(*runFlag, ",") {
			want[strings.TrimSpace(id)] = true
		}
	}
	var selected []experiments.Experiment
	jsonRuns := 0
	for _, e := range table {
		if all || want[e.ID] {
			selected = append(selected, e)
			delete(want, e.ID)
			if e.JSON {
				jsonRuns++
			}
		}
	}
	if len(want) > 0 {
		unknown := make([]string, 0, len(want))
		for id := range want {
			unknown = append(unknown, id)
		}
		sort.Strings(unknown)
		fmt.Fprintf(os.Stderr, "bluedbm-bench: unknown experiment(s): %s\n", strings.Join(unknown, ", "))
		return 2
	}
	// -json writes one file; refuse to let two experiments silently
	// overwrite each other's metrics.
	if *jsonPath != "" && jsonRuns > 1 {
		fmt.Fprintf(os.Stderr, "bluedbm-bench: -json selects one output file; run the %s experiments separately\n", strings.Join(jsonIDs, "/"))
		return 2
	}

	return runExperiments(selected, *short, *jsonPath, os.Stdout, os.Stderr)
}

// runExperiments runs each experiment in turn, printing its output to
// stdout, or its error to stderr under its id — the one place the id
// is printed — and writing a JSON experiment's metrics to jsonPath when
// one is given. It returns the exit code: 1 if an experiment failed.
func runExperiments(selected []experiments.Experiment, short bool, jsonPath string, stdout, stderr io.Writer) int {
	code := 0
	for _, e := range selected {
		out, v, err := e.Run(e.Params, short)
		if err == nil && e.JSON && jsonPath != "" {
			err = writeMetrics(jsonPath, v)
		}
		if err != nil {
			fmt.Fprintf(stderr, "bluedbm-bench: %s: %v\n", e.ID, err)
			code = 1
			continue
		}
		fmt.Fprintln(stdout, out)
	}
	return code
}
