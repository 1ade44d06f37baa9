// Command bench is the repository's benchmark: five fixed, seeded
// workloads driven through the public functions of the stack, measured
// end to end and layer by layer, for the modelled appliance (simulated
// time) and for the simulator itself (host time, events, allocations).
// See README.md.
//
//	go -C bench run . -workload local-read -seed 7        one workload
//	go -C bench run . -seed 7 -out /tmp/a.json            all five, added to a result file
//	go -C bench run . -trace 1 -spans /tmp/spans.json     the traced run: counters, ladder, spans
//	go -C bench run . -ladder                             the ladder alone
//	go -C bench run . -compare /tmp/a.json /tmp/b.json    two result files, row by row
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"

	"repro/internal/sched"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// options is the parsed command line.
type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    int
	size     string
	spans    string
	out      string
	ladder   bool
	describe bool
	compare  string
}

func run(args []string, stdout, stderr io.Writer) int {
	var o options
	fl := flag.NewFlagSet("bench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	fl.StringVar(&o.workload, "workload", "all", "workload to run, or all")
	fl.Uint64Var(&o.seed, "seed", 1, "seed of the generated op streams and page contents")
	fl.IntVar(&o.seconds, "seconds", runSeconds, "window length: each workload measures rate × seconds page ops")
	fl.IntVar(&o.trace, "trace", 0, "1: the traced run, reporting the per-layer metrics; 0: the end-to-end metrics")
	fl.StringVar(&o.size, "size", "full", "full or smoke")
	fl.StringVar(&o.spans, "spans", "", "with -trace 1: write the recorded spans to this file")
	fl.StringVar(&o.out, "out", "", "append the runs to this result file (for -compare)")
	fl.BoolVar(&o.ladder, "ladder", false, "run only the ladder and print its table")
	fl.BoolVar(&o.describe, "describe", false, "print BENCHMARK.json from the metric registry")
	fl.StringVar(&o.compare, "compare", "", "compare this result file (base) with the one named next (new)")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	err := dispatch(&o, fl.Args(), stdout)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		if errors.Is(err, errIncorrect) {
			return 3
		}
		return 1
	}
	return 0
}

// runSeconds is the window length the driver asks for, and the default.
const runSeconds = 10

// errIncorrect reports that a run finished but an op failed, was
// dropped, or returned wrong bytes.
var errIncorrect = errors.New("outputs incorrect")

func dispatch(o *options, rest []string, stdout io.Writer) error {
	smoke := o.size == "smoke"
	switch {
	case o.size != "full" && !smoke:
		return fmt.Errorf("-size %q: want full or smoke", o.size)
	case o.trace != 0 && o.trace != 1:
		return fmt.Errorf("-trace %d: want 0 or 1", o.trace)
	case o.seconds < 1:
		return fmt.Errorf("-seconds must be at least 1")
	case o.describe:
		return writeJSON(stdout, describe())
	case o.compare != "":
		if len(rest) != 1 {
			return fmt.Errorf("-compare BASE.json NEW.json")
		}
		return compareFiles(stdout, o.compare, rest[0])
	case o.ladder:
		m, err := runLadder(smoke)
		if err != nil {
			return err
		}
		printLadder(stdout, m)
		return nil
	}

	defs := workloads
	if o.workload != "all" {
		def := findWorkload(o.workload)
		if def == nil {
			return fmt.Errorf("no workload %q", o.workload)
		}
		defs = []*workloadDef{def}
	}
	sz := sizing{smoke: smoke, seconds: o.seconds}
	var file *resultFile
	if o.out != "" {
		var err error
		if file, err = openResults(o.out, newMeta(o)); err != nil {
			return err
		}
	}
	var ladder map[string]float64
	var spans []spanSet
	incorrect := false
	for _, def := range defs {
		var res *runResult
		var err error
		if o.trace == 1 {
			if ladder == nil {
				if ladder, err = runLadder(smoke); err != nil {
					return err
				}
			}
			res, err = measureTraced(def, o.seed, sz, ladder)
		} else {
			res, err = measure(def, o.seed, sz, false)
		}
		if err != nil {
			return err
		}
		printRun(stdout, res)
		if file != nil {
			file.Runs = append(file.Runs, res)
		}
		spans = append(spans, res.spans)
		incorrect = incorrect || res.Failed > 0
	}
	if o.spans != "" {
		if err := writeSpans(o.spans, spans); err != nil {
			return err
		}
	}
	if file != nil {
		if err := file.save(o.out); err != nil {
			return err
		}
	}
	if incorrect {
		return errIncorrect
	}
	return nil
}

// measureTraced is the -trace 1 run: the window with tracing on, its
// counters joined with the ladder, after a quarter of the window on a
// stack of its own with tracing off, which is all trace.overhead_share
// needs. Tracing must not move the simulated schedule: the run's
// sim_digest is that of the untraced run of the same seed and window,
// which TestTracedRun checks.
func measureTraced(def *workloadDef, seed uint64, sz sizing, ladder map[string]float64) (*runResult, error) {
	plain, err := measure(def, seed, sz.quarter(), false)
	if err != nil {
		return nil, err
	}
	res, err := measure(def, seed, sz, true)
	if err != nil {
		return nil, err
	}
	res.PerLayer["trace.overhead_share"] = 1 - res.EndToEnd["host_ops_per_s"]/plain.EndToEnd["host_ops_per_s"]
	for k, v := range ladder {
		res.PerLayer[k] = v
	}
	res.Attempted += plain.Attempted
	res.Failed += plain.Failed
	return res, nil
}

// --- output ------------------------------------------------------------

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// contractLine is the last line of a run's output.
type contractLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// printRun prints one run: a table of its metrics, then one JSON
// object — every end-to-end metric for an untraced run, every
// per-layer metric for a traced one.
func printRun(w io.Writer, res *runResult) {
	fmt.Fprintf(w, "%s  seed %d  %d page ops measured in %.2f s wall, %.2f s CPU  attempted %d  failed %d  sim_digest %s\n",
		res.Workload, res.Seed, res.Ops, res.WindowWallS, res.WindowCPUS, res.Attempted, res.Failed, res.SimDigest)
	line := contractLine{Correct: res.Failed == 0, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]metricValue{}}
	if res.Traced {
		for _, d := range perLayer() {
			line.Metrics[d.Name] = metricValue{res.PerLayer[d.Name], d.Unit}
		}
		for _, d := range counterDefs {
			fmt.Fprintf(w, "  %-26s %16.6g %s\n", d.Name, res.PerLayer[d.Name], d.Unit)
		}
		printLadder(w, res.PerLayer)
		printSpanSummary(w, res.spans.spans)
	} else {
		for _, d := range endToEnd {
			v := res.EndToEnd[d.Name]
			line.Metrics[d.Name] = metricValue{v, d.Unit}
			note := ""
			switch d.Name {
			case "host_ops_per_s":
				note = fmt.Sprintf("  quartiles %.6g .. %.6g over %d segments", res.HostOpsQ1, res.HostOpsQ3, res.Segments)
			case "sim_rt_p50_us":
				note = fmt.Sprintf("  %d probe samples", res.ProbeSamples)
			}
			fmt.Fprintf(w, "  %-20s %14.6g %-9s %-6s better, bound %4.0f%%%s\n", d.Name, v, d.Unit, d.Better, 100*d.Bound, note)
		}
	}
	b, err := json.Marshal(line)
	if err != nil {
		panic(err) // finite floats and strings always marshal
	}
	fmt.Fprintf(w, "%s\n", b)
}

func printLadder(w io.Writer, m map[string]float64) {
	fmt.Fprintf(w, "  %-20s %10s %9s %8s %12s %10s   %s\n", "ladder rung", "host_ns", "events", "allocs", "alloc_bytes", "sim_us", "entry point")
	for _, r := range rungs {
		sim := "-"
		if r.hasSim {
			sim = fmt.Sprintf("%.3f", m[r.name+".sim_us"])
		}
		fmt.Fprintf(w, "  %-20s %10.0f %9.2f %8.2f %12.0f %10s   %s\n", r.name,
			m[r.name+".host_ns"], m[r.name+".events"], m[r.name+".allocs"], m[r.name+".alloc_bytes"], sim, r.entry)
	}
}

// printSpanSummary gives simulated latency by op and class from the
// spans: what the spans file holds, in brief.
func printSpanSummary(w io.Writer, spans []span) {
	type key struct {
		code  opCode
		class uint8
	}
	groups := map[key][]int64{}
	for _, s := range spans {
		if s.end >= 0 {
			k := key{s.code, s.class}
			groups[k] = append(groups[k], int64(s.end-s.start))
		}
	}
	keys := make([]key, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].code != keys[j].code {
			return keys[i].code < keys[j].code
		}
		return keys[i].class < keys[j].class
	})
	fmt.Fprintf(w, "  %-10s %-12s %9s %12s %12s\n", "span op", "class", "count", "p50 us_sim", "p99 us_sim")
	for _, k := range keys {
		lat := groups[k]
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		fmt.Fprintf(w, "  %-10s %-12s %9d %12.3f %12.3f\n", k.code, className(k.class), len(lat), rank(lat, 0.5)/1e3, rank(lat, 0.99)/1e3)
	}
}

// --- spans file --------------------------------------------------------

// writeSpans writes one JSON object per span, one per line inside a
// JSON array. A span has no parent: it is a call into the workload's
// top layer, and spans inside the program are a later change.
func writeSpans(path string, sets []spanSet) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriter(f)
	w.WriteString("[")
	id := 0
	for _, set := range sets {
		for _, s := range set.spans {
			sep := ",\n"
			if id == 0 {
				sep = "\n"
			}
			fmt.Fprintf(w, `%s{"id":%d,"parent":null,"workload":%q,"layer":%q,"op":%q,"class":%q,"node":%d,"stream":%d,"sim_start_ns":%d,"sim_end_ns":%d,"ok":%t}`,
				sep, id, set.workload, s.code.layer(set.layer), s.code.String(), className(s.class), s.node, s.stream, int64(s.start), int64(s.end), s.ok)
			id++
		}
	}
	w.WriteString("\n]\n")
	return w.Flush()
}

// --- result files ------------------------------------------------------

type meta struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	NProc      int    `json:"nproc"`
	GoMaxProcs int    `json:"gomaxprocs"`
	Size       string `json:"size"`
	Seconds    int    `json:"seconds"`
}

// newMeta describes this process; run.sh puts the commit in BENCH_COMMIT.
func newMeta(o *options) meta {
	commit := os.Getenv("BENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	return meta{Commit: commit, GoVersion: runtime.Version(), NProc: runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0), Size: o.size, Seconds: o.seconds}
}

// resultFile is what -out writes and -compare reads.
type resultFile struct {
	Meta meta         `json:"meta"`
	Runs []*runResult `json:"runs"`
}

// openResults starts a result file, or reopens one made by the same
// commit at the same settings so runs of separate processes add up.
func openResults(path string, m meta) (*resultFile, error) {
	f, err := loadResults(path)
	if errors.Is(err, os.ErrNotExist) {
		return &resultFile{Meta: m}, nil
	}
	if err != nil {
		return nil, err
	}
	if f.Meta != m {
		return nil, fmt.Errorf("%s was written by %+v, this is %+v: not mixing them", path, f.Meta, m)
	}
	return f, nil
}

func (f *resultFile) save(path string) error {
	b, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func writeJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// --- BENCHMARK.json ----------------------------------------------------

type benchmarkJSON struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDoc `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []metricDef   `json:"per_layer"`
}

type workloadDoc struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// describe renders the registry as BENCHMARK.json.
func describe() benchmarkJSON {
	b := benchmarkJSON{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer(),
	}
	for _, w := range workloads {
		b.Workloads = append(b.Workloads, workloadDoc{w.name, w.why})
	}
	return b
}

func className(c uint8) string { return sched.Class(c).String() }
