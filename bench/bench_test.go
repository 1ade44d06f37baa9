package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"sync"
	"testing"

	"repro/internal/sched"
	"repro/internal/sim"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	smoke  = sizing{smoke: true, seconds: 1}
)

// lastLine decodes the JSON object a run prints last and checks it has
// exactly the contract's keys.
func lastLine(t *testing.T, out string) contractLine {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var raw map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &raw); err != nil {
		t.Fatalf("last line is not JSON: %v\n%s", err, lines[len(lines)-1])
	}
	for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := raw[k]; !ok {
			t.Errorf("last line lacks %q", k)
		}
	}
	if len(raw) != 4 {
		t.Errorf("last line has %d keys, want 4", len(raw))
	}
	var line contractLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatal(err)
	}
	return line
}

// checkMetrics verifies a contract line carries exactly the metrics in
// defs, each finite and with its registered unit.
func checkMetrics(t *testing.T, what string, line contractLine, defs []metricDef) {
	t.Helper()
	if len(line.Metrics) != len(defs) {
		t.Errorf("%s: %d metrics printed, %d registered", what, len(line.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := line.Metrics[d.Name]
		switch {
		case !ok:
			t.Errorf("%s: %s not printed", what, d.Name)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("%s: %s = %v", what, d.Name, m.Value)
		case m.Unit != d.Unit:
			t.Errorf("%s: %s has unit %q, want %q", what, d.Name, m.Unit, d.Unit)
		}
	}
}

// smokeRuns runs every workload once at smoke size, seed 1, tracing
// off, and keeps the results for the tests that only read them.
var smokeRuns = sync.OnceValues(func() (map[string]*runResult, error) {
	out := map[string]*runResult{}
	for _, def := range workloads {
		res, err := measure(def, 1, smoke, false)
		if err != nil {
			return nil, err
		}
		out[def.name] = res
	}
	return out, nil
})

// TestWorkloadsEndToEnd runs all five workloads at smoke size with
// tracing off: no op may fail, every end-to-end metric is printed once
// with a finite, non-zero value, and the probes took samples.
func TestWorkloadsEndToEnd(t *testing.T) {
	runs, err := smokeRuns()
	if err != nil {
		t.Fatal(err)
	}
	for _, def := range workloads {
		res := runs[def.name]
		if res.Failed != 0 || res.Attempted < res.Ops || res.ProbeSamples == 0 {
			t.Errorf("%s: attempted %d failed %d ops %d probes %d", def.name, res.Attempted, res.Failed, res.Ops, res.ProbeSamples)
		}
		var out bytes.Buffer
		printRun(&out, res)
		line := lastLine(t, out.String())
		if !line.Correct || line.Attempted < 1 {
			t.Errorf("%s: correct=%v attempted=%d", def.name, line.Correct, line.Attempted)
		}
		checkMetrics(t, def.name, line, endToEnd)
		for _, d := range endToEnd {
			if line.Metrics[d.Name].Value == 0 {
				t.Errorf("%s: %s is 0; an end-to-end metric must never be", def.name, d.Name)
			}
			if n := strings.Count(out.String(), "\n  "+d.Name+" "); n != 1 {
				t.Errorf("%s: %s is in the table %d times", def.name, d.Name, n)
			}
		}
	}
}

// TestTracedRun drives the command itself through a traced run of
// every workload: the ladder runs, every per-layer metric is printed,
// tracing leaves the simulated schedule alone (the traced run's digest
// is the untraced run's), and the spans file parses.
func TestTracedRun(t *testing.T) {
	untraced, err := smokeRuns()
	if err != nil {
		t.Fatal(err)
	}
	spans := filepath.Join(t.TempDir(), "spans.json")
	var out, errs bytes.Buffer
	if code := run([]string{"--size", "smoke", "--trace", "1", "--spans", spans}, &out, &errs); code != 0 {
		t.Fatalf("exit %d: %s", code, errs.String())
	}
	// One JSON line per workload; each must carry every per-layer metric.
	seen := 0
	for _, l := range strings.Split(out.String(), "\n") {
		if f := strings.Fields(l); len(f) > 2 && f[len(f)-2] == "sim_digest" {
			if want := untraced[f[0]].SimDigest; f[len(f)-1] != want {
				t.Errorf("%s: tracing changed the simulated schedule: digest %s, untraced %s", f[0], f[len(f)-1], want)
			}
		}
		if strings.HasPrefix(l, "{") {
			checkMetrics(t, workloads[seen].name, lastLine(t, l), perLayer())
			seen++
		}
	}
	if seen != len(workloads) {
		t.Errorf("%d result lines for %d workloads", seen, len(workloads))
	}
	b, err := os.ReadFile(spans)
	if err != nil {
		t.Fatal(err)
	}
	var recs []map[string]any
	if err := json.Unmarshal(b, &recs); err != nil {
		t.Fatalf("spans file: %v", err)
	}
	layers := map[string]bool{}
	for _, r := range recs {
		layers[r["layer"].(string)] = true
		if r["sim_end_ns"].(float64) < r["sim_start_ns"].(float64) {
			t.Fatalf("span %v ends before it starts", r["id"])
		}
	}
	for _, l := range []string{"sched", "volume", "cache", "rfs", "ispvol"} {
		if !layers[l] {
			t.Errorf("no span against layer %s", l)
		}
	}
}

// TestIsolation checks at smoke size what the workloads promise about
// which layers they touch.
func TestIsolation(t *testing.T) {
	runs, err := smokeRuns()
	if err != nil {
		t.Fatal(err)
	}
	layer := map[string]map[string]float64{}
	ops := map[string]float64{}
	for name, res := range runs {
		layer[name], ops[name] = res.PerLayer, float64(res.Ops)
	}
	if v := layer["local-read"]["fabric.segs_moved"]; v != 0 {
		t.Errorf("local-read moved %v fabric segments", v)
	}
	if v := layer["remote-read"]["fabric.segs_moved"]; v == 0 {
		t.Errorf("remote-read moved no fabric segments")
	}
	for name, m := range layer {
		if hits := m["cache.hits"]; (hits > 0) != (name == "cache-hotcold") {
			t.Errorf("%s: cache.hits = %v", name, hits)
		}
	}
	if v := layer["volume-churn"]["volume.gc_moves"]; v == 0 {
		t.Errorf("volume-churn: garbage collection moved nothing")
	}
	up := func(w string) float64 { return layer[w]["hostif.pages_up"] / ops[w] }
	if up("file-scan") > up("local-read")/2 {
		t.Errorf("hostif.pages_up per op: file-scan %v, local-read %v", up("file-scan"), up("local-read"))
	}
}

// TestDeterminism: the same seed twice in one process gives identical
// simulated metrics, event counts, layer counters and digest; another
// seed gives another digest.
func TestDeterminism(t *testing.T) {
	runs, err := smokeRuns()
	if err != nil {
		t.Fatal(err)
	}
	def := findWorkload("cache-hotcold")
	a := runs[def.name]
	b, err := measure(def, a.Seed, smoke, false)
	if err != nil {
		t.Fatal(err)
	}
	c, err := measure(def, a.Seed+1, smoke, false)
	if err != nil {
		t.Fatal(err)
	}
	if a.SimDigest != b.SimDigest {
		t.Errorf("same seed, digests %s and %s", a.SimDigest, b.SimDigest)
	}
	if a.SimDigest == c.SimDigest {
		t.Errorf("two seeds share digest %s", a.SimDigest)
	}
	for _, d := range endToEnd {
		if strings.HasPrefix(d.Name, "sim_") || d.Name == "events_per_op" {
			if a.EndToEnd[d.Name] != b.EndToEnd[d.Name] {
				t.Errorf("%s: %v then %v", d.Name, a.EndToEnd[d.Name], b.EndToEnd[d.Name])
			}
		}
	}
	for _, d := range counterDefs {
		if strings.HasPrefix(d.Name, "host.") || strings.HasPrefix(d.Name, "trace.") {
			continue
		}
		if a.PerLayer[d.Name] != b.PerLayer[d.Name] {
			t.Errorf("%s: %v then %v", d.Name, a.PerLayer[d.Name], b.PerLayer[d.Name])
		}
	}
}

// TestBenchmarkJSONMatchesRegistry: BENCHMARK.json is exactly what the
// registry describes, and the registry is inside the contract's limits.
func TestBenchmarkJSONMatchesRegistry(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(b) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes", len(b))
	}
	var onDisk, want any
	if err := json.Unmarshal(b, &onDisk); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := writeJSON(&buf, describe()); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(buf.Bytes(), &want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(onDisk, want) {
		t.Errorf("BENCHMARK.json differs from the registry; regenerate it with: go -C bench run . -describe > BENCHMARK.json")
	}

	d := describe()
	if n := len(d.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	if n := len(d.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	if n := len(d.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	names := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is outside the allowed alphabet", n)
		}
		if names[n] {
			t.Errorf("name %q used twice", n)
		}
		names[n] = true
	}
	for _, w := range d.Workloads {
		name(w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why is %d characters", w.Name, len(w.Why))
		}
	}
	var setup *metricDef
	for i, m := range d.EndToEnd {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) || (m.Better != higher && m.Better != lower) || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: unit %q better %q bound %v", m.Name, m.Unit, m.Better, m.Bound)
		}
		if m.Name == "setup_s" {
			setup = &d.EndToEnd[i]
		}
	}
	if setup == nil || setup.Unit != "s" || setup.Better != lower {
		t.Fatalf("setup_s: %+v", setup)
	}
	for _, m := range d.EndToEnd {
		if m.Bound > setup.Bound {
			t.Errorf("%s has a larger bound than setup_s", m.Name)
		}
	}
	for _, m := range d.PerLayer {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) || (m.Better != higher && m.Better != lower) {
			t.Errorf("%s: unit %q better %q", m.Name, m.Unit, m.Better)
		}
	}
}

// TestStampCatchesWrongBytes: the page check rejects another page's
// stamp, a version outside the allowed range, and a flipped payload
// bit wherever it lies (every 64th check compares the whole page).
func TestStampCatchesWrongBytes(t *testing.T) {
	st := &stamper{seed: 42}
	page := make([]byte, 8192)
	st.fill(page, 1, 77, 3)
	if !st.check(page, 1, 77, 0, 3) {
		t.Fatal("a good page fails")
	}
	if st.check(page, 1, 78, 0, 3) || st.check(page, 2, 77, 0, 3) {
		t.Error("another page's stamp passes")
	}
	if st.check(page, 1, 77, 4, 9) || st.check(page, 1, 77, 0, 2) {
		t.Error("a version outside its range passes")
	}
	page[5000] ^= 1
	caught := 0
	for i := 0; i < 64; i++ {
		if !st.check(page, 1, 77, 0, 3) {
			caught++
		}
	}
	if caught == 0 {
		t.Error("a flipped payload bit is never caught in 64 reads")
	}
}

// TestDroppedOpsCountAsFailed: an op the stack never completes is
// counted failed when the engine runs dry, and the command then exits
// non-zero.
func TestDroppedOpsCountAsFailed(t *testing.T) {
	eng := sim.NewEngine()
	d := newDriver(eng, "test", sim.Millisecond)
	d.newOp = func(str *stream) *op { return &op{str: str} }
	calls := 0
	d.issue = func(o *op) {
		d.begin(o, 1, opRead)
		if calls++; calls%10 == 0 {
			return // dropped: no completion ever fires
		}
		eng.After(sim.Microsecond, func() { d.done(o, 1, true) })
	}
	d.addStream(0, sched.Batch, 4, picker{}, newRNG(1))
	d.start()
	if d.runUntil(1000) {
		t.Fatal("the engine should run dry once every op of the window is dropped")
	}
	d.drain()
	if d.failed != d.attempted-d.completed || d.failed != 4 {
		t.Errorf("attempted %d completed %d failed %d", d.attempted, d.completed, d.failed)
	}
}

// TestLadderCallForgetsLastCompletion: a ladder call whose callback the
// stack drops reads as failed, not as the call before it.
func TestLadderCallForgetsLastCompletion(t *testing.T) {
	pr := newCall(sim.NewEngine())
	pr.arm()
	pr.wcb(nil)
	if !pr.ok || pr.at != 0 {
		t.Fatalf("a completed call reads ok=%v at=%v", pr.ok, pr.at)
	}
	if t0 := pr.arm(); pr.ok || pr.at >= t0 {
		t.Errorf("a call with no callback yet reads ok=%v at=%v", pr.ok, pr.at)
	}
}

// TestCompareVerdicts covers each verdict, the pairing by seed and the
// digest line.
func TestCompareVerdicts(t *testing.T) {
	// Simulated throughput differs from seed to seed by far more than
	// its paired bound; only the pairing lets -compare hold it to 2%.
	simOps := []float64{500, 560, 610, 480, 530}
	mk := func(host []float64, simScale float64, digest string) *resultFile {
		f := &resultFile{Meta: meta{Size: "full", Seconds: 10}}
		for i, h := range host {
			e := map[string]float64{}
			for _, d := range endToEnd {
				e[d.Name] = 1
			}
			e["host_ops_per_s"], e["sim_ops_per_s"] = h, simOps[i]*simScale
			f.Runs = append(f.Runs, &runResult{Workload: "local-read", Seed: uint64(i), SimDigest: digest, EndToEnd: e})
		}
		return f
	}
	dir := t.TempDir()
	write := func(name string, f *resultFile) string {
		p := filepath.Join(dir, name)
		if err := f.save(p); err != nil {
			t.Fatal(err)
		}
		return p
	}
	base := write("base.json", mk([]float64{100, 101, 99, 100, 102}, 1, "aa"))
	cases := []struct {
		next         *resultFile
		host, simOps string
		equal        string // seeds on which sim_ops_per_s is identical
		digest       string
	}{
		{mk([]float64{100, 102, 99, 101, 100}, 1, "aa"), "same", "same", "5/5", "match on all 5"},
		{mk([]float64{100, 102, 99, 101, 100}, 1.01, "bb"), "same", "same", "0/5", "DIFFER"},
		{mk([]float64{60, 61, 59, 60, 62}, 1.03, "bb"), "worse", "better", "0/5", "DIFFER"},
		{mk([]float64{150, 151, 149, 150, 152}, 0.97, "aa"), "better", "worse", "0/5", "match"},
		{mk([]float64{40, 100, 160, 70, 130}, 1, "aa"), "unresolved", "same", "5/5", "match"},
	}
	for i, c := range cases {
		var out bytes.Buffer
		if err := compareFiles(&out, base, write("next.json", c.next)); err != nil {
			t.Fatal(err)
		}
		for _, l := range strings.Split(out.String(), "\n") {
			f := strings.Fields(l)
			switch {
			case len(f) > 0 && f[0] == "host_ops_per_s" && f[len(f)-1] != c.host:
				t.Errorf("case %d: host_ops_per_s verdict %s, want %s", i, f[len(f)-1], c.host)
			case len(f) > 0 && f[0] == "sim_ops_per_s" && (f[len(f)-1] != c.simOps || f[len(f)-2] != c.equal):
				t.Errorf("case %d: sim_ops_per_s verdict %s with %s equal, want %s with %s", i, f[len(f)-1], f[len(f)-2], c.simOps, c.equal)
			case len(f) > 0 && f[0] == "sim_digest:" && !strings.Contains(l, c.digest):
				t.Errorf("case %d: digest line %q, want %q", i, l, c.digest)
			}
		}
	}

	// Files that measured different work, or no seed in common, do not compare.
	short := mk([]float64{100}, 1, "aa")
	short.Meta.Seconds = 5
	if err := compareFiles(io.Discard, base, write("short.json", short)); err == nil {
		t.Error("files of different -seconds compare")
	}
	other := mk([]float64{100}, 1, "aa")
	other.Runs[0].Seed = 99
	if err := compareFiles(io.Discard, base, write("other.json", other)); err == nil {
		t.Error("files with no seed in common compare")
	}
}

// TestREADMEMatchesRegistry: the README's table of end-to-end metrics
// carries the registry's units, directions and both bounds.
func TestREADMEMatchesRegistry(t *testing.T) {
	b, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range endToEnd {
		row := fmt.Sprintf("| `%s` | %s | %s | %.0f%% | %.0f%% |", d.Name, d.Unit, d.Better, 100*d.Bound, 100*d.Paired)
		if !strings.Contains(string(b), row) {
			t.Errorf("README.md has no row %q", row)
		}
	}
}

// TestDriverAllocatesNothingPerOp: with tracing off the driver's own
// issue/complete path — span hooks included — allocates nothing, so
// allocs_per_op counts the program's allocations only.
func TestDriverAllocatesNothingPerOp(t *testing.T) {
	eng := sim.NewEngine()
	d := newDriver(eng, "test", sim.Millisecond)
	d.newOp = func(str *stream) *op {
		o := &op{str: str}
		o.again = func() { d.done(o, 1, true) }
		return o
	}
	d.issue = func(o *op) {
		d.begin(o, 1, opRead)
		eng.After(sim.Microsecond, o.again)
	}
	d.addStream(0, sched.Batch, 8, picker{}, newRNG(1))
	d.addProbe(0, picker{}, newRNG(2))
	d.start()
	d.measuring = true
	d.runUntil(5000) // grow the engine's pool, the probe free list and the latency slice
	next := d.completed
	if a := testing.AllocsPerRun(20, func() {
		next += 1000
		d.runUntil(next)
	}); a != 0 {
		t.Errorf("%v allocations per 1000 ops", a)
	}
}
