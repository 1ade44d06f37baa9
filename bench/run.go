package main

// One measured run of one workload: set up, warm up, measure a window
// of a fixed number of page ops in equal segments, drain, and turn the
// two edges of the window into metrics.

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"
)

// sizing is what a workload's builder sizes itself from.
type sizing struct {
	smoke   bool
	seconds int
	short   bool // a quarter of the window: the traced run's untraced reference
}

// instance is a built, seeded stack with its streams ready to start.
type instance struct {
	d      *driver
	st     *stack
	warm   int64 // page ops completed before the window opens
	window int64 // page ops measured
}

// workloadDef is one of the five workloads.
type workloadDef struct {
	name  string
	why   string
	build func(seed uint64, sz sizing) (*instance, error)
}

const (
	fullSegments  = 10
	smokeSegments = 5
)

// runResult is everything one run measured.
type runResult struct {
	Workload  string             `json:"workload"`
	Seed      uint64             `json:"seed"`
	Traced    bool               `json:"traced"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Ops       int64              `json:"ops"`
	SimDigest string             `json:"sim_digest"`
	EndToEnd  map[string]float64 `json:"end_to_end"`
	PerLayer  map[string]float64 `json:"per_layer"`
	// Samples behind the two statistics that have them.
	Segments     int     `json:"segments"`
	HostOpsQ1    float64 `json:"host_ops_per_s_q1"`
	HostOpsQ3    float64 `json:"host_ops_per_s_q3"`
	ProbeSamples int     `json:"probe_samples"`
	// The window on both host clocks: CPU time well under wall time
	// means the machine was taken away while the run was measured.
	WindowWallS float64 `json:"window_wall_s"`
	WindowCPUS  float64 `json:"window_cpu_s"`

	spans spanSet
}

// setUp builds the workload's stack and runs its warm-up; the CPU
// time of exactly this is setup_s.
func setUp(def *workloadDef, seed uint64, sz sizing, traced bool) (*instance, float64, error) {
	t := cpuTime()
	inst, err := def.build(seed, sz)
	if err != nil {
		return nil, 0, fmt.Errorf("%s: build: %w", def.name, err)
	}
	if traced {
		inst.d.rec = &recorder{spans: make([]span, 0, inst.warm+inst.window+1024)}
	}
	inst.d.start()
	if !inst.d.runUntil(inst.warm) {
		return nil, 0, fmt.Errorf("%s: engine ran dry during warm-up at %d of %d ops", def.name, inst.d.completed, inst.warm)
	}
	return inst, (cpuTime() - t).Seconds(), nil
}

// measure runs one workload once.
func measure(def *workloadDef, seed uint64, sz sizing, traced bool) (*runResult, error) {
	inst, setupS, err := setUp(def, seed, sz, traced)
	if err != nil {
		return nil, err
	}
	d, st := inst.d, inst.st

	segments := fullSegments
	if sz.smoke {
		segments = smokeSegments
	}
	segOps := inst.window / int64(segments)

	runtime.GC() // start the window from a collected heap, not from set-up's garbage
	st.s.ResetStats()
	var m0, m1, m2 runtime.MemStats
	runtime.ReadMemStats(&m0)
	e0 := st.read()
	base := d.completed
	d.measuring = true
	rates := make([]float64, 0, segments)
	t0, c0 := time.Now(), cpuTime()
	prevC, prevOps := c0, base
	for k := 1; k <= segments; k++ {
		if !d.runUntil(base + int64(k)*segOps) {
			return nil, fmt.Errorf("%s: engine ran dry in the window at %d ops", def.name, d.completed-base)
		}
		now := cpuTime()
		rates = append(rates, float64(d.completed-prevOps)/(now-prevC).Seconds())
		prevC, prevOps = now, d.completed
	}
	wall, cpu := time.Since(t0).Seconds(), (cpuTime() - c0).Seconds()
	d.measuring = false
	e1 := st.read()
	runtime.ReadMemStats(&m1)
	ops := d.completed - base

	layer := st.layerCounters(e0, e1)
	d.drain()
	runtime.GC()
	runtime.ReadMemStats(&m2)
	runtime.KeepAlive(inst)

	sort.Float64s(rates)
	sort.Slice(d.lat, func(i, j int) bool { return d.lat[i] < d.lat[j] })
	fops := float64(ops)
	writeAmp := 1.0 // a window that writes nothing amplifies nothing
	if hw := e1.hostWrites - e0.hostWrites; hw > 0 {
		writeAmp = float64(e1.nandPrograms-e0.nandPrograms) / float64(hw)
	}
	res := &runResult{
		Workload:  def.name,
		Seed:      seed,
		Traced:    traced,
		Attempted: d.attempted,
		Failed:    d.failed,
		Ops:       ops,
		SimDigest: d.digestHex(),
		EndToEnd: map[string]float64{
			"host_ops_per_s":     quantile(rates, 0.5),
			"events_per_op":      float64(e1.eng.Fired-e0.eng.Fired) / fops,
			"allocs_per_op":      float64(m1.Mallocs-m0.Mallocs) / fops,
			"alloc_bytes_per_op": float64(m1.TotalAlloc-m0.TotalAlloc) / fops,
			"live_heap_mb":       float64(m2.HeapAlloc) / (1 << 20),
			"setup_s":            setupS,
			"sim_ops_per_s":      fops / (e1.now - e0.now).Seconds(),
			"sim_rt_p50_us":      rank(d.lat, 0.50) / 1e3,
			"sim_rt_p99_us":      rank(d.lat, 0.99) / 1e3,
			"sim_rt_p999_us":     rank(d.lat, 0.999) / 1e3,
			"sim_write_amp":      writeAmp,
		},
		PerLayer:     layer,
		Segments:     segments,
		HostOpsQ1:    quantile(rates, 0.25),
		HostOpsQ3:    quantile(rates, 0.75),
		ProbeSamples: len(d.lat),
		WindowWallS:  wall,
		WindowCPUS:   cpu,
	}
	layer["host.wall_s"], layer["host.cpu_s"] = wall, cpu
	layer["host.gc_cycles"] = float64(m1.NumGC - m0.NumGC)
	if d.rec != nil {
		res.spans = spanSet{def.name, d.layer, d.rec.spans}
	}
	for name, v := range res.EndToEnd {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("%s: %s is %v", def.name, name, v)
		}
	}
	return res, nil
}

// quantile interpolates linearly in a sorted sample.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	f := pos - float64(lo)
	return sorted[lo]*(1-f) + sorted[lo+1]*f
}

// rank is the nearest-rank percentile of sorted integer samples.
func rank(sorted []int64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return float64(sorted[i])
}
