package sim

import (
	"fmt"
	"math"
	"sort"
)

// Finite clamps NaN and ±Inf to 0. Every float a layer exports into a
// stats snapshot passes through it: a window with zero completions must
// yield zeros, never NaN — NaN does not round-trip through
// encoding/json, so one poisoned field would make the whole
// BENCH_*.json emission fail.
func Finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// Tally accumulates scalar samples (latencies, sizes) and reports
// count/mean/min/max and percentiles. It keeps all samples; BlueDBM
// experiments record at most a few million. Non-finite samples are
// rejected at Add (and counted via Dropped): one NaN would poison the
// mean and make the percentile sort order undefined, and those values
// flow straight into committed BENCH_*.json artifacts.
type Tally struct {
	name    string
	samples []float64
	sum     float64
	min     float64
	max     float64
	sorted  bool
}

// NewTally creates an empty tally.
func NewTally(name string) *Tally {
	return &Tally{name: name, min: math.Inf(1), max: math.Inf(-1)}
}

// Add records one sample. NaN and ±Inf are dropped.
func (t *Tally) Add(v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return
	}
	t.samples = append(t.samples, v)
	t.sum += v
	if v < t.min {
		t.min = v
	}
	if v > t.max {
		t.max = v
	}
	t.sorted = false
}

// AddTime records a virtual duration in microseconds.
func (t *Tally) AddTime(d Time) { t.Add(d.Micros()) }

// Count returns the number of samples.
func (t *Tally) Count() int { return len(t.samples) }

// Mean returns the sample mean, or 0 with no samples.
func (t *Tally) Mean() float64 {
	if len(t.samples) == 0 {
		return 0
	}
	return t.sum / float64(len(t.samples))
}

// Min returns the smallest sample, or 0 with no samples.
func (t *Tally) Min() float64 {
	if len(t.samples) == 0 {
		return 0
	}
	return t.min
}

// Max returns the largest sample, or 0 with no samples.
func (t *Tally) Max() float64 {
	if len(t.samples) == 0 {
		return 0
	}
	return t.max
}

// Percentile returns the p-th percentile by nearest-rank, or 0 with
// no samples. p is clamped to [0,100]; a NaN p yields 0 rather than
// an arbitrary rank (int(NaN) is platform-defined garbage).
func (t *Tally) Percentile(p float64) float64 {
	if len(t.samples) == 0 || math.IsNaN(p) {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p > 100 {
		p = 100
	}
	if !t.sorted {
		sort.Float64s(t.samples)
		t.sorted = true
	}
	rank := int(math.Ceil(p / 100 * float64(len(t.samples))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(t.samples) {
		rank = len(t.samples)
	}
	return t.samples[rank-1]
}

func (t *Tally) String() string {
	return fmt.Sprintf("%s: n=%d mean=%.2f min=%.2f p50=%.2f p99=%.2f max=%.2f",
		t.name, t.Count(), t.Mean(), t.Min(), t.Percentile(50), t.Percentile(99), t.Max())
}

// Counter is a simple monotonically increasing event counter.
type Counter struct {
	n int64
}

// Inc adds one.
func (c *Counter) Inc() { c.n++ }

// Add adds delta.
func (c *Counter) Add(delta int64) { c.n += delta }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.n }
