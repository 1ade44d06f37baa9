package sim

import (
	"math"
	"slices"
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

// Latency summarises recorded latencies in virtual microseconds: the
// shape every artifact reports them in.
type Latency struct {
	MeanUs float64 `json:"mean_us"`
	P50Us  float64 `json:"p50_us"`
	P99Us  float64 `json:"p99_us"`
	MaxUs  float64 `json:"max_us"`
}

// Hist records virtual-time latencies and reports them by nearest
// rank. It keeps every sample; Reset keeps the buffer, so a recorder
// that has seen a window once records the next one without
// allocating. The zero value is empty and ready.
type Hist struct {
	samples []Time
	sumUs   float64 // float sum of each sample's µs, in Add order
	sorted  bool
}

// Add records one latency.
func (h *Hist) Add(d Time) {
	h.samples = append(h.samples, d)
	h.sumUs += d.Micros()
	h.sorted = false
}

// Merge records every sample of o. The mean takes o's running sum, so
// it does not depend on whether either recorder was queried first.
func (h *Hist) Merge(o *Hist) {
	h.samples = append(h.samples, o.samples...)
	h.sumUs += o.sumUs
	h.sorted = false
}

// Reset empties the recorder and keeps its buffer.
func (h *Hist) Reset() { *h = Hist{samples: h.samples[:0]} }

// Count returns the number of samples.
func (h *Hist) Count() int { return len(h.samples) }

// Mean returns the mean latency in µs, or 0 with no samples.
func (h *Hist) Mean() float64 {
	if len(h.samples) == 0 {
		return 0
	}
	return h.sumUs / float64(len(h.samples))
}

// Quantile returns the q-quantile by nearest rank: the smallest sample
// with at least a fraction q of the samples at or below it. q is
// clamped to [0,1], a NaN q yields 0 (int(NaN) is platform-defined
// garbage), and so does an empty recorder.
func (h *Hist) Quantile(q float64) Time {
	n := len(h.samples)
	if n == 0 || math.IsNaN(q) {
		return 0
	}
	if !h.sorted {
		slices.Sort(h.samples)
		h.sorted = true
	}
	rank := int(math.Ceil(min(max(q, 0), 1) * float64(n)))
	return h.samples[max(rank, 1)-1]
}

// Summary reports the mean, median, 99th percentile and maximum.
func (h *Hist) Summary() Latency {
	return Latency{
		MeanUs: h.Mean(),
		P50Us:  h.Quantile(0.50).Micros(),
		P99Us:  h.Quantile(0.99).Micros(),
		MaxUs:  h.Quantile(1).Micros(),
	}
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
