package sim

import (
	"math"
	"math/bits"
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

// Hist records virtual-time latencies in log-linear buckets, after
// HdrHistogram (Tene) and DDSketch (Masson et al., VLDB'19), and
// reports them by nearest rank. A latency below 2^(histM+1) ns has a
// bucket of its own; above that, each power of two splits into
// 2^histM buckets, so a reported quantile is the low edge of the
// bucket the nearest-rank sample falls in, below it by less than
// 2^−histM of its value. The count, the maximum (Quantile(1)) and the
// mean are exact. The buckets are an inline array, so Add and Merge
// allocate nothing and a recorder's size does not depend on how many
// samples it holds; a bucket counts up to 2^32−1 samples. The zero
// value is empty and ready; assigning it empties a recorder.
type Hist struct {
	counts [histBuckets]uint32
	n      int
	max    Time
	sumUs  float64 // float sum of each sample's µs, in Add order
}

// histM = 9 (exact below 1 024 ns, within 0.2% above) is the coarsest
// resolution at which no ratio the experiments print as a headline
// moves a digit from what exact nearest rank gave; 2^−7 moved three.
const (
	histM       = 9
	histBuckets = (64 - histM) << histM // every non-negative Time: 28 160 buckets, 110 KiB
)

// histBucket returns the bucket of d; a negative d counts as 0.
func histBucket(d Time) int {
	v := uint64(max(d, 0))
	shift := max(bits.Len64(v)-1-histM, 0)
	return shift<<histM + int(v>>shift)
}

// histLow returns the smallest latency in bucket i.
func histLow(i int) Time {
	shift := max(i>>histM-1, 0)
	return Time(i-shift<<histM) << shift
}

// Add records one latency.
func (h *Hist) Add(d Time) {
	h.counts[histBucket(d)]++
	h.n++
	h.max = max(h.max, d)
	h.sumUs += d.Micros()
}

// Merge records every sample of o. The mean adds o's running sum.
func (h *Hist) Merge(o *Hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.max = max(h.max, o.max)
	h.n += o.n
	h.sumUs += o.sumUs
}

// Count returns the number of samples.
func (h *Hist) Count() int { return h.n }

// Mean returns the mean latency in µs, or 0 with no samples.
func (h *Hist) Mean() float64 {
	if h.n == 0 {
		return 0
	}
	return h.sumUs / float64(h.n)
}

// Quantile returns the q-quantile by nearest rank: the smallest sample
// with at least a fraction q of the samples at or below it, reported
// as its bucket's low edge, and exactly for q = 1 (the maximum). q is
// clamped to [0,1], a NaN q yields 0 (int(NaN) is platform-defined
// garbage), and so does an empty recorder.
func (h *Hist) Quantile(q float64) Time {
	if h.n == 0 || math.IsNaN(q) {
		return 0
	}
	rank := max(int(math.Ceil(min(max(q, 0), 1)*float64(h.n))), 1)
	if rank == h.n {
		return h.max
	}
	for i, c := range h.counts {
		if rank <= int(c) {
			return histLow(i)
		}
		rank -= int(c)
	}
	return h.max // unreachable: the counts sum to n
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
