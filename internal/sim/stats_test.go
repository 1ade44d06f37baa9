package sim

import (
	"fmt"
	"math"
	"testing"
)

// refQuantile is nearest rank by brute force: the smallest sample x
// with at least max(1, ⌈q·n⌉) samples at or below it, q clamped to
// [0,1]; 0 for a NaN q or no samples.
func refQuantile(xs []Time, q float64) Time {
	if len(xs) == 0 || math.IsNaN(q) {
		return 0
	}
	need := math.Max(1, math.Ceil(math.Max(0, math.Min(1, q))*float64(len(xs))))
	best := Time(math.MaxInt64)
	for _, x := range xs {
		at := 0
		for _, y := range xs {
			if y <= x {
				at++
			}
		}
		if float64(at) >= need && x < best {
			best = x
		}
	}
	return best
}

// refSum is the float sum of each sample's µs, in order.
func refSum(xs []Time) float64 {
	var sum float64
	for _, x := range xs {
		sum += x.Micros()
	}
	return sum
}

// histSamples draws n seeded latencies, every third a repeat of the
// one before it, so every n past two holds duplicates.
func histSamples(n int, seed uint64) []Time {
	rng := NewRNG(seed)
	xs := make([]Time, n)
	for i := range xs {
		if i%3 == 2 {
			xs[i] = xs[i-1]
			continue
		}
		xs[i] = Time(rng.Intn(4*n))*37*Nanosecond + Microsecond
	}
	return xs
}

// TestHistMatchesNearestRank: Hist is the one latency recorder, and
// every quantile it reports is nearest rank, checked against a brute
// force over seeded samples with duplicates, out-of-range and NaN q
// included; an empty recorder reports zeros, never NaN (which would
// poison a JSON artifact). Merging a recorder that was already queried
// (so its buffer is sorted) gives what sequential adds give, and a
// recorder that has seen a window once records the next one after
// Reset without allocating.
func TestHistMatchesNearestRank(t *testing.T) {
	qs := []float64{0, 0.1, 0.25, 0.5, 0.99, 0.999, 1, -1, 2, math.Inf(-1), math.Inf(1), math.NaN()}
	for _, n := range []int{0, 1, 2, 7, 1001} {
		xs := histSamples(n, uint64(n)+1)
		t.Run(fmt.Sprint("n=", n), func(t *testing.T) {
			var h Hist
			for _, x := range xs {
				h.Add(x)
			}
			if h.Count() != n {
				t.Fatalf("count %d, want %d", h.Count(), n)
			}
			for _, q := range qs {
				if got, want := h.Quantile(q), refQuantile(xs, q); got != want {
					t.Errorf("Quantile(%v) = %v, want %v", q, got, want)
				}
			}
			want := Latency{
				MeanUs: refSum(xs) / float64(max(n, 1)),
				P50Us:  refQuantile(xs, 0.5).Micros(),
				P99Us:  refQuantile(xs, 0.99).Micros(),
				MaxUs:  refQuantile(xs, 1).Micros(),
			}
			if got := h.Summary(); got != want {
				t.Errorf("Summary() = %+v, want %+v", got, want)
			}

			// Merge: the mean takes the other recorder's running sum,
			// so it is the first half's sum plus the second's, each in
			// Add order, whether or not the second was queried (and so
			// sorted) before the merge.
			merge := func(query bool) Latency {
				var a, b Hist
				for i, x := range xs {
					if i < n/2 {
						a.Add(x)
					} else {
						b.Add(x)
					}
				}
				if query {
					b.Quantile(0.5)
				}
				a.Merge(&b)
				return a.Summary()
			}
			mergedWant := want
			mergedWant.MeanUs = (refSum(xs[:n/2]) + refSum(xs[n/2:])) / float64(max(n, 1))
			for _, query := range []bool{false, true} {
				if got := merge(query); got != mergedWant {
					t.Errorf("Merge (other recorder queried first: %v): Summary() = %+v, want %+v", query, got, mergedWant)
				}
			}

			h.Reset()
			if h.Count() != 0 || h.Summary() != (Latency{}) {
				t.Fatalf("after Reset: count %d, summary %+v", h.Count(), h.Summary())
			}
			if allocs := testing.AllocsPerRun(10, func() {
				h.Reset()
				for _, x := range xs {
					h.Add(x)
				}
				if h.Summary() != want {
					t.Error("a window after Reset summarises differently")
				}
			}); allocs != 0 {
				t.Errorf("a window after Reset makes %.1f allocations, want 0", allocs)
			}
		})
	}
}

// TestTallyStats: the latency tally reports count, mean, median and
// maximum, and adding after a quantile query (which sorts the buffer)
// still works.
func TestTallyStats(t *testing.T) {
	var h Hist
	for _, v := range []Time{5, 1, 3, 2, 4} {
		h.Add(v * Microsecond)
	}
	if h.Count() != 5 || h.Mean() != 3 || h.Quantile(0) != Microsecond || h.Quantile(1) != 5*Microsecond {
		t.Fatalf("tally stats wrong: count %d, summary %+v", h.Count(), h.Summary())
	}
	if p := h.Quantile(0.5); p != 3*Microsecond {
		t.Fatalf("p50 = %v, want 3µs", p)
	}
	// Adding after a quantile query must still work.
	h.Add(10 * Microsecond)
	if h.Count() != 6 || h.Quantile(1) != 10*Microsecond || h.Summary().MaxUs != 10 {
		t.Fatal("tally broken after post-sort insert")
	}
}

// TestTallyEmptyExportsZeros: a tally with zero samples (a stream
// that never completed anything) must export zeros everywhere, never
// NaN or infinities that would poison a JSON metrics artifact.
func TestTallyEmptyExportsZeros(t *testing.T) {
	var h Hist
	s := h.Summary()
	for name, v := range map[string]float64{
		"mean":         h.Mean(),
		"p0":           h.Quantile(0).Micros(),
		"p50":          h.Quantile(0.5).Micros(),
		"p99":          h.Quantile(0.99).Micros(),
		"p100":         h.Quantile(1).Micros(),
		"summary mean": s.MeanUs,
		"summary p50":  s.P50Us,
		"summary p99":  s.P99Us,
		"summary max":  s.MaxUs,
	} {
		if v != 0 {
			t.Fatalf("%s of empty tally = %v, want 0", name, v)
		}
	}
}

// TestTallyPercentileDegenerateP: NaN and out-of-range quantile
// arguments cannot index arbitrary ranks.
func TestTallyPercentileDegenerateP(t *testing.T) {
	var h Hist
	for i := Time(1); i <= 10; i++ {
		h.Add(i * Microsecond)
	}
	if got := h.Quantile(math.NaN()); got != 0 {
		t.Fatalf("Quantile(NaN) = %v, want 0", got)
	}
	if got := h.Quantile(-0.05); got != Microsecond {
		t.Fatalf("Quantile(-0.05) = %v, want clamp to min sample 1µs", got)
	}
	if got := h.Quantile(2.5); got != 10*Microsecond {
		t.Fatalf("Quantile(2.5) = %v, want clamp to max sample 10µs", got)
	}
}
