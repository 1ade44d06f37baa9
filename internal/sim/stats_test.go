package sim

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"repro/internal/alloctest"
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

// nearRank reports whether got is a reported quantile of the
// nearest-rank sample want: want itself below 2^(histM+1) ns, and
// above that at most want and below it by less than 2^−histM of want.
func nearRank(got, want Time) bool {
	return got == want || got < want && want-got < want>>histM
}

// histSamples draws n seeded latencies, every third a repeat of the
// one before it, so every n past two holds duplicates, every fifth
// below 2^(histM+1) ns, where a bucket holds one value, and every
// seventh anywhere in the range of Time.
func histSamples(n int, seed uint64) []Time {
	rng := NewRNG(seed)
	xs := make([]Time, n)
	for i := range xs {
		switch {
		case i%3 == 2:
			xs[i] = xs[i-1]
		case i%5 == 4:
			xs[i] = Time(rng.Intn(2 << histM))
		case i%7 == 6:
			xs[i] = Time(rng.Uint64() >> (1 + rng.Intn(63)))
		default:
			xs[i] = Time(rng.Intn(4*n))*37*Nanosecond + Microsecond
		}
	}
	return xs
}

// TestHistMatchesNearestRank: Hist is the one latency recorder, and
// every quantile it reports is nearest rank within its buckets' bound
// (nearRank), checked against a brute force over seeded samples with
// duplicates, out-of-range and NaN q included; the count, the mean and
// the maximum are exact. An empty recorder reports zeros, never NaN
// (which would poison a JSON artifact). Merging two recorders gives
// the buckets and quantiles that adding every sample to one gives.
// Add and Merge allocate nothing, and neither does emptying a
// recorder (assigning the zero value) or a fresh recorder's first Add.
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
				if got, want := h.Quantile(q), refQuantile(xs, q); !nearRank(got, want) {
					t.Errorf("Quantile(%v) = %v, want %v within 2^-%d", q, got, want, histM)
				}
			}
			if got, want := h.Quantile(1), refQuantile(xs, 1); got != want {
				t.Errorf("Quantile(1) = %v, want the maximum %v exactly", got, want)
			}
			want := Latency{
				MeanUs: refSum(xs) / float64(max(n, 1)),
				P50Us:  h.Quantile(0.5).Micros(),
				P99Us:  h.Quantile(0.99).Micros(),
				MaxUs:  refQuantile(xs, 1).Micros(),
			}
			if got := h.Summary(); got != want {
				t.Errorf("Summary() = %+v, want %+v", got, want)
			}

			// Merge: the buckets, count and maximum are those of one
			// recorder fed every sample, and the mean takes the other
			// recorder's running sum, so it is the first half's sum
			// plus the second's, each in Add order, whether or not the
			// second was queried before the merge.
			mergedWant := want
			mergedWant.MeanUs = (refSum(xs[:n/2]) + refSum(xs[n/2:])) / float64(max(n, 1))
			for _, query := range []bool{false, true} {
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
				if a.counts != h.counts || a.Count() != n || a.max != h.max {
					t.Errorf("Merge (other recorder queried first: %v): buckets, count or maximum differ from adding every sample", query)
				}
				if got := a.Summary(); got != mergedWant {
					t.Errorf("Merge (other recorder queried first: %v): Summary() = %+v, want %+v", query, got, mergedWant)
				}
			}

			h = Hist{}
			if h.Count() != 0 || h.Summary() != (Latency{}) {
				t.Fatalf("emptied: count %d, summary %+v", h.Count(), h.Summary())
			}
			var other Hist
			for _, x := range xs {
				other.Add(x)
			}
			if allocs := alloctest.Mallocs(10, func() {
				h = Hist{}
				for _, x := range xs {
					h.Add(x)
				}
				h.Merge(&other)
				if h.Count() != 2*n {
					t.Error("an emptied recorder counts differently")
				}
			}); allocs != 0 {
				t.Errorf("emptying, Add and Merge 10 times make %d allocations, want 0", allocs)
			}
			fresh, i := make([]Hist, 10), 0
			if allocs := alloctest.Mallocs(len(fresh), func() {
				fresh[i%len(fresh)] = Hist{}
				fresh[i%len(fresh)].Add(Microsecond)
				i++
			}); allocs != 0 {
				t.Errorf("10 fresh recorders' first Adds make %d allocations, want 0", allocs)
			}
		})
	}
}

// TestHistBucketsCoverEveryTime: every non-negative Time, from 0 to
// MaxInt64, falls in a bucket whose low edge is within the bound of
// it, and the bucket index never falls as the latency grows, so
// walking the buckets in order walks the samples in order.
func TestHistBucketsCoverEveryTime(t *testing.T) {
	prev := -1
	for e := 0; e < 63; e++ {
		for _, v := range []Time{1<<e - 1, 1 << e, 1<<e + 1<<e/3, 1<<e + 1<<e - 1} {
			i := histBucket(v)
			if i < prev || i >= histBuckets {
				t.Fatalf("%d ns: bucket %d after %d, of %d", v, i, prev, histBuckets)
			}
			if low := histLow(i); !nearRank(low, v) || histBucket(low) != i {
				t.Fatalf("%d ns: bucket %d reports %d ns", v, i, low)
			}
			prev = i
		}
	}
	if i := histBucket(math.MaxInt64); i != histBuckets-1 {
		t.Fatalf("MaxInt64 falls in bucket %d, want the last, %d", i, histBuckets-1)
	}
}

// TestHistHeapIsBounded: a recorder's storage does not depend on how
// many samples it holds. A million Adds, spread over every power of
// two a Time can take, allocate nothing (a recorder that kept every
// sample would take at least 8 MB).
func TestHistHeapIsBounded(t *testing.T) {
	h := new(Hist)
	rng := NewRNG(1)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < 1_000_000; i++ {
		h.Add(Time(rng.Uint64() >> (1 + i%63)))
	}
	runtime.ReadMemStats(&m1)
	if grew := m1.TotalAlloc - m0.TotalAlloc; grew != 0 {
		t.Fatalf("a million Adds allocate %d B, want 0", grew)
	}
	if h.Count() != 1_000_000 {
		t.Fatalf("count %d", h.Count())
	}
}

// TestTallyStats: the recorder reports count, mean, median and
// maximum, and adding after a quantile query still works. The median
// is within the buckets' bound (nearRank); the rest is exact.
func TestTallyStats(t *testing.T) {
	var h Hist
	for _, v := range []Time{5, 1, 3, 2, 4} {
		h.Add(v * Microsecond)
	}
	if h.Count() != 5 || h.Mean() != 3 || h.Quantile(0) != Microsecond || h.Quantile(1) != 5*Microsecond {
		t.Fatalf("tally stats wrong: count %d, summary %+v", h.Count(), h.Summary())
	}
	if p := h.Quantile(0.5); !nearRank(p, 3*Microsecond) {
		t.Fatalf("p50 = %v, want 3µs within 2^-%d", p, histM)
	}
	// Adding after a quantile query must still work.
	h.Add(10 * Microsecond)
	if h.Count() != 6 || h.Quantile(1) != 10*Microsecond || h.Summary().MaxUs != 10 {
		t.Fatal("tally broken by an Add after a query")
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
	if got := h.Quantile(-0.05); !nearRank(got, Microsecond) {
		t.Fatalf("Quantile(-0.05) = %v, want clamp to min sample 1µs", got)
	}
	if got := h.Quantile(2.5); got != 10*Microsecond {
		t.Fatalf("Quantile(2.5) = %v, want clamp to max sample 10µs", got)
	}
}
