package sim

import (
	"math"
	"testing"
)

// TestTallyEmptyExportsZeros: a tally with zero samples (a stream
// that never completed anything) must export zeros everywhere, never
// NaN or infinities that would poison a JSON metrics artifact.
func TestTallyEmptyExportsZeros(t *testing.T) {
	ta := NewTally("empty")
	for name, v := range map[string]float64{
		"mean": ta.Mean(),
		"min":  ta.Min(),
		"max":  ta.Max(),
		"p0":   ta.Percentile(0),
		"p50":  ta.Percentile(50),
		"p99":  ta.Percentile(99),
		"p100": ta.Percentile(100),
	} {
		if v != 0 {
			t.Fatalf("%s of empty tally = %v, want 0", name, v)
		}
	}
}

// TestTallyRejectsNonFinite: NaN/Inf samples are dropped instead of
// poisoning the mean and the percentile sort.
func TestTallyRejectsNonFinite(t *testing.T) {
	ta := NewTally("guarded")
	ta.Add(1)
	ta.Add(math.NaN())
	ta.Add(math.Inf(1))
	ta.Add(math.Inf(-1))
	ta.Add(3)
	if ta.Count() != 2 {
		t.Fatalf("count = %d, want 2", ta.Count())
	}
	if got := ta.Mean(); got != 2 {
		t.Fatalf("mean = %v, want 2", got)
	}
	if got := ta.Percentile(99); got != 3 {
		t.Fatalf("p99 = %v, want 3", got)
	}
}

// TestTallyPercentileDegenerateP: NaN and out-of-range percentile
// arguments cannot index arbitrary ranks.
func TestTallyPercentileDegenerateP(t *testing.T) {
	ta := NewTally("p")
	for i := 1; i <= 10; i++ {
		ta.Add(float64(i))
	}
	if got := ta.Percentile(math.NaN()); got != 0 {
		t.Fatalf("percentile(NaN) = %v, want 0", got)
	}
	if got := ta.Percentile(-5); got != 1 {
		t.Fatalf("percentile(-5) = %v, want clamp to min sample 1", got)
	}
	if got := ta.Percentile(250); got != 10 {
		t.Fatalf("percentile(250) = %v, want clamp to max sample 10", got)
	}
}
