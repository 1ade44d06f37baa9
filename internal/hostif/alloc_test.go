package hostif_test

import (
	"testing"

	"repro/internal/alloctest"
	"repro/internal/hostif"
	"repro/internal/sim"
)

// newHost is a host interface with the default configuration.
func newHost(tb testing.TB) (*sim.Engine, *hostif.HostIf) {
	tb.Helper()
	eng := sim.NewEngine()
	h, err := hostif.New(eng, "n0", hostif.DefaultConfig())
	if err != nil {
		tb.Fatal(err)
	}
	return eng, h
}

func done() {}

// TestPageUpAllocatesNothing: a warm PageUp — buffer grant, DMA,
// interrupt, release — makes no allocation, whether its buffer is free
// at once or it waits for one. Every continuation is bound when the
// interface is built, and the waiters' FIFOs keep their backing arrays.
// (This test sits outside the package because coretest imports core,
// which imports hostif.)
func TestPageUpAllocatesNothing(t *testing.T) {
	eng, h := newHost(t)
	burst := 2 * h.Config().ReadBuffers // half of them wait for a buffer
	round := func() {
		for range burst {
			h.PageUp(8192, done)
		}
		eng.Run()
	}
	round()
	if a := alloctest.Mallocs(4, round); a != 0 {
		t.Fatalf("4 rounds of %d PageUps make %d allocations, want 0", burst, a)
	}
}

// BenchmarkPageUp times one page into host memory through an idle host
// interface: grant, DMA train, interrupt and release.
func BenchmarkPageUp(b *testing.B) {
	eng, h := newHost(b)
	h.PageUp(8192, done) // grow the FIFOs once
	eng.Run()
	b.ReportAllocs()
	fired := eng.Fired()
	for b.Loop() {
		h.PageUp(8192, done)
		eng.Run()
	}
	b.ReportMetric(float64(eng.Fired()-fired)/float64(b.N), "events/op")
}
