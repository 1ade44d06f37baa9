package volume

import (
	"testing"

	"repro/internal/sched"
	"repro/internal/sim"
)

// BenchmarkVolumeWrite is the cost of one logical write at the top of
// the stack — volume, FTL, sequencer, scheduler, doorbell, host DMA,
// flash server, controller, card — in steady-state GC, one write at a
// time: ns/op is host time, B/op and allocs/op the heap traffic (the
// write's 8 KiB image is the floor: each GC move programs back the
// image its read delivered, which costs nothing), programs/op how many
// programs a write cost, events/op the engine events. Run with -benchmem.
func BenchmarkVolumeWrite(b *testing.B) {
	c, _, v := ownershipVolume(b, sched.DefaultConfig())
	st, err := v.NewStream("w", sched.Batch)
	if err != nil {
		b.Fatal(err)
	}
	churnVolume(b, c, st, 2, 8) // into steady-state GC, pools warm
	pages := v.Pages()
	buf := ownPage(v.PageSize(), 1)
	rng := sim.NewRNG(9)
	ack := func(err error) {
		if err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(v.PageSize()))
	b.ReportAllocs()
	before, fired := v.Stats(), c.Eng.Fired()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.Write(rng.Intn(pages), buf, ack)
		c.Run()
	}
	b.StopTimer()
	d := v.Stats().Delta(before)
	b.ReportMetric(float64(d.FlashPrograms)/float64(b.N), "programs/op")
	b.ReportMetric(float64(c.Eng.Fired()-fired)/float64(b.N), "events/op")
}
