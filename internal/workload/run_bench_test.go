package workload

import (
	"testing"

	"repro/internal/sched"
)

// BenchmarkRun drives one closed-loop stream of b.N requests at depth 8
// through the one driver: a physical Mixed stream over the seeded
// linear read region (RunClosedLoop) and a volume stream of 30%
// overwrites (Stack.Run). events/op is engine events per request.
func BenchmarkRun(b *testing.B) {
	spec := testSpec()
	spec.Params.Reliability.GuardImages = false // benchmarks run unguarded
	measure := func(b *testing.B, st *Stack, run func() (LoopResult, error)) {
		b.ReportAllocs()
		b.ResetTimer()
		fired := st.C.Eng.Fired()
		loop, err := run()
		if err != nil || loop.Errors != 0 || loop.Completed != int64(b.N) {
			b.Fatalf("%+v, %v", loop, err)
		}
		b.ReportMetric(float64(st.C.Eng.Fired()-fired)/float64(b.N), "events/op")
	}
	b.Run("physical", func(b *testing.B) {
		st, err := Build(spec)
		if err == nil {
			err = st.SeedLinear(64, RandomPages(1))
		}
		if err != nil {
			b.Fatal(err)
		}
		specs := []StreamSpec{{Name: "phys", Node: 0, Target: -1, Class: sched.Batch, Pattern: Mixed, Seed: 1}}
		measure(b, st, func() (LoopResult, error) { return RunClosedLoop(st.S, st.C, specs, 64, 8, b.N) })
	})
	b.Run("volume", func(b *testing.B) {
		st, err := Build(withVolume(spec))
		if err == nil {
			err = st.Seed(RandomPages(1))
		}
		if err != nil {
			b.Fatal(err)
		}
		rw, err := st.Stream("vol", 0, sched.Batch)
		if err != nil {
			b.Fatal(err)
		}
		specs := []ClientSpec{{Name: "vol", RW: rw, Pick: PickUniform(st.V.Pages(), 0.3), Seed: 1}}
		measure(b, st, func() (LoopResult, error) {
			res, err := st.Run(specs, 8, b.N, nil)
			return res.Loop, err
		})
	})
}
