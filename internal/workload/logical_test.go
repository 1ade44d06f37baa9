package workload

import (
	"testing"

	"repro/internal/sched"
	"repro/internal/sim"
)

// spy wraps a surface and reports every request to its hooks: issued
// when the driver hands it over, done around the driver's completion
// callback (before it runs, and after).
type spy struct {
	rw     PageRW
	issued func(write bool)
	done   func(after bool)
}

func (s spy) Read(lpn int, cb func([]byte, error)) {
	s.issued(false)
	s.rw.Read(lpn, func(d []byte, err error) { s.done(false); cb(d, err); s.done(true) })
}

func (s spy) Write(lpn int, data []byte, cb func(error)) {
	s.issued(true)
	s.rw.Write(lpn, data, func(err error) { s.done(false); cb(err); s.done(true) })
}

func volumeStream(t *testing.T, st *Stack, class sched.Class) PageRW {
	t.Helper()
	rw, err := st.Stream("t", 0, class)
	if err != nil {
		t.Fatal(err)
	}
	return rw
}

// TestRunRecordsClientLatency: the driver records issue-to-completion
// read latency per stream, and the summary is internally consistent
// (p50 <= p99 <= max, mean positive).
func TestRunRecordsClientLatency(t *testing.T) {
	st := seededVolumeStack(t)
	ws := st.V.Pages()
	specs := []ClientSpec{{
		Name: "rd", RW: volumeStream(t, st, sched.Interactive),
		Pick: PickHotCold(ws, ws/8, 0, 0), Record: true, Seed: 11,
	}}
	res, err := st.Run(specs, 4, 128, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Loop.Completed != 128 || res.Loop.Errors != 0 {
		t.Fatalf("completed/errors = %d/%d, want 128/0", res.Loop.Completed, res.Loop.Errors)
	}
	if len(res.Recorded) != 1 || res.Recorded[0].Name != "rd" {
		t.Fatalf("recorded streams: %+v", res.Recorded)
	}
	l := res.Combined
	if l.Reads != 128 {
		t.Fatalf("recorded %d reads, want 128", l.Reads)
	}
	if l.MeanUs <= 0 || l.P50Us > l.P99Us || l.P99Us > l.MaxUs {
		t.Fatalf("incoherent latency summary: %+v", l)
	}
	if res.ElapsedUs <= 0 {
		t.Fatal("no virtual time elapsed")
	}
}

// TestRunRecordCapturesReadsOnly: a recorded read/write stream
// contributes one latency sample per read and none per write.
func TestRunRecordCapturesReadsOnly(t *testing.T) {
	st := seededVolumeStack(t)
	reads, writes := 0, 0
	rw := spy{rw: volumeStream(t, st, sched.Interactive), done: func(bool) {},
		issued: func(write bool) {
			if write {
				writes++
			} else {
				reads++
			}
		}}
	res, err := st.Run([]ClientSpec{{Name: "mix", RW: rw, Pick: PickUniform(st.V.Pages(), 0.5),
		Record: true, Seed: 8}}, 2, 96, nil)
	if err != nil {
		t.Fatal(err)
	}
	if reads == 0 || writes == 0 || reads+writes != 96 {
		t.Fatalf("issued %d reads + %d writes, want a mix of 96", reads, writes)
	}
	if res.Combined.Reads != int64(reads) {
		t.Fatalf("recorded %d samples for %d reads (and %d writes)", res.Combined.Reads, reads, writes)
	}
}

// TestRunWindowClosesAtLastPrimaryCompletion: the window is the
// primary streams' lifetime, to the event. live() is true up to the
// callback that completes the last primary request and false from
// inside it on; a probe issues while the window is open and never
// after; the concurrent hook sees the same live(); and equal seeds
// reproduce the run.
func TestRunWindowClosesAtLastPrimaryCompletion(t *testing.T) {
	run := func() RunResult {
		st := seededVolumeStack(t)
		var live func() bool
		primaryDone, flips, probeIssues, lateIssues := 0, 0, 0, 0
		liveBefore := false
		primary := spy{rw: volumeStream(t, st, sched.Batch), issued: func(bool) {},
			done: func(after bool) {
				if !after {
					liveBefore = live()
					return
				}
				primaryDone++
				switch {
				case liveBefore && !live():
					flips++
					if primaryDone != 64 {
						t.Errorf("live() flipped at primary completion %d, want 64", primaryDone)
					}
				case liveBefore != live():
					t.Errorf("live() went %v -> %v at completion %d", liveBefore, live(), primaryDone)
				}
			}}
		probe := spy{rw: volumeStream(t, st, sched.Realtime), done: func(bool) {},
			issued: func(bool) {
				probeIssues++
				if !live() {
					lateIssues++
				}
			}}
		ws := st.V.Pages()
		specs := []ClientSpec{
			{Name: "wr", RW: primary, Pick: PickWrite(ws), Seed: 5},
			{Name: "probe", RW: probe, Pick: PickHotCold(ws, ws/8, 0, 0), Requests: -1,
				Depth: 1, ThinkTime: 20 * sim.Microsecond, Record: true, Seed: 6},
		}
		hookLiveAtStart := false
		res, err := st.Run(specs, 2, 64, func(l func() bool) { live, hookLiveAtStart = l, l() })
		if err != nil {
			t.Fatal(err)
		}
		if !hookLiveAtStart || live() {
			t.Fatalf("live() was %v before the run and %v after the drain", hookLiveAtStart, live())
		}
		if flips != 1 || primaryDone != 64 {
			t.Fatalf("live() flipped %d times over %d primary completions", flips, primaryDone)
		}
		if probeIssues < 2 || lateIssues != 0 {
			t.Fatalf("probe issued %d requests, %d of them after the window closed", probeIssues, lateIssues)
		}
		if res.Loop.Errors != 0 || res.Loop.Completed != int64(64+probeIssues) {
			t.Fatalf("loop %+v with %d probe requests", res.Loop, probeIssues)
		}
		return res
	}
	a, b := run(), run()
	if a.Loop != b.Loop || a.Combined != b.Combined || a.ElapsedUs != b.ElapsedUs {
		t.Fatalf("nondeterministic: %+v vs %+v", a, b)
	}
}

// TestRunSpecValidation: broken spec sets fail fast — above all one
// with only probes, which nothing would ever stop.
func TestRunSpecValidation(t *testing.T) {
	st := seededVolumeStack(t)
	rw, pick := volumeStream(t, st, sched.Interactive), PickRead(8)
	bad := map[string][]ClientSpec{
		"nil RW":     {{Name: "a", Pick: pick}},
		"nil Pick":   {{Name: "a", RW: rw}},
		"all probes": {{Name: "a", RW: rw, Pick: pick, Requests: -1}, {Name: "b", RW: rw, Pick: pick, Requests: -1}},
		"no streams": {},
	}
	for name, specs := range bad {
		if _, err := st.Run(specs, 1, 8, nil); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	ok := []ClientSpec{{Name: "a", RW: rw, Pick: pick}}
	if _, err := st.Run(ok, 0, 8, nil); err == nil {
		t.Error("depth 0 accepted")
	}
	if _, err := st.Run(ok, 1, 0, nil); err == nil {
		t.Error("0 requests accepted")
	}
}

// TestPickerDrawOrder pins each picker's use of its RNG: the first ten
// choices from seed 42 and the RNG's next output after them (which
// also fixes how much a picker draws when bound). The committed
// BENCH_*.json artifacts depend on these sequences; an edit that moves
// one re-rolls them.
func TestPickerDrawOrder(t *testing.T) {
	type choice struct {
		lpn   int
		write bool
	}
	r, w := false, true
	for _, tc := range []struct {
		name  string
		pick  Picker
		want  [10]choice
		after uint64
	}{
		{"uniform", PickUniform(1000, 0.3), [10]choice{{250, r}, {925, r}, {5, r}, {207, r}, {398, r},
			{956, w}, {989, r}, {47, r}, {872, w}, {925, r}}, 0x12fc33f229b7b950},
		{"hotcold", PickHotCold(1000, 100, 0.5, 0.3), [10]choice{{62, w}, {5, r}, {46, r}, {956, w}, {61, w},
			{872, w}, {929, w}, {97, r}, {11, r}, {93, r}}, 0xa3351c7fc9a4c255},
		{"read", PickRead(1000), [10]choice{{858, r}, {764, r}, {250, r}, {62, r}, {925, r},
			{908, r}, {5, r}, {974, r}, {207, r}, {646, r}}, 0x836ded897f3e46e6},
		{"write", PickWrite(1000), [10]choice{{250, w}, {62, w}, {925, w}, {908, w}, {5, w},
			{974, w}, {207, w}, {646, w}, {398, w}, {495, w}}, 0xaa47e31c02e78edc},
	} {
		rng := sim.NewRNG(42)
		next := tc.pick(rng, 16)
		var got [10]choice
		for i := range got {
			lpn, payload := next()
			if payload != nil && len(payload) != 16 {
				t.Fatalf("%s: payload of %d bytes, want the page size", tc.name, len(payload))
			}
			got[i] = choice{lpn, payload != nil}
		}
		if got != tc.want {
			t.Errorf("%s: choices %v, want %v", tc.name, got, tc.want)
		}
		if after := rng.Uint64(); after != tc.after {
			t.Errorf("%s: RNG yields %#x after ten choices, want %#x", tc.name, after, tc.after)
		}
	}
}
