package workload

import (
	"testing"

	"repro/internal/alloctest"
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

// engineRW is a surface whose every request completes 1 µs after it
// is issued, through the engine and in issue order; once its queue has
// grown it allocates nothing.
type engineRW struct {
	eng  *sim.Engine
	q    sim.Queue[engineOp]
	fire func() // complete, bound once
}

type engineOp struct {
	read  func([]byte, error)
	write func(error)
}

func newEngineRW(eng *sim.Engine) *engineRW {
	rw := &engineRW{eng: eng}
	rw.fire = rw.complete
	return rw
}

func (rw *engineRW) Read(_ int, cb func([]byte, error)) {
	rw.q.Push(engineOp{read: cb})
	rw.eng.After(sim.Microsecond, rw.fire)
}

func (rw *engineRW) Write(_ int, _ []byte, cb func(error)) {
	rw.q.Push(engineOp{write: cb})
	rw.eng.After(sim.Microsecond, rw.fire)
}

func (rw *engineRW) complete() {
	if op := rw.q.Pop(); op.read != nil {
		op.read(nil, nil)
	} else {
		op.write(nil)
	}
}

// TestRunAllocatesNothingPerRequest: a run of 512 requests allocates
// exactly what a run of 64 does, for unrecorded reads and for writes
// alike — the driver binds a stream's completions once, not per
// request.
func TestRunAllocatesNothingPerRequest(t *testing.T) {
	st, err := Build(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	rw := newEngineRW(st.C.Eng)
	for _, tc := range []struct {
		name string
		pick Picker
	}{{"read", PickRead(64)}, {"write", PickWrite(64)}} {
		allocs := func(requests int) uint64 {
			run := func() {
				res, err := st.Run([]ClientSpec{{Name: tc.name, RW: rw, Pick: tc.pick, Seed: 1}}, 4, requests, nil)
				if err != nil || res.Loop.Completed != int64(requests) {
					t.Fatalf("%s: %+v, %v", tc.name, res.Loop, err)
				}
			}
			run() // each window starts as warm as the other
			return alloctest.Mallocs(10, run)
		}
		if few, many := allocs(64), allocs(512); many != few {
			t.Errorf("%s: %d allocations over 10 runs of 512 requests, %d over 10 of 64",
				tc.name, many, few)
		}
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

// testSpace is a 4-node physical space of 10 000 pages a node, the
// first 1 000 of them the read region; node 1's Batch class appends at
// [5 000, limit).
func testSpace(limit int) *linearSpace {
	ls := &linearSpace{nodes: 4, perNode: 10000, readPages: 1000, regions: make([][sched.NumClasses]appendRegion, 4)}
	ls.regions[1][sched.Batch] = appendRegion{next: 5000, limit: limit}
	return ls
}

// physPicker is the Picker of a Batch stream on node 1 addressing the
// whole space.
func physPicker(ls *linearSpace, pattern Pattern) Picker {
	return (&physStream{sp: StreamSpec{Node: 1, Target: -1, Class: sched.Batch, Pattern: pattern}, ls: ls}).bind
}

// TestPickerDrawOrder pins each picker's use of its RNG: the first ten
// choices from seed 42 and the RNG's next output after them (which
// also fixes how much a picker draws when bound). The committed
// BENCH_*.json artifacts and the engine golden depend on these
// sequences; an edit that moves one re-rolls them. In the physical
// pickers' rows an lpn is node·10 000 + page; the last row's region
// holds one page, so its later writes fall back to reads.
func TestPickerDrawOrder(t *testing.T) {
	type choice struct {
		lpn   int
		write bool
	}
	r, w := false, true
	spent := testSpace(5001)
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
		{"phys-uniform", physPicker(testSpace(5100), Uniform), [10]choice{{20764, r}, {20062, r}, {10908, r},
			{10974, r}, {30646, r}, {20495, r}, {130, r}, {10861, r}, {30008, r}, {641, r}}, 0x998d8fb100ca15d5},
		{"phys-zipfian", physPicker(testSpace(5100), Zipfian), [10]choice{{20327, r}, {20224, r}, {10074, r},
			{10660, r}, {30503, r}, {20069, r}, {522, r}, {10264, r}, {30622, r}, {0, r}}, 0x998d8fb100ca15d5},
		{"phys-scan", physPicker(testSpace(5100), Scan), [10]choice{{20764, r}, {20765, r}, {20766, r},
			{20767, r}, {20768, r}, {20769, r}, {20770, r}, {20771, r}, {20772, r}, {20773, r}}, 0x851f977347ed6db7},
		{"phys-mixed", physPicker(testSpace(5100), Mixed), [10]choice{{20925, r}, {15000, w}, {20207, r},
			{20495, r}, {20989, r}, {30008, r}, {15001, w}, {10929, r}, {10997, r}, {15002, w}}, 0xf1222631cdc86d07},
		{"phys-mixed-exhausted", physPicker(spent, Mixed), [10]choice{{20925, r}, {15000, w}, {20207, r},
			{20495, r}, {20989, r}, {30008, r}, {10925, r}, {385, r}, {30263, r}, {10182, r}}, 0xa5a7fe4e63a4f49d},
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
	if spent.fallbacks != 2 {
		t.Errorf("exhausted region: %d write fallbacks, want 2", spent.fallbacks)
	}
}
