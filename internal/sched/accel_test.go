package sched_test

import (
	"encoding/json"
	"errors"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/sim"
)

// TestAccelStreamReadsComplete: ISP reads admitted through an Accel
// stream complete with the right data and are accounted under the
// accel class — the scheduler sees them.
func TestAccelStreamReadsComplete(t *testing.T) {
	c := testCluster(t, 2, 64)
	s, err := sched.New(c, sched.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	st, err := s.NewStream("engine", 0, sched.Accel)
	if err != nil {
		t.Fatal(err)
	}
	completed := 0
	for i := 0; i < 32; i++ {
		// Even pages local to the origin, odd pages on the remote node:
		// both admitted at the OWNING node, data lands at the origin.
		a := core.LinearPage(c.Params, i%2, i/2)
		if err := st.Read(a, func(data []byte, err error) {
			if err != nil {
				t.Errorf("read %v: %v", a, err)
			}
			if len(data) == 0 {
				t.Errorf("read %v: no data", a)
			}
			completed++
		}); err != nil {
			t.Fatalf("admit: %v", err)
		}
	}
	c.Run()
	if completed != 32 {
		t.Fatalf("completed %d of 32", completed)
	}
	if st.Submitted != 32 {
		t.Fatalf("submitted = %d", st.Submitted)
	}
	snap := s.Snapshot()
	for _, cs := range snap.Classes {
		if cs.Class == "accel" && cs.Ops != 32 {
			t.Fatalf("accel class ops = %d, want 32", cs.Ops)
		}
	}
}

// TestAccelReadsTakeNoHostWindowSlot: Accel grants live outside the
// host's device window. At MaxInflight 1 an Accel stream opens, the
// full Accel budget goes in flight at once, and realtime host reads
// issued one after another complete while it is still all in flight,
// long before the Accel backlog drains; the window count never
// includes an Accel read.
func TestAccelReadsTakeNoHostWindowSlot(t *testing.T) {
	c := testCluster(t, 1, 256)
	cfg := sched.DefaultConfig()
	cfg.MaxInflight = 1
	s, err := sched.New(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	st, err := s.NewStream("engine", 0, sched.Accel)
	if err != nil {
		t.Fatalf("Accel stream at MaxInflight 1: %v", err)
	}
	rt, err := s.NewStream("probe", 0, sched.Realtime)
	if err != nil {
		t.Fatal(err)
	}
	budget, accelDone, hostOut := c.Params.ReadDepth(), 0, 0
	const accelReads, rtReads = 1024, 4
	for i := range accelReads {
		if err := st.Read(core.LinearPage(c.Params, 0, i%256), func(_ []byte, err error) {
			if err != nil {
				t.Errorf("accel read: %v", err)
			}
			accelDone++
		}); err != nil {
			t.Fatalf("admit %d: %v", i, err)
		}
	}
	var rtAt []int // Accel completions when each realtime read finished
	var next func()
	next = func() {
		if got := s.AccelInflight(0); got != budget {
			t.Errorf("realtime read %d issued with %d Accel reads in flight, want the full budget %d", len(rtAt), got, budget)
		}
		hostOut++
		if err := rt.Read(core.LinearPage(c.Params, 0, 7*len(rtAt)), func(_ []byte, err error) {
			if err != nil {
				t.Errorf("realtime read: %v", err)
			}
			hostOut--
			if got := s.AccelInflight(0); got != budget {
				t.Errorf("realtime read %d finished with %d Accel reads in flight, want the full budget %d", len(rtAt), got, budget)
			}
			rtAt = append(rtAt, accelDone)
			if len(rtAt) < rtReads {
				next()
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	c.Eng.After(5*sim.Microsecond, next)
	var probe func()
	probe = func() {
		if got := s.Inflight(0); got > hostOut {
			t.Fatalf("window holds %d requests with %d host reads outstanding: it counts Accel reads", got, hostOut)
		}
		if accelDone < accelReads {
			c.Eng.After(sim.Microsecond, probe)
		}
	}
	probe()
	c.Run()
	if accelDone != accelReads || len(rtAt) != rtReads {
		t.Fatalf("completed %d of %d accel reads and %d of %d realtime reads", accelDone, accelReads, len(rtAt), rtReads)
	}
	if last := rtAt[rtReads-1]; last > accelReads/2 {
		t.Fatalf("the realtime reads finished after %d of %d Accel completions: they waited behind the Accel backlog", last, accelReads)
	}
}

// TestAccelTokenBudgetBound: the accel class holds at most its token
// budget — 4 reads per chip of the node, the chips' read depth — in
// flight, however much ISP work is queued and however narrow the host
// window, and a deep enough backlog reaches it.
func TestAccelTokenBudgetBound(t *testing.T) {
	c := testCluster(t, 1, 256)
	g := c.Params.Geometry
	budget := 4 * c.Params.CardsPerNode * g.Buses * g.ChipsPerBus
	if c.Params.ReadDepth() != budget {
		t.Fatalf("ReadDepth %d, want 4 reads per chip = %d", c.Params.ReadDepth(), budget)
	}
	cfg := sched.DefaultConfig()
	cfg.MaxInflight = 8 // far below the budget: it must not bound Accel
	s, err := sched.New(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	st, err := s.NewStream("engine", 0, sched.Accel)
	if err != nil {
		t.Fatal(err)
	}
	reads := 3 * budget
	done := 0
	for i := 0; i < reads; i++ {
		a := core.LinearPage(c.Params, 0, i%256)
		if err := st.Read(a, func(_ []byte, err error) {
			if err != nil {
				t.Errorf("read: %v", err)
			}
			done++
		}); err != nil {
			t.Fatalf("admit %d: %v", i, err)
		}
	}
	// Sample the in-flight gauge on a fine grid for the whole drain.
	maxSeen := 0
	var probe func()
	probe = func() {
		maxSeen = max(maxSeen, s.AccelInflight(0))
		if done < reads {
			c.Eng.After(2*sim.Microsecond, probe)
		}
	}
	probe()
	c.Run()
	if done != reads {
		t.Fatalf("completed %d of %d", done, reads)
	}
	if maxSeen != budget {
		t.Fatalf("accel held at most %d reads in flight, budget is %d", maxSeen, budget)
	}
}

// TestAccelStreamOnlyReads: an Accel stream is an in-store processor's,
// and in-store processors only read the flash. A write, an image write
// or an erase on one fails with ErrAccelReadOnly — directly, through a
// Retrier and through a Sequencer — admits nothing and takes no pooled
// request (the cluster's drain check runs when the test ends), and
// leaves the stream's reads working.
func TestAccelStreamOnlyReads(t *testing.T) {
	c := testCluster(t, 1, 16)
	s, err := sched.New(c, sched.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	st, err := s.NewStream("engine", 0, sched.Accel)
	if err != nil {
		t.Fatal(err)
	}
	a, img := freePage(c, 0), c.Params.Geometry.PageImage(pagePattern(c, 1))
	never := func(error) { t.Error("a refused op's callback fired") }
	for name, err := range map[string]error{
		"Write":      st.Write(a, img, never),
		"WriteImage": st.WriteImage(a, img, never),
		"Erase":      st.Erase(a, never),
	} {
		if !errors.Is(err, sched.ErrAccelReadOnly) {
			t.Errorf("%s on an Accel stream: %v, want ErrAccelReadOnly", name, err)
		}
	}
	rt := s.NewRetrier(0)
	var viaRetrier, viaSequencer error
	rt.Erase(st, a, func(err error) { viaRetrier = err })
	rt.NewSequencer().WriteImage(st, a, img, func(err error) { viaSequencer = err })
	if !errors.Is(viaRetrier, sched.ErrAccelReadOnly) || !errors.Is(viaSequencer, sched.ErrAccelReadOnly) {
		t.Errorf("through a Retrier: erase %v, write %v; want ErrAccelReadOnly", viaRetrier, viaSequencer)
	}
	if st.Submitted != 0 || s.QueueLen(0) != 0 {
		t.Fatalf("refused ops admitted: %d submitted, queue %d", st.Submitted, s.QueueLen(0))
	}
	if got := readBack(t, c, st, core.LinearPage(c.Params, 0, 3)); len(got) == 0 {
		t.Fatal("the Accel stream's read delivered nothing")
	}
	c.Run()
	for _, cs := range s.Snapshot().Classes {
		want := int64(0)
		if cs.Class == "accel" {
			want = 1
		}
		if cs.Ops != want {
			t.Fatalf("class %s completed %d ops, want the one accel read", cs.Class, cs.Ops)
		}
	}
	if peek(c, a) != nil {
		t.Fatal("a refused write reached the flash")
	}
}

// TestSnapshotZeroCompletionsMarshalsClean: a scheduler whose streams
// never completed anything must export an all-zero, JSON-safe
// snapshot — no NaN/Inf from empty latency recorders.
func TestSnapshotZeroCompletionsMarshalsClean(t *testing.T) {
	c := testCluster(t, 1, 1)
	s, err := sched.New(c, sched.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	snap := s.Snapshot()
	b, err := json.Marshal(snap)
	if err != nil {
		t.Fatalf("snapshot does not marshal: %v", err)
	}
	if len(b) == 0 {
		t.Fatal("empty JSON")
	}
	for _, cs := range snap.Classes {
		for name, v := range map[string]float64{
			"mean": cs.MeanUs, "p50": cs.P50Us, "p99": cs.P99Us,
			"max": cs.MaxUs, "ops/s": cs.OpsPerSec, "MB/s": cs.MBps,
		} {
			if v != 0 || math.IsNaN(v) {
				t.Fatalf("class %s %s = %v, want 0", cs.Class, name, v)
			}
		}
	}
}

// TestAccelReadRetriesLikeTheHandWrittenLoop: Retrier.Read on an Accel
// stream — the one retry under ispvol's engines — against the closure it
// replaced
// (admit; on ErrBackpressure, After delay, admit again). A burst far
// deeper than the admission queue must complete every read at the same
// instant either way; the retrier counts the refusals it absorbed and
// returns every op and request to its pool; a read of a page no node
// owns fails through the callback.
func TestAccelReadRetriesLikeTheHandWrittenLoop(t *testing.T) {
	const reads, delay = 96, 3 * sim.Microsecond
	cfg := sched.DefaultConfig()
	cfg.QueueDepth = 8
	run := func(read func(c *core.Cluster, s *sched.Scheduler) func(a core.PageAddr, cb func([]byte, error))) []sim.Time {
		c := testCluster(t, 2, 64)
		s, err := sched.New(c, cfg)
		if err != nil {
			t.Fatal(err)
		}
		rd := read(c, s)
		at := make([]sim.Time, reads)
		for i := range at {
			rd(core.LinearPage(c.Params, i%2, i%64), func(_ []byte, err error) {
				if err != nil {
					t.Errorf("read %d: %v", i, err)
				}
				at[i] = c.Eng.Now()
			})
		}
		c.Run()
		return at
	}
	want := run(func(c *core.Cluster, s *sched.Scheduler) func(core.PageAddr, func([]byte, error)) {
		st, err := s.NewStream("engine", 0, sched.Accel)
		if err != nil {
			t.Fatal(err)
		}
		return func(a core.PageAddr, cb func([]byte, error)) {
			var try func()
			try = func() {
				if err := st.Read(a, cb); err == sched.ErrBackpressure {
					c.Eng.After(delay, try)
				} else if err != nil {
					cb(nil, err)
				}
			}
			try()
		}
	})
	var rt *sched.Retrier
	viaStream := run(func(c *core.Cluster, s *sched.Scheduler) func(core.PageAddr, func([]byte, error)) {
		st, err := s.NewStream("engine", 0, sched.Accel)
		if err != nil {
			t.Fatal(err)
		}
		rt = s.NewRetrier(delay)
		return func(a core.PageAddr, cb func([]byte, error)) { rt.Read(st, a, cb) }
	})
	for i := range want {
		if want[i] == 0 || viaStream[i] != want[i] {
			t.Fatalf("read %d: hand-written loop %v, Retrier.Read %v", i, want[i], viaStream[i])
		}
	}
	if rt.Backpressure == 0 {
		t.Fatal("test premise: the burst never met backpressure")
	}

	c := testCluster(t, 1, 1)
	s, err := sched.New(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	st, err := s.NewStream("engine", 0, sched.Accel)
	if err != nil {
		t.Fatal(err)
	}
	var got error
	s.NewRetrier(0).Read(st, core.PageAddr{Node: 7}, func(_ []byte, err error) { got = err })
	if got == nil {
		t.Fatal("a read of a page on a node that does not exist was admitted")
	}
}
