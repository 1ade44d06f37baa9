package sched_test

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/core/coretest"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/workload"
)

// testCluster builds a small seeded cluster under the image guard: when
// the test ends no stored image may have been written to.
func testCluster(t *testing.T, nodes, pages int) *core.Cluster {
	t.Helper()
	p := core.DefaultParams(nodes)
	p.Geometry.BlocksPerChip = 16
	c := coretest.NewCluster(t, p)
	for n := 0; n < nodes; n++ {
		if err := c.SeedLinear(n, pages, workload.RandomPages(7)); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

// runMix drives a small mixed multi-stream workload and returns the
// snapshot and the final virtual time.
func runMix(t *testing.T, cfg sched.Config) (sched.Snapshot, sim.Time) {
	t.Helper()
	c := testCluster(t, 2, 128)
	s, err := sched.New(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var specs []workload.StreamSpec
	for i := 0; i < 12; i++ {
		specs = append(specs, workload.StreamSpec{
			Name:   "t",
			Node:   i % 2,
			Target: -1,
			// Tenant traffic spans the three foreground classes; Accel
			// is device-side ISP traffic and Background is FTL
			// housekeeping, both off-limits to host streams.
			Class:   sched.Class(i % int(sched.Accel)),
			Pattern: workload.Pattern(i % 4),
			Seed:    uint64(100 + i),
		})
	}
	res, err := workload.RunClosedLoop(s, c, specs, 128, 4, 24)
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 0 {
		t.Fatalf("%d request errors", res.Errors)
	}
	if want := int64(12 * 24); res.Completed != want {
		t.Fatalf("completed %d, want %d", res.Completed, want)
	}
	return s.Snapshot(), c.Eng.Now()
}

// TestDeterminism: the same configuration and seeds must reproduce
// identical per-class latency distributions and an identical final
// virtual clock.
func TestDeterminism(t *testing.T) {
	s1, t1 := runMix(t, sched.DefaultConfig())
	s2, t2 := runMix(t, sched.DefaultConfig())
	if t1 != t2 {
		t.Fatalf("virtual end times differ: %v vs %v", t1, t2)
	}
	if !reflect.DeepEqual(s1, s2) {
		t.Fatalf("snapshots differ:\n%+v\nvs\n%+v", s1, s2)
	}
}

// TestBackpressureSaturation: submissions beyond the admission queue
// depth must be rejected with ErrBackpressure, the queue must never
// exceed its configured depth, and admitted requests must complete.
func TestBackpressureSaturation(t *testing.T) {
	c := testCluster(t, 1, 64)
	cfg := sched.Config{QueueDepth: 8, MaxInflight: 2, BatchSize: 2}
	s, err := sched.New(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	st, err := s.NewStream("sat", 0, sched.Batch)
	if err != nil {
		t.Fatal(err)
	}
	completed := 0
	rejected := 0
	// Submit synchronously, without running the engine: nothing can
	// drain, so exactly QueueDepth admissions succeed. Every read names
	// a page of its own, so none coalesces onto a queued one and each
	// needs a queue slot.
	for i := 0; i < 50; i++ {
		a := core.LinearPage(c.Params, 0, i)
		err := st.Read(a, func(_ []byte, err error) {
			if err != nil {
				t.Errorf("read: %v", err)
			}
			completed++
		})
		if err == sched.ErrBackpressure {
			rejected++
		} else if err != nil {
			t.Fatalf("unexpected error: %v", err)
		}
		if got := s.QueueLen(0); got > cfg.QueueDepth {
			t.Fatalf("queue length %d exceeds depth %d", got, cfg.QueueDepth)
		}
	}
	if rejected != 50-cfg.QueueDepth {
		t.Fatalf("rejected %d, want %d", rejected, 50-cfg.QueueDepth)
	}
	c.Run()
	if completed != cfg.QueueDepth {
		t.Fatalf("completed %d, want %d", completed, cfg.QueueDepth)
	}
	snap := s.Snapshot()
	if snap.PeakQueue != cfg.QueueDepth {
		t.Fatalf("peak queue %d, want %d", snap.PeakQueue, cfg.QueueDepth)
	}
	if snap.Rejected != int64(rejected) {
		t.Fatalf("snapshot rejected %d, want %d", snap.Rejected, rejected)
	}
	if snap.Coalesced != 0 {
		t.Fatalf("coalesced %d reads of distinct pages", snap.Coalesced)
	}
	// The queue drained: the next submission is admitted again.
	if err := st.Read(core.LinearPage(c.Params, 0, 0), func(_ []byte, _ error) {}); err != nil {
		t.Fatalf("post-drain submission rejected: %v", err)
	}
	c.Run()
}

// TestPriorityInversionRegression: with batch traffic saturating the
// node, realtime requests must still cut the line — their p99 stays
// below the batch class's p50. This is the QoS guard against priority
// inversion through the shared admission queue.
func TestPriorityInversionRegression(t *testing.T) {
	c := testCluster(t, 1, 256)
	// Narrow the device window so contention lands in the admission
	// queue, where class priority acts: beyond the window the device's
	// own FIFO serves requests in arrival order regardless of class.
	cfg := sched.DefaultConfig()
	cfg.MaxInflight = 32
	s, err := sched.New(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	specs := []workload.StreamSpec{
		{Name: "rt", Node: 0, Target: 0, Class: sched.Realtime, Pattern: workload.Uniform, Seed: 1},
	}
	for i := 0; i < 30; i++ {
		specs = append(specs, workload.StreamSpec{
			Name: "bulk", Node: 0, Target: 0, Class: sched.Batch,
			Pattern: workload.Scan, Seed: uint64(10 + i),
		})
	}
	res, err := workload.RunClosedLoop(s, c, specs, 256, 8, 64)
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 0 {
		t.Fatalf("%d request errors", res.Errors)
	}
	snap := s.Snapshot()
	var rt, bulk sched.ClassSnapshot
	for _, cs := range snap.Classes {
		switch cs.Class {
		case "realtime":
			rt = cs
		case "batch":
			bulk = cs
		}
	}
	if rt.Ops == 0 || bulk.Ops == 0 {
		t.Fatalf("missing samples: rt=%d bulk=%d", rt.Ops, bulk.Ops)
	}
	if rt.P99Us >= bulk.P50Us {
		t.Fatalf("priority inversion: realtime p99 %.1fus >= batch p50 %.1fus", rt.P99Us, bulk.P50Us)
	}
}

// TestAgingPreventsStarvation: a continuous realtime flood must not
// starve batch-class requests forever; the aging escape hatch
// guarantees them slots.
func TestAgingPreventsStarvation(t *testing.T) {
	c := testCluster(t, 1, 64)
	s, err := sched.New(c, sched.Config{
		QueueDepth: 256, MaxInflight: 8, BatchSize: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	rt, _ := s.NewStream("flood", 0, sched.Realtime)
	bulk, _ := s.NewStream("bulk", 0, sched.Batch)

	// Realtime flood: every completion immediately resubmits, so the
	// realtime queue is never empty. It reads pages 5..63 and the batch
	// reads pages 0..4, so no batch read can coalesce onto a queued
	// realtime one and be served without its own slot.
	rng := sim.NewRNG(3)
	deadline := 50 * sim.Millisecond
	var pump func()
	pump = func() {
		if c.Eng.Now() >= deadline {
			return
		}
		a := core.LinearPage(c.Params, 0, 5+rng.Intn(59))
		if err := rt.Read(a, func(_ []byte, _ error) { pump() }); err != nil {
			c.Eng.After(10*sim.Microsecond, pump)
		}
	}
	for i := 0; i < 32; i++ {
		pump()
	}
	bulkDone := 0
	for i := 0; i < 5; i++ {
		if err := bulk.Read(core.LinearPage(c.Params, 0, i), func(_ []byte, err error) {
			if err == nil {
				bulkDone++
			}
		}); err != nil {
			t.Fatalf("bulk submit: %v", err)
		}
	}
	c.Eng.RunWhile(func() bool { return bulkDone < 5 && c.Eng.Now() < deadline })
	if bulkDone < 5 {
		t.Fatalf("batch class starved: only %d/5 completed under realtime flood", bulkDone)
	}
	c.Run()
}

// TestCoalescing: queued duplicate reads ride one flash operation and
// every waiter still gets the data.
func TestCoalescing(t *testing.T) {
	c := testCluster(t, 1, 64)
	s, err := sched.New(c, sched.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	st, _ := s.NewStream("dup", 0, sched.Interactive)
	a := core.LinearPage(c.Params, 0, 5)
	got := 0
	var first []byte
	for i := 0; i < 6; i++ {
		err := st.Read(a, func(data []byte, err error) {
			if err != nil {
				t.Errorf("read: %v", err)
			}
			if first == nil {
				first = data
			} else if !reflect.DeepEqual(first, data) {
				t.Error("coalesced readers saw different data")
			}
			got++
		})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	c.Run()
	if got != 6 {
		t.Fatalf("%d callbacks fired, want 6", got)
	}
	snap := s.Snapshot()
	if snap.Coalesced != 5 {
		t.Fatalf("coalesced %d, want 5", snap.Coalesced)
	}
	if snap.TotalOps != 6 {
		t.Fatalf("total ops %d, want 6 (followers count as ops)", snap.TotalOps)
	}
}

// TestWriteFencesCoalescing: a read admitted after a write to the
// same page must NOT coalesce onto a read queued before the write —
// coalescing would guarantee it pre-write data. (The scheduler does
// not promise general read-after-write ordering; this closes the one
// route where staleness is certain.)
func TestWriteFencesCoalescing(t *testing.T) {
	c := testCluster(t, 1, 64)
	s, err := sched.New(c, sched.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	st, _ := s.NewStream("rw", 0, sched.Batch)
	// An erased page past the seeded region, block-aligned.
	blockSpan := c.Params.Geometry.Buses * c.Params.CardsPerNode * c.Params.Geometry.PagesPerBlock
	a := core.LinearPage(c.Params, 0, blockSpan)
	fired := 0
	any := func(_ []byte, _ error) { fired++ } // device-level errors irrelevant here
	if err := st.Read(a, any); err != nil {
		t.Fatal(err)
	}
	if err := st.Write(a, make([]byte, c.Params.PageSize()), func(_ error) { fired++ }); err != nil {
		t.Fatal(err)
	}
	if err := st.Read(a, any); err != nil {
		t.Fatal(err)
	}
	if got := s.Snapshot().Coalesced; got != 0 {
		t.Fatalf("read coalesced across an intervening write (%d coalesced)", got)
	}
	c.Run()
	if fired != 3 {
		t.Fatalf("%d callbacks fired, want 3", fired)
	}
}

// TestBatchingAmortization: the same workload must finish sooner (in
// virtual time) with batched doorbells than with one doorbell per
// request — the headline throughput claim of the scheduler.
func TestBatchingAmortization(t *testing.T) {
	batched := sched.DefaultConfig()
	nobatch := sched.DefaultConfig()
	nobatch.BatchSize = 1
	_, tBatched := runMix(t, batched)
	_, tNoBatch := runMix(t, nobatch)
	if !(float64(tBatched) < 0.8*float64(tNoBatch)) {
		t.Fatalf("batching not measurably faster: batched %v, nobatch %v", tBatched, tNoBatch)
	}
}

// TestStreamErrors: invalid arguments are rejected, a node outside
// the cluster, a class past the last or an Accel read of a page whose
// owner is not a node with ErrOutOfRange.
func TestStreamErrors(t *testing.T) {
	c := testCluster(t, 1, 16)
	s, err := sched.New(c, sched.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, node := range []int{-1, 1, 5} {
		if _, err := s.NewStream("x", node, sched.Batch); !errors.Is(err, sched.ErrOutOfRange) {
			t.Errorf("node %d of 1: got %v, want ErrOutOfRange", node, err)
		}
	}
	if _, err := s.NewStream("x", 0, sched.Class(9)); !errors.Is(err, sched.ErrOutOfRange) {
		t.Errorf("class 9: got %v, want ErrOutOfRange", err)
	}
	accel, err := s.NewStream("isp", 0, sched.Accel)
	if err != nil {
		t.Fatal(err)
	}
	for _, owner := range []int{-1, c.Nodes()} {
		err := accel.Read(core.PageAddr{Node: owner}, func([]byte, error) { t.Error("a refused read called back") })
		if !errors.Is(err, sched.ErrOutOfRange) {
			t.Errorf("accel read of a page on node %d of %d: got %v, want ErrOutOfRange", owner, c.Nodes(), err)
		}
	}
	if _, err := sched.New(c, sched.Config{}); err == nil {
		t.Error("zero config accepted")
	}
}

// runBackgroundDrain drives a fixed foreground read load plus nBG
// Background reads at a pinned GC urgency, and returns the virtual
// time at which the last Background op completed.
func runBackgroundDrain(t *testing.T, cfg sched.Config, urgency float64, nBG int) sim.Time {
	t.Helper()
	c := testCluster(t, 1, 128)
	s, err := sched.New(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.UrgencySource(0)(urgency)
	fg, err := s.NewStream("fg", 0, sched.Interactive)
	if err != nil {
		t.Fatal(err)
	}
	bg, err := s.NewStream("bg", 0, sched.Background)
	if err != nil {
		t.Fatal(err)
	}
	// Closed-loop foreground: 8 outstanding interactive reads for the
	// whole run, so the foreground queue is almost never empty.
	rng := sim.NewRNG(11)
	fgLeft := 400
	var issueFG func()
	issueFG = func() {
		if fgLeft == 0 {
			return
		}
		fgLeft--
		if err := fg.Read(core.LinearPage(c.Params, 0, rng.Intn(128)), func(_ []byte, err error) {
			if err != nil {
				t.Errorf("fg read: %v", err)
			}
			issueFG()
		}); err != nil {
			t.Fatalf("fg admit: %v", err)
		}
	}
	for i := 0; i < 8; i++ {
		issueFG()
	}
	var lastBG sim.Time
	bgDone := 0
	for i := 0; i < nBG; i++ {
		if err := bg.Read(core.LinearPage(c.Params, 0, i), func(_ []byte, err error) {
			if err != nil {
				t.Errorf("bg read: %v", err)
			}
			bgDone++
			lastBG = c.Eng.Now()
		}); err != nil {
			t.Fatalf("bg admit: %v", err)
		}
	}
	c.Run()
	if bgDone != nBG {
		t.Fatalf("background completed %d/%d: deferral starved it outright", bgDone, nBG)
	}
	return lastBG
}

// TestBackgroundTokenBudget: under a busy foreground, Background work
// at zero urgency must trickle (deferred to an inflight share of one),
// drain much faster once urgency is critical, and never starve
// completely. GC-oblivious dispatch (GCDefer off) must behave like
// critical urgency.
func TestBackgroundTokenBudget(t *testing.T) {
	cfg := sched.DefaultConfig()
	cfg.MaxInflight = 32
	cfg.BatchSize = 8
	tIdle := runBackgroundDrain(t, cfg, 0.0, 64)
	tCrit := runBackgroundDrain(t, cfg, 1.0, 64)
	if !(float64(tCrit) < 0.5*float64(tIdle)) {
		t.Fatalf("urgency escalation did not speed background drain: idle %v, critical %v", tIdle, tCrit)
	}
	oblivious := cfg
	oblivious.GCDefer = false
	tObl := runBackgroundDrain(t, oblivious, 0.0, 64)
	if !(float64(tObl) < 0.5*float64(tIdle)) {
		t.Fatalf("GC-oblivious dispatch should flood like critical urgency: oblivious %v, deferred %v", tObl, tIdle)
	}
}

// TestBackgroundErase: erases admitted on a Background stream complete
// through the batched host path and are never coalesced with reads.
func TestBackgroundErase(t *testing.T) {
	c := testCluster(t, 1, 64)
	s, err := sched.New(c, sched.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	bg, err := s.NewStream("gc", 0, sched.Background)
	if err != nil {
		t.Fatal(err)
	}
	// Erase a block in the unseeded tail of the card so no seeded data
	// is touched.
	addr := core.LinearPage(c.Params, 0, core.PagesPerNode(c.Params)-1)
	done := false
	if err := bg.Erase(addr, func(err error) {
		if err != nil {
			t.Errorf("erase: %v", err)
		}
		done = true
	}); err != nil {
		t.Fatal(err)
	}
	c.Run()
	if !done {
		t.Fatal("erase never completed")
	}
	snap := s.Snapshot()
	for _, cs := range snap.Classes {
		if cs.Class == "background" && cs.Ops != 1 {
			t.Fatalf("background ops = %d, want 1", cs.Ops)
		}
	}
}

// TestUrgencySourcesFoldWithMax: a node's Background urgency is the
// max of its sources, each clamped to [0, 1]; one source falling
// leaves the others' value standing, and other nodes never see it.
func TestUrgencySourcesFoldWithMax(t *testing.T) {
	c := testCluster(t, 2, 16)
	s, err := sched.New(c, sched.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	a, b := s.UrgencySource(0), s.UrgencySource(0)
	other := s.UrgencySource(1)
	steps := []struct {
		set  func(float64)
		u    float64
		want float64
	}{
		{a, 0.3, 0.3},
		{b, 0.6, 0.6},
		{a, 0.9, 0.9},
		{a, 0, 0.6},
		{b, 7, 1},  // clamped to 1
		{b, -3, 0}, // clamped to 0
		{other, 1, 0},
	}
	for i, st := range steps {
		st.set(st.u)
		if got := s.Urgency(0); got != st.want {
			t.Fatalf("step %d: node 0 urgency %v, want %v", i, got, st.want)
		}
	}
	if got := s.Urgency(1); got != 1 {
		t.Fatalf("node 1 urgency %v, want 1", got)
	}
	c.Run()
}
