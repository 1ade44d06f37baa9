package sim

import (
	"fmt"
	"testing"

	"repro/internal/alloctest"
)

// laneRun drives Lanes over a fake device on a fresh engine: index i
// completes delay(i) after it is issued, synchronously when delay(i) is
// negative. It records what a worker loop is judged by.
type laneRun struct {
	issued    []int  // indexes in issue order
	issueAt   []Time // by index
	laneOf    []int  // by index
	peak      int    // most bodies outstanding at once
	laneBusy  []int  // by lane: bodies outstanding on it right now
	laneClash bool   // a lane ran two bodies at once
	dones     int
	doneAt    Time
}

func runLanes(n, lanes int, delay func(i int) Time) *laneRun {
	eng := NewEngine()
	r := &laneRun{issueAt: make([]Time, n), laneOf: make([]int, n), laneBusy: make([]int, max(lanes, 1))}
	out := 0
	Lanes(n, lanes, func(lane, i int, next func()) {
		r.issued = append(r.issued, i)
		r.issueAt[i], r.laneOf[i] = eng.Now(), lane
		out++
		r.peak = max(r.peak, out)
		if r.laneBusy[lane]++; r.laneBusy[lane] > 1 {
			r.laneClash = true
		}
		finish := func() {
			out--
			r.laneBusy[lane]--
			next()
		}
		if d := delay(i); d < 0 {
			finish()
		} else {
			eng.After(d, finish)
		}
	}, func() {
		r.dones++
		r.doneAt = eng.Now()
	})
	eng.Run()
	return r
}

// TestLanesHandsOutEveryIndexInOrder: whatever the shape — no work,
// less work than lanes, far more — and whether bodies finish later or
// on the spot, every index is issued once, in order, on a lane below
// the lane count, never more than `lanes` (or n) at once, and done
// fires exactly once.
func TestLanesHandsOutEveryIndexInOrder(t *testing.T) {
	for _, sync := range []bool{false, true} {
		for _, sh := range []struct{ n, lanes int }{{0, 1}, {0, 8}, {1, 1}, {3, 8}, {8, 8}, {9, 8}, {5000, 1}, {5000, 7}} {
			t.Run(fmt.Sprintf("n=%d/lanes=%d/sync=%v", sh.n, sh.lanes, sync), func(t *testing.T) {
				r := runLanes(sh.n, sh.lanes, func(i int) Time {
					if sync {
						return -1
					}
					return Time(1 + (i*7)%5)
				})
				if len(r.issued) != sh.n {
					t.Fatalf("%d indexes issued, want %d", len(r.issued), sh.n)
				}
				for k, i := range r.issued {
					if i != k {
						t.Fatalf("issue %d was index %d: not in order", k, i)
					}
					if r.laneOf[i] < 0 || r.laneOf[i] >= min(sh.lanes, sh.n) {
						t.Fatalf("index %d ran on lane %d of %d", i, r.laneOf[i], min(sh.lanes, sh.n))
					}
				}
				want := min(sh.lanes, sh.n)
				if sync {
					want = min(1, sh.n) // a body that finishes on the spot never overlaps the next
				}
				if r.peak != want {
					t.Errorf("peak of %d bodies outstanding, want %d", r.peak, want)
				}
				if r.laneClash {
					t.Error("a lane ran two bodies at once")
				}
				if r.dones != 1 {
					t.Errorf("done fired %d times", r.dones)
				}
			})
		}
	}
}

// TestLanesDoneSynchronousWhenEmpty: with nothing to hand out, done has
// fired by the time Lanes returns and body never runs.
func TestLanesDoneSynchronousWhenEmpty(t *testing.T) {
	fired := false
	Lanes(0, 4, func(_, _ int, _ func()) { t.Fatal("body ran") }, func() { fired = true })
	if !fired {
		t.Fatal("done had not fired when Lanes returned")
	}
}

// TestLanesDroppedNextNeverJoins: a body that does not call next
// retires its lane; the others drain the list, and done stays silent.
func TestLanesDroppedNextNeverJoins(t *testing.T) {
	ran := 0
	Lanes(10, 3, func(_, i int, next func()) {
		ran++
		if i != 4 {
			next()
		}
	}, func() { t.Fatal("done fired although a lane never joined") })
	if ran != 10 {
		t.Fatalf("%d of 10 indexes ran", ran)
	}
}

// TestLanesRunsOneLaneWhenAskedForNone: a lane count below one is one
// lane, the clamp every thread sweep used to carry.
func TestLanesRunsOneLaneWhenAskedForNone(t *testing.T) {
	for _, lanes := range []int{0, -3} {
		if r := runLanes(6, lanes, func(int) Time { return 1 }); len(r.issued) != 6 || r.peak != 1 || r.dones != 1 {
			t.Fatalf("%d lanes: %d of 6 issued, peak %d, done %d times", lanes, len(r.issued), r.peak, r.dones)
		}
	}
}

// refEnginePump is the engines x window pump that lsh, tablescan, spmv,
// mapreduce and search each carried before Lanes, kept here as the
// reference the property test below compares against: every engine
// refills its own window from the shared cursor and retires when its
// window is empty and the cursor is dry; done fires when the last
// engine retires.
func refEnginePump(n, engines, window int, issue func(i int, complete func()), done func()) {
	next := 0
	liveEngines := engines
	for e := 0; e < engines; e++ {
		inflight := 0
		engineDone := false
		var pump func()
		maybeFinish := func() {
			if !engineDone && inflight == 0 && next >= n {
				engineDone = true
				liveEngines--
				if liveEngines == 0 {
					done()
				}
			}
		}
		pump = func() {
			for inflight < window && next < n {
				i := next
				next++
				inflight++
				issue(i, func() {
					inflight--
					pump()
					maybeFinish()
				})
			}
		}
		pump()
		maybeFinish()
	}
}

// TestLanesMatchesEnginesTimesWindow is the claim the conversion of the
// accelerator runners rests on: engines x window pumps over a shared
// cursor and one loop of engines*window lanes are the same schedule.
// Random per-index latencies (some zero, some completing on the spot,
// many tied) are replayed through both; every index must be issued at
// the same instant in the same order, and the join must fall on the
// same instant.
func TestLanesMatchesEnginesTimesWindow(t *testing.T) {
	rng := NewRNG(20)
	for trial := 0; trial < 300; trial++ {
		engines, window := 1+rng.Intn(6), 1+rng.Intn(5)
		n := rng.Intn(6 * engines * window)
		delays := make([]Time, n)
		for i := range delays {
			switch d := rng.Intn(12); d {
			case 0:
				delays[i] = -1 // completes synchronously
			default:
				delays[i] = Time(d - 1)
			}
		}
		delay := func(i int) Time { return delays[i] }

		got := runLanes(n, engines*window, delay)

		eng := NewEngine()
		var wantIssued []int
		wantAt := make([]Time, n)
		wantDones, wantDoneAt := 0, Time(0)
		refEnginePump(n, engines, window, func(i int, complete func()) {
			wantIssued = append(wantIssued, i)
			wantAt[i] = eng.Now()
			if delays[i] < 0 {
				complete()
			} else {
				eng.After(delays[i], complete)
			}
		}, func() {
			wantDones++
			wantDoneAt = eng.Now()
		})
		eng.Run()

		name := fmt.Sprintf("trial %d (%d engines x %d window, %d indexes)", trial, engines, window, n)
		if len(got.issued) != len(wantIssued) {
			t.Fatalf("%s: %d indexes issued, reference %d", name, len(got.issued), len(wantIssued))
		}
		for k := range wantIssued {
			if got.issued[k] != wantIssued[k] {
				t.Fatalf("%s: issue %d was index %d, reference %d", name, k, got.issued[k], wantIssued[k])
			}
		}
		for i := range wantAt {
			if got.issueAt[i] != wantAt[i] {
				t.Fatalf("%s: index %d issued at %v, reference %v", name, i, got.issueAt[i], wantAt[i])
			}
		}
		if got.dones != 1 || wantDones != 1 || got.doneAt != wantDoneAt {
			t.Fatalf("%s: joined %d times at %v, reference %d times at %v", name, got.dones, got.doneAt, wantDones, wantDoneAt)
		}
	}
}

// TestLaneLoopRunFromDone: a pooled record is reused as its work
// completes, so a LaneLoop's next run may start from inside the old
// run's done. Each such run hands out its own [0, n) from index 0 — it
// never sees the old run's cursor — on its own lane count, and joins
// exactly once, whether its bodies finish later or on the spot.
func TestLaneLoopRunFromDone(t *testing.T) {
	for _, sync := range []bool{false, true} {
		t.Run(fmt.Sprintf("sync=%v", sync), func(t *testing.T) {
			eng := NewEngine()
			counts := []int{5, 2, 0, 4, 1}
			lanes := []int{3, 1, 2, 8, 2}
			run := 0
			var issued [][]int
			var loop *LaneLoop
			loop = NewLaneLoop(3, func(_, i int, next func()) {
				if i >= counts[run] {
					t.Errorf("run %d issued index %d of %d", run, i, counts[run])
					return // retire the lane: the run never joins
				}
				issued[run] = append(issued[run], i)
				if sync {
					next()
				} else {
					eng.After(Time(1+i%2), next)
				}
			}, func() {
				if run++; run < len(counts) {
					issued = append(issued, nil)
					loop.Run(counts[run], lanes[run])
				}
			})
			issued = append(issued, nil)
			loop.Run(counts[0], lanes[0])
			eng.Run()
			if run != len(counts) {
				t.Fatalf("%d of %d runs joined", run, len(counts))
			}
			for r, got := range issued {
				if len(got) != counts[r] {
					t.Fatalf("run %d issued %v, want every index below %d once", r, got, counts[r])
				}
				for k, i := range got {
					if i != k {
						t.Fatalf("run %d issued %v: not [0, %d) in order", r, got, counts[r])
					}
				}
			}
		})
	}
}

// TestLaneLoopRunAllocatesNothing: a run of a LaneLoop allocates
// nothing; Lanes, which makes its loop, is the one-shot form.
func TestLaneLoopRunAllocatesNothing(t *testing.T) {
	issued, runs := 0, 0
	loop := NewLaneLoop(4, func(_, _ int, next func()) { issued++; next() }, func() {})
	if allocs := alloctest.Mallocs(100, func() { loop.Run(10, 4); runs++ }); allocs != 0 {
		t.Fatalf("100 runs allocated %d times, want 0", allocs)
	}
	if issued != 10*runs {
		t.Fatalf("%d indexes issued over %d runs of 10", issued, runs)
	}
}
