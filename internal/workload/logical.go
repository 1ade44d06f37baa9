package workload

// The closed-loop driver. It drives any page-granular read/write
// surface — a volume stream, a cache stream, a file, or the physical
// linear page space (streams.go) — so writes above the flash address
// space are overwrites of live logical pages (write churn, which is
// what forces the FTLs and the RFS cleaner into steady-state reclaim),
// and the exact same traffic can run against a bare volume and a
// cached one. Every stream's read is issued in one place
// (runStream.issueOne). Latency is recorded where the client sees it,
// issue to completion in virtual time: a cache hit never enters the
// scheduler, so the scheduler's histograms cannot see it.

import (
	"fmt"
	"math"

	"repro/internal/sim"
)

// PageRW is a page-granular I/O surface: volume.Stream and
// cache.Stream both satisfy it.
type PageRW interface {
	Read(lpn int, cb func(data []byte, err error))
	Write(lpn int, data []byte, cb func(err error))
}

// Picker is a stream's target choice. The driver binds it once to the
// stream's fresh RNG (a picker that writes draws its reused payload
// there, before anything else is drawn) and calls the result once per
// request: the page to touch and the payload to overwrite it with, nil
// for a read. The committed BENCH artifacts and the engine golden pin
// every picker's draw order; TestPickerDrawOrder in logical_test.go
// holds a golden for each, the physical streams' included.
type Picker func(rng *sim.RNG, pageSize int) func() (lpn int, payload []byte)

// PickHotCold sends hotFrac of the accesses (0.9 when zero) to
// [0, hotPages) and the rest over [0, pages); each is an overwrite with
// probability writeFrac. hotPages 0 is uniform.
func PickHotCold(pages, hotPages int, hotFrac, writeFrac float64) Picker {
	if hotFrac <= 0 {
		hotFrac = 0.9
	}
	return func(rng *sim.RNG, pageSize int) func() (int, []byte) {
		page := make([]byte, pageSize)
		rng.Bytes(page)
		return func() (int, []byte) {
			span := pages
			if hotPages > 0 && rng.Float64() < hotFrac {
				span = hotPages
			}
			lpn := rng.Intn(span)
			if rng.Float64() < writeFrac {
				return lpn, page
			}
			return lpn, nil
		}
	}
}

// PickUniform spreads accesses over [0, pages), each an overwrite with
// probability writeFrac.
func PickUniform(pages int, writeFrac float64) Picker {
	return PickHotCold(pages, 0, 0, writeFrac)
}

// PickRead reads uniformly over [0, pages): one draw per request, no
// payload.
func PickRead(pages int) Picker {
	return func(rng *sim.RNG, _ int) func() (int, []byte) {
		return func() (int, []byte) { return rng.Intn(pages), nil }
	}
}

// PickWrite overwrites uniformly over [0, pages): one draw per request.
func PickWrite(pages int) Picker {
	return func(rng *sim.RNG, pageSize int) func() (int, []byte) {
		page := make([]byte, pageSize)
		rng.Bytes(page)
		return func() (int, []byte) { return rng.Intn(pages), page }
	}
}

// ClientSpec describes one closed-loop client stream.
type ClientSpec struct {
	Name string
	// RW is the surface the stream drives.
	RW   PageRW
	Pick Picker
	// Requests overrides the driver's per-stream completion count
	// (0 = driver default). -1 marks a probe stream: it keeps issuing
	// until every non-probe stream has finished, then stops — the shape
	// for latency probes that must stay live for exactly the contention
	// window.
	Requests int
	// Depth overrides the per-stream outstanding window (0 = driver
	// default). Latency probes usually want 1.
	Depth int
	// ThinkTime, when non-zero, is the mean of an exponential pause
	// between a completion and the next request: a sparse open-ish
	// arrival process instead of a saturating closed loop.
	ThinkTime sim.Time
	// Record captures this stream's read latency client-side.
	Record bool
	// Seed seeds the stream's RNG as given; callers salt it.
	Seed uint64
}

// LatencyStats summarises client-observed read latency.
type LatencyStats struct {
	Reads int64 `json:"reads"`
	sim.Latency
}

// StreamLatency pairs one recorded stream with its stats, in spec
// order (deterministic — no map iteration anywhere near results).
type StreamLatency struct {
	Name    string       `json:"name"`
	Latency LatencyStats `json:"latency"`
}

// RunResult aggregates a logical driver run.
type RunResult struct {
	Loop LoopResult `json:"loop"`
	// Recorded holds per-stream latency for every spec with Record
	// set, in spec order.
	Recorded []StreamLatency `json:"recorded,omitempty"`
	// Combined merges every recorded stream's read samples.
	Combined LatencyStats `json:"combined"`
	// ElapsedUs is the virtual time the run took (drain included).
	ElapsedUs float64 `json:"elapsed_us"`
	// FirstErr is the error of the first request that failed, nil when
	// none did. It is not serialized: Loop.Errors counts them.
	FirstErr error `json:"-"`
}

// latencyOf summarises one recorder.
func latencyOf(h *sim.Hist) LatencyStats {
	return LatencyStats{Reads: int64(h.Count()), Latency: h.Summary()}
}

// Run drives every spec as a closed-loop client holding `depth`
// requests outstanding until `requests` complete per stream (probe
// streams — Requests -1 — until all others finish), then drains the
// engine. Overload shows up as latency: a surface absorbs scheduler
// backpressure itself (the physical one counts it, RunClosedLoop).
//
// concurrent (when non-nil) is invoked once, before the drain, with a
// live() probe reporting whether any primary stream is still issuing.
// It is the hook for load that is not itself a page stream — in-store
// queries, a node kill, a rebuild — sharing exactly the window the
// streams define: schedule work, check live() before starting more.
func (st *Stack) Run(specs []ClientSpec, depth, requests int, concurrent func(live func() bool)) (RunResult, error) {
	if depth <= 0 || requests <= 0 {
		return RunResult{}, fmt.Errorf("workload: depth %d, requests %d", depth, requests)
	}
	l := &runLoop{eng: st.C.Eng, streams: make([]runStream, len(specs))}
	for i, sp := range specs {
		if sp.RW == nil || sp.Pick == nil {
			return RunResult{}, fmt.Errorf("workload: spec %d (%s): nil RW or Pick", i, sp.Name)
		}
		if sp.Requests >= 0 {
			l.primariesLeft++
		}
	}
	if l.primariesLeft == 0 {
		return RunResult{}, fmt.Errorf("workload: all %d streams are probes; nothing bounds the run", len(specs))
	}
	start := l.eng.Now()
	for i := range specs {
		s := &l.streams[i]
		*s = runStream{l: l, sp: &specs[i], rng: sim.NewRNG(specs[i].Seed), toIssue: requests, depth: depth}
		s.pick = s.sp.Pick(s.rng, st.C.Params.PageSize())
		if s.sp.Requests > 0 {
			s.toIssue = s.sp.Requests
		}
		if s.sp.Depth > 0 {
			s.depth = s.sp.Depth
		}
		s.done, s.readDone = s.complete, s.completeRead
		if s.sp.ThinkTime > 0 {
			s.issue = s.issueOne
			for j := 0; j < s.depth; j++ {
				l.eng.After(s.think(), s.issue)
			}
		} else {
			s.issueOne()
		}
	}
	if concurrent != nil {
		concurrent(func() bool { return l.primariesLeft > 0 })
	}
	st.C.Run()
	res := l.res
	res.ElapsedUs = (l.eng.Now() - start).Micros()
	var all sim.Hist
	for i := range l.streams {
		if s := &l.streams[i]; s.sp.Record {
			res.Recorded = append(res.Recorded, StreamLatency{Name: s.sp.Name, Latency: latencyOf(&s.lat)})
			all.Merge(&s.lat)
		}
	}
	res.Combined = latencyOf(&all)
	return res, nil
}

// runLoop is one Run: what its streams share.
type runLoop struct {
	eng           *sim.Engine
	res           RunResult
	primariesLeft int
	streams       []runStream
}

// runStream is one client stream of a run. Its completions are bound
// once, so an unrecorded read or a write allocates nothing here.
type runStream struct {
	l                        *runLoop
	sp                       *ClientSpec
	rng                      *sim.RNG
	pick                     func() (lpn int, payload []byte)
	toIssue, depth, inflight int
	finished                 bool
	lat                      sim.Hist            // recorded read latencies
	issue                    func()              // issueOne, bound for think timers
	done                     func(err error)     // complete
	readDone                 func([]byte, error) // completeRead
}

// think draws an exponential pause with mean ThinkTime; at least 1 ns
// so the event queue always advances.
func (s *runStream) think() sim.Time {
	ns := -math.Log(1-s.rng.Float64()) * float64(s.sp.ThinkTime)
	if ns < 1 {
		ns = 1
	}
	return sim.Time(ns)
}

func (s *runStream) completeRead(_ []byte, err error) { s.complete(err) }

func (s *runStream) complete(err error) {
	l := s.l
	s.inflight--
	l.res.Loop.Completed++
	if err != nil {
		if l.res.Loop.Errors == 0 {
			l.res.FirstErr = err
		}
		l.res.Loop.Errors++
	}
	if s.sp.Requests >= 0 && !s.finished && s.toIssue == 0 && s.inflight == 0 {
		s.finished = true
		l.primariesLeft--
	}
	if s.sp.ThinkTime > 0 {
		l.eng.After(s.think(), s.issue)
	} else {
		s.issueOne()
	}
}

func (s *runStream) issueOne() {
	for s.inflight < s.depth {
		if s.sp.Requests < 0 {
			// Probes stay live only for the contention window.
			if s.l.primariesLeft == 0 {
				return
			}
		} else if s.toIssue == 0 {
			return
		} else {
			s.toIssue--
		}
		s.inflight++
		lpn, payload := s.pick()
		if payload != nil {
			s.sp.RW.Write(lpn, payload, s.done)
		} else {
			cb := s.readDone
			if s.sp.Record {
				t0 := s.l.eng.Now()
				cb = func(_ []byte, err error) {
					s.lat.Add(s.l.eng.Now() - t0)
					s.complete(err)
				}
			}
			s.sp.RW.Read(lpn, cb)
		}
		if s.sp.ThinkTime > 0 {
			return // one at a time; the pause paces the rest
		}
	}
}
