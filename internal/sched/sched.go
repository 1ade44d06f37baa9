// Package sched is the multi-tenant request scheduler that admits
// concurrent client streams into a BlueDBM cluster.
//
// BlueDBM's performance story (paper §3.3, §6.5) depends on keeping
// thousands of flash requests in flight across the host interface,
// the controllers and the inter-controller network. This package is
// the seam where that concurrency is created and governed:
//
//   - every node has a bounded admission queue; when it is full the
//     scheduler reports backpressure (ErrBackpressure) to the caller
//     instead of queueing unboundedly;
//   - each stream carries a QoS class (Realtime, Interactive, Batch);
//     dispatch is strict-priority across classes with an aging escape
//     hatch so saturating low-priority traffic cannot invert priority
//     and a saturating high-priority tenant cannot starve the rest
//     forever;
//   - admitted requests are submitted to the device in batches via
//     core.Node.SubmitHostBatch, paying the host storage-stack
//     software overhead and RPC doorbell once per batch instead of
//     once per page — the dominant throughput lever of Figure 12;
//   - queued duplicate reads to the same page are coalesced into one
//     flash operation whose result fans out to every waiter.
//
// The scheduler runs entirely in virtual time on the cluster's event
// engine, so runs are exactly reproducible: same configuration and
// workload seed, same per-request latencies.
package sched

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/nand"
	"repro/internal/sim"
)

// Scheduler errors.
var (
	// ErrBackpressure reports that a node's admission queue is full.
	// The request was not admitted; the caller should back off and
	// retry (closed-loop clients) or drop (open-loop clients).
	ErrBackpressure = errors.New("sched: node admission queue full")
)

// Class is a stream's QoS class. Lower values dispatch first.
type Class uint8

// The five QoS classes. Realtime is for latency-critical point
// lookups, Interactive for ordinary user queries, Batch for scans and
// bulk loads that only care about throughput. Accel is in-store
// processor flash traffic: admitted and window-accounted like host
// traffic (so accelerators cannot bypass QoS arbitration and starve
// host streams), but issued on the device-side flash interfaces with
// no host software, doorbell or DMA charges, and capped by its own
// token budget (Config.AccelShare). Background is device housekeeping
// — FTL garbage-collection relocation and erase traffic from
// internal/volume — and is subject to GC-aware deferral: it may
// occupy only an urgency-scaled share of the device window (the GC
// token budget) so foreground tail latency survives collections.
//
// Tenant host streams use the classes below Accel; Accel requests
// enter only through AccelStream, and Background is reserved for the volume's GC traffic.
const (
	Realtime Class = iota
	Interactive
	Batch
	Accel
	Background
	NumClasses = 5
)

func (c Class) String() string {
	switch c {
	case Realtime:
		return "realtime"
	case Interactive:
		return "interactive"
	case Batch:
		return "batch"
	case Accel:
		return "accel"
	case Background:
		return "background"
	default:
		return fmt.Sprintf("class(%d)", uint8(c))
	}
}

// Config sizes the scheduler.
type Config struct {
	// QueueDepth bounds each node's admission queue (all classes
	// together). Submissions beyond it fail with ErrBackpressure.
	QueueDepth int
	// MaxInflight caps requests outstanding at one node's device. It
	// should not exceed the host interface's read buffer count; beyond
	// that requests just queue inside the device.
	MaxInflight int
	// BatchSize is the maximum number of requests submitted per
	// doorbell (one software + RPC charge per batch). 1 disables
	// batching and reproduces the naive one-op-per-doorbell host path.
	BatchSize int
	// AgingRounds is how many consecutive dispatch rounds a non-empty
	// class may be passed over before it is guaranteed one slot in the
	// next batch. It is the anti-starvation bound of the strict
	// priority policy.
	AgingRounds int
	// Coalesce merges queued duplicate reads to the same page into a
	// single flash operation.
	Coalesce bool
	// AccelShare is the fraction of the device window (MaxInflight)
	// that the Accel class — in-store processor flash reads — may
	// occupy per node: its token budget, mirroring the GC budget. ISP
	// reads are granted window slots by the dispatcher but issue on
	// the device-side flash interfaces (no host software, doorbell or
	// DMA), so this budget is the only thing bounding how hard
	// accelerators can hit a card while host streams share it. Zero
	// defaults to 0.5, and the budget never rounds below one slot:
	// there is deliberately no zero-budget setting, because an
	// admitted Accel read can ONLY ever issue through these tokens —
	// a zero budget would wedge it in the queue forever. A cluster
	// with no ISP traffic pays nothing for the reservation (the accel
	// dispatch pass is a no-op and the host classes use the full
	// window); to forbid ISP work entirely, don't open AccelStreams.
	AccelShare float64
	// GCDefer enables GC-aware dispatch of the Background class: each
	// node gets a token budget of device-window slots Background
	// requests may occupy, scaled by the node's GC urgency (the max of
	// its UrgencySource values). At zero urgency relocation
	// trickles one op at a time; as free-block headroom shrinks the
	// budget grows, and at critical urgency Background dispatches
	// unthrottled (host writes are about to stall anyway). False is
	// GC-oblivious dispatch: Background is just a fourth priority
	// class and a collection may flood the whole device window.
	GCDefer bool
}

// DefaultConfig returns the production configuration: deep admission
// queues, device-saturating inflight window, 16-request doorbells.
func DefaultConfig() Config {
	return Config{
		QueueDepth:  1024,
		MaxInflight: 128,
		BatchSize:   16,
		AgingRounds: 8,
		Coalesce:    true,
		AccelShare:  0.5,
		GCDefer:     true,
	}
}

// defaultAccelShare applies when Config.AccelShare is left zero.
const defaultAccelShare = 0.5

// gcCriticalUrgency is the urgency at which Background dispatch stops
// being throttled entirely: the free pool is nearly dry and deferring
// relocation further only converts read tail latency into a full
// write stall.
const gcCriticalUrgency = 0.875

func (c Config) validate() error {
	if c.QueueDepth <= 0 {
		return fmt.Errorf("sched: queue depth %d", c.QueueDepth)
	}
	if c.MaxInflight <= 0 {
		return fmt.Errorf("sched: max inflight %d", c.MaxInflight)
	}
	if c.BatchSize <= 0 {
		return fmt.Errorf("sched: batch size %d", c.BatchSize)
	}
	if c.AgingRounds <= 0 {
		return fmt.Errorf("sched: aging rounds %d", c.AgingRounds)
	}
	if c.AccelShare < 0 || c.AccelShare > 1 {
		return fmt.Errorf("sched: accel share %.2f out of [0,1]", c.AccelShare)
	}
	return nil
}

// request is one admitted (or coalesced) operation. class is the
// scheduling class and may rise via priority inheritance; statClass
// is the submitter's class and is what metrics are recorded under.
type request struct {
	class     Class
	statClass Class
	addr      core.PageAddr
	write     bool
	erase     bool
	// accel marks a device-side ISP read: admitted at the node that
	// owns the flash page, granted a window slot under the Accel token
	// budget, and issued from the origin node's ISP path instead of
	// riding a host doorbell batch.
	accel  bool
	origin int // issuing node of an accel read
	// data is a write's page image (nand.Geometry.PageImage), adopted at
	// admission and handed to the node at dispatch; size remembers its
	// length for the byte counters once the request no longer holds it.
	data []byte
	size int
	rcb  func(data []byte, err error)
	wcb  func(err error)
	enq  sim.Time
	// followers are coalesced duplicate reads riding this request's
	// flash operation; they hold no queue slot of their own.
	followers []*request

	// Pool plumbing: requests are recycled through Scheduler.reqs, so
	// the per-dispatch completion callback is bound once, when the
	// request is made, instead of once per doorbell. nq is the queue
	// the request is currently admitted to (rebound on every reuse);
	// done forwards device completions to nq.complete.
	nq   *nodeQueue
	done func(data []byte, err error)
}

// newRequest is Scheduler.reqs.New: it binds the request's reusable
// callbacks to its identity.
func newRequest() *request {
	r := &request{}
	r.done = func(data []byte, err error) { r.nq.complete(r, data, err) }
	return r
}

// reset zeroes a finished (or refused) request for its return to the
// pool, keeping the bound callbacks and the follower list's capacity.
// The caller must guarantee no outstanding reference: completion has
// fired and the request is in no queue, table or follower list. A
// write's image is dropped, not kept: it went down at dispatch, or —
// the admission was refused — it is its submitter's again.
//
//simlint:hotpath
func (r *request) reset() {
	*r = request{
		followers: r.followers[:0],
		done:      r.done,
	}
}

// Scheduler admits streams into one cluster.
type Scheduler struct {
	cluster *core.Cluster
	eng     *sim.Engine
	geo     nand.Geometry
	cfg     Config
	nodes   []*nodeQueue
	stats   stats

	reqs sim.Pool[request]
}

// New attaches a scheduler to a cluster. The scheduler shares the
// cluster's event engine; it has no goroutines and is safe exactly
// like the rest of the simulation: single-threaded, deterministic.
func New(cluster *core.Cluster, cfg Config) (*Scheduler, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	s := &Scheduler{cluster: cluster, eng: cluster.Eng, geo: cluster.Params.Geometry, cfg: cfg}
	s.reqs.New = newRequest
	cluster.OnCheck(func() error { return s.reqs.Drained("sched requests") })
	for i := 0; i < cluster.Nodes(); i++ {
		s.nodes = append(s.nodes, newNodeQueue(s, cluster.Node(i)))
	}
	s.stats.init(cluster.Eng)
	return s, nil
}

// UrgencySource adds one source of Background urgency to a node — a
// card's reclaimer, a rebuild, a cache's flush pressure — and returns
// its setter. Each source reports how badly its Background work needs
// to run, from 0 (plenty of headroom) to 1 (writes about to stall),
// clamped to that range; the node's urgency is the max over its
// sources, and the dispatcher scales the node's GC token budget with
// it. A change of the max may unblock deferred Background work, so it
// kicks a dispatch round.
func (s *Scheduler) UrgencySource(node int) func(u float64) {
	nq := s.nodes[node]
	i := len(nq.urgency)
	nq.urgency = append(nq.urgency, 0)
	return func(u float64) {
		nq.urgency[i] = min(max(u, 0), 1)
		if m := slices.Max(nq.urgency); m != nq.gcUrgency {
			nq.gcUrgency = m
			nq.kick()
		}
	}
}

// nodeQueue is the per-node admission and dispatch state.
type nodeQueue struct {
	s    *Scheduler
	node *core.Node

	q      [NumClasses]sim.Queue[*request]
	qlen   int
	peak   int
	starve [NumClasses]int

	inflight int
	// bgInflight counts Background-class requests in the device
	// window; the GC token budget caps it.
	bgInflight int
	// accelInflight counts Accel-class reads in the device window; the
	// accel token budget (Config.AccelShare) caps it.
	accelInflight int
	urgency       []float64 // one per UrgencySource
	gcUrgency     float64   // their max
	kicked        bool
	// ringing is true while a doorbell's software work occupies the
	// node's submission thread. The thread is serial, so ringing a
	// second doorbell early would only commit queued requests to a
	// smaller batch; instead the queue accumulates until the thread
	// frees — adaptive batching: single requests at light load, full
	// batches under pressure.
	ringing bool

	// pendingReads indexes queued (not yet dispatched) reads by page
	// for coalescing; occupancy is bounded by QueueDepth. It is only
	// ever looked up, stored into and deleted from — never ranged, so
	// Go's randomized map order cannot reach the simulation (simlint's
	// maprange).
	pendingReads map[core.PageAddr]*request

	// kickFn and ringFn are the dispatch-round and doorbell-issued
	// callbacks, bound once so kick() and dispatchHost() never
	// allocate a closure (a method value would).
	kickFn func()
	ringFn func()

	// batch is the dispatch scratch list and reqs the doorbell it is
	// turned into, both reused across doorbells.
	batch []*request
	reqs  []core.HostReq
}

func newNodeQueue(s *Scheduler, node *core.Node) *nodeQueue {
	nq := &nodeQueue{s: s, node: node, pendingReads: make(map[core.PageAddr]*request)}
	nq.kickFn = func() {
		nq.kicked = false
		nq.dispatch()
	}
	nq.ringFn = func() {
		nq.ringing = false
		nq.kick()
	}
	return nq
}

// admit enqueues a request, or reports backpressure and recycles it:
// either way the request is the queue's from here. Coalesced reads
// piggyback on an already-queued read and consume no queue slot.
// Accel reads never coalesce with host reads (or each other): the two
// paths complete through different hardware (device-side scan vs host
// DMA), so sharing one flash op would skip real work for one of them.
func (nq *nodeQueue) admit(r *request) error {
	r.nq = nq
	if !r.write && !r.erase && !r.accel && nq.s.cfg.Coalesce {
		if lead := nq.pendingReads[r.addr]; lead != nil {
			lead.followers = append(lead.followers, r)
			nq.s.stats.class(r.statClass).coalesced++
			// Priority inheritance: a high-priority follower must not
			// inherit a low-priority lead's queue wait — that would be
			// priority inversion through the coalescing map. Promote
			// the lead into the follower's class instead.
			if r.class < lead.class {
				nq.promote(lead, r.class)
			}
			return nil
		}
	}
	if nq.qlen >= nq.s.cfg.QueueDepth {
		nq.s.stats.class(r.statClass).rejected++
		r.reset()
		nq.s.reqs.Put(r)
		return ErrBackpressure
	}
	if r.write && nq.s.cfg.Coalesce {
		// A write to this page fences coalescing: a read admitted
		// after it must not ride a read queued before it, which would
		// GUARANTEE it pre-write data. Note this is all the fence
		// provides — the scheduler does not order reads after writes
		// to the same page in general (priority classes and the
		// device pipeline may reorder them); tenants that need
		// read-your-write must await the write's completion, as the
		// workload drivers' disjoint read/log regions do by design.
		delete(nq.pendingReads, r.addr)
	}
	nq.q[r.class].Push(r)
	nq.qlen++
	if nq.qlen > nq.peak {
		nq.peak = nq.qlen
	}
	if !r.write && !r.erase && !r.accel && nq.s.cfg.Coalesce {
		nq.pendingReads[r.addr] = r
	}
	nq.kick()
	return nil
}

// kick schedules a dispatch round if one is useful and not already
// scheduled. Dispatch runs as a zero-delay event so that a burst of
// submissions in the same instant forms one batch instead of many.
// While a doorbell's software occupies the submission thread, only
// Accel work can dispatch — the ISP path needs no host thread.
//
//simlint:hotpath
func (nq *nodeQueue) kick() {
	if nq.kicked || nq.qlen == 0 || nq.inflight >= nq.s.cfg.MaxInflight {
		return
	}
	if nq.ringing && !nq.accelReady() {
		return
	}
	nq.kicked = true
	nq.s.eng.After(0, nq.kickFn)
}

// accelReady reports whether a queued Accel read could be granted a
// slot right now under the accel token budget.
func (nq *nodeQueue) accelReady() bool {
	return nq.q[Accel].Len() > 0 && nq.accelTokens() > 0
}

// dispatch runs one round: device-side Accel grants up to the accel
// token budget, then a host doorbell batch (when the submission
// thread is free) over the remaining window. Granting Accel first
// makes the token budget a RESERVATION, not just a cap: under
// saturating host load the window would otherwise always be full
// when accel's turn came, and in-store processing would starve on
// leftovers — the inverse of the bug this class exists to fix. The
// budget is small (AccelShare of the window), and host latency
// classes take the rest strict-priority first, so realtime tail
// latency stays protected.
//
//simlint:hotpath
func (nq *nodeQueue) dispatch() {
	nq.dispatchAccel()
	if !nq.ringing {
		nq.dispatchHost()
	}
}

// dispatchHost forms one batch and rings one doorbell. At most one
// doorbell occupies the submission thread at a time (see ringing);
// while its software runs, arrivals and freed inflight slots
// accumulate so the next doorbell carries a bigger batch. The Accel
// class never joins a doorbell batch: its requests issue device-side
// (see dispatchAccel).
//
//simlint:hotpath
func (nq *nodeQueue) dispatchHost() {
	budget := nq.s.cfg.BatchSize
	if room := nq.s.cfg.MaxInflight - nq.inflight; room < budget {
		budget = room
	}
	if budget > nq.qlen {
		budget = nq.qlen
	}
	if budget <= 0 {
		return
	}

	batch := nq.batch[:0]
	var took [NumClasses]int
	bgTaken := 0
	// Aging pass: any class starved for AgingRounds consecutive
	// rounds gets one guaranteed slot, lowest priority first so the
	// most starved traffic is served before the escape hatch fills.
	// Background's escape slot still honours the GC token budget: a
	// zero budget means relocation work is already in flight, so the
	// class is making progress, not starving.
	for cl := NumClasses - 1; cl >= 0 && len(batch) < budget; cl-- {
		if Class(cl) == Accel {
			continue // never rides a doorbell; see dispatchAccel
		}
		if nq.starve[cl] >= nq.s.cfg.AgingRounds && nq.q[cl].Len() > 0 {
			if Class(cl) == Background && nq.gcTokens(bgTaken) == 0 {
				continue
			}
			batch = append(batch, nq.pop(Class(cl)))
			took[cl]++
			if Class(cl) == Background {
				bgTaken++
			}
		}
	}
	// Strict priority for the remaining slots. Background fills last
	// and only up to the node's GC token budget.
	for cl := Class(0); cl < NumClasses && len(batch) < budget; cl++ {
		if cl == Accel {
			continue
		}
		for nq.q[cl].Len() > 0 && len(batch) < budget {
			if cl == Background && nq.gcTokens(bgTaken) == 0 {
				break
			}
			batch = append(batch, nq.pop(cl))
			took[cl]++
			if cl == Background {
				bgTaken++
			}
		}
	}
	for cl := 0; cl < NumClasses; cl++ {
		if Class(cl) == Accel {
			continue // token-paced, not starving; never age-boosted
		}
		switch {
		case took[cl] > 0 || nq.q[cl].Len() == 0:
			nq.starve[cl] = 0
		default:
			nq.starve[cl]++
		}
	}

	if len(batch) == 0 {
		// Only Background work is queued and its token budget is spent:
		// the in-flight relocation ops will kick a new round when they
		// complete (or a higher urgency raises the budget).
		nq.batch = batch
		return
	}
	nq.inflight += len(batch)
	nq.bgInflight += bgTaken
	nq.ringing = true
	nq.s.stats.batches++
	nq.s.stats.batchedReqs += int64(len(batch))
	reqs := nq.reqs[:0]
	for _, r := range batch {
		reqs = append(reqs, core.HostReq{
			Addr:       r.addr,
			Write:      r.write,
			Erase:      r.erase,
			Background: r.class == Background,
			Data:       r.data,
			Done:       r.done,
		})
		r.data = nil // handed down: the node adopts a write's image
	}
	for i := range batch {
		batch[i] = nil
	}
	nq.batch = batch[:0]
	nq.node.SubmitHostBatch(reqs, nq.ringFn) // copies reqs
	clear(reqs)                              // the buffer must not keep images or callbacks alive
	nq.reqs = reqs
}

// dispatchAccel grants queued Accel-class reads device-window slots —
// up to the accel token budget — and issues each on the device-side
// ISP path from its origin node: the FPGA arbiter hands flash access
// to the in-store processor directly, with no doorbell, no submission
// thread, and no host DMA. The grant still occupies a window slot, so
// the dispatcher's picture of device occupancy includes ISP traffic —
// the whole point of admitting it here.
//
//simlint:hotpath
func (nq *nodeQueue) dispatchAccel() {
	for nq.q[Accel].Len() > 0 && nq.inflight < nq.s.cfg.MaxInflight && nq.accelTokens() > 0 {
		r := nq.pop(Accel)
		nq.inflight++
		nq.accelInflight++
		nq.s.cluster.Node(r.origin).ISPReadDirect(r.addr, r.done)
	}
}

// accelTokens returns how many more Accel reads may be granted window
// slots right now: the accel token budget, a fixed share of the
// device window (Config.AccelShare), never below one slot.
func (nq *nodeQueue) accelTokens() int {
	share := nq.s.cfg.AccelShare
	if share == 0 {
		share = defaultAccelShare
	}
	budget := int(share * float64(nq.s.cfg.MaxInflight))
	if budget < 1 {
		budget = 1
	}
	t := budget - nq.accelInflight
	if t < 0 {
		return 0
	}
	return t
}

// promote moves a queued read to a higher-priority class queue (its
// accounting moves with it). Only reads are ever promoted, so NAND
// write ordering is unaffected.
//
//simlint:hotpath
func (nq *nodeQueue) promote(lead *request, to Class) {
	q := &nq.q[lead.class]
	for i := 0; i < q.Len(); i++ {
		if q.At(i) == lead {
			q.RemoveAt(i)
			break
		}
	}
	lead.class = to
	nq.q[to].Push(lead)
}

// pop removes the FIFO head of one class queue.
//
//simlint:hotpath
func (nq *nodeQueue) pop(cl Class) *request {
	r := nq.q[cl].Pop()
	nq.qlen--
	// A read leaves the index only while it is still its address's
	// lead: a write may have fenced it off and a later read taken over.
	if !r.write && nq.s.cfg.Coalesce && nq.pendingReads[r.addr] == r {
		delete(nq.pendingReads, r.addr)
	}
	return r
}

// gcTokens returns how many more Background requests may join the
// current batch: the GC token budget. The budget is the share of the
// device window Background may occupy — one slot at zero urgency,
// growing linearly with urgency, the full window at critical urgency
// or under GC-oblivious dispatch.
func (nq *nodeQueue) gcTokens(taken int) int {
	mi := nq.s.cfg.MaxInflight
	cap := mi
	if nq.s.cfg.GCDefer && nq.gcUrgency < gcCriticalUrgency {
		// Quadratic in urgency: mild deficits below the FTLs'
		// low-water marks earn little extra device share; only real
		// headroom pressure opens the window up.
		cap = 1 + int(float64(mi-1)*nq.gcUrgency*nq.gcUrgency)
	}
	t := cap - nq.bgInflight - taken
	if t < 0 {
		return 0
	}
	return t
}

// complete finishes a dispatched request and every coalesced follower.
//
// Ownership: a read delivers its result as the device handed it up —
// as a rule the image the card stores — to the lead and to every
// coalesced follower alike. Page images are immutable
// (nand.Geometry.PageImage), so handing one buffer to several
// requesters needs no signal and no copy: each may keep it, and a
// relocation among them may program that very buffer back; none may
// write to it.
//
//simlint:hotpath
func (nq *nodeQueue) complete(r *request, data []byte, err error) {
	nq.inflight--
	if r.class == Background {
		nq.bgInflight--
	}
	if r.accel {
		nq.accelInflight--
	}
	nq.s.finish(r, data, err)
	for i, f := range r.followers {
		nq.s.finish(f, data, err)
		f.reset()
		nq.s.reqs.Put(f)
		r.followers[i] = nil
	}
	r.reset()
	nq.s.reqs.Put(r)
	nq.kick()
}

// finish records per-class metrics and fires the caller's callback.
func (s *Scheduler) finish(r *request, data []byte, err error) {
	agg := s.stats.class(r.statClass)
	agg.ops++
	agg.lat.AddTime(s.eng.Now() - r.enq)
	switch {
	case err != nil:
		agg.errors++
	case r.erase:
		// no data moved
	case r.write:
		agg.bytes += int64(r.size)
	default:
		agg.bytes += int64(len(data))
	}
	if r.write || r.erase {
		r.wcb(err)
	} else {
		r.rcb(data, err)
	}
}
