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
	// ErrOutOfRange marks a node index outside the cluster or a class
	// past the last.
	ErrOutOfRange = errors.New("sched: node or class out of range")
)

// Class is a stream's QoS class. Lower values dispatch first.
type Class uint8

// The five QoS classes. Realtime is for latency-critical point
// lookups, Interactive for ordinary user queries, Batch for scans and
// bulk loads that only care about throughput. Accel is in-store
// processor flash traffic: admitted at the node that owns the page like
// host traffic (so accelerators cannot bypass QoS arbitration), but
// issued on the device-side flash interfaces with no host software,
// doorbell or DMA charges, outside the host's device window, and capped
// by its own token budget, the chips' read depth
// (core.Params.ReadDepth). Background is device housekeeping
// — FTL garbage-collection relocation and erase traffic from
// internal/volume — and is subject to GC-aware deferral: it may
// occupy only an urgency-scaled share of the device window (the GC
// token budget) so foreground tail latency survives collections.
//
// Tenant host streams use the classes below Accel; an Accel stream
// only reads, and Background is what a Port sends a page log's own
// traffic on.
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
	// MaxInflight caps host requests outstanding at one node's device:
	// the host's device window, a latency setting for host traffic.
	// It should not exceed the host interface's read buffer count;
	// beyond that requests just queue inside the device. Accel reads
	// take no slot of it.
	MaxInflight int
	// BatchSize is the maximum number of requests submitted per
	// doorbell (one software + RPC charge per batch). 1 disables
	// batching and reproduces the naive one-op-per-doorbell host path.
	BatchSize int
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
		GCDefer:     true,
	}
}

// agingRounds is how many consecutive dispatch rounds a non-empty
// class may be passed over before it is guaranteed one slot in the
// next batch: the anti-starvation bound of the strict priority policy.
const agingRounds = 8

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
	// origin is the issuing node of an Accel read, a device-side ISP
	// read: admitted at the node that owns the flash page, granted
	// under the Accel token budget, and issued from the origin node's
	// ISP path instead of riding a host doorbell batch.
	origin int
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
	// accelBudget is how many Accel reads one node may have granted at
	// once: the chips' read depth, the depth an in-store engine asks for.
	accelBudget int
	nodes       []*nodeQueue
	stats       stats

	reqs sim.Pool[request]
}

// New attaches a scheduler to a cluster. The scheduler shares the
// cluster's event engine; it has no goroutines and is safe exactly
// like the rest of the simulation: single-threaded, deterministic.
func New(cluster *core.Cluster, cfg Config) (*Scheduler, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	s := &Scheduler{cluster: cluster, eng: cluster.Eng, geo: cluster.Params.Geometry, cfg: cfg,
		accelBudget: cluster.Params.ReadDepth()}
	s.reqs.New = newRequest
	cluster.OnCheck(func() error { return s.reqs.Drained("sched requests") })
	for i := 0; i < cluster.Nodes(); i++ {
		s.nodes = append(s.nodes, newNodeQueue(s, cluster.Node(i)))
	}
	s.stats.reset(cluster.Eng)
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

	// q holds the queued host requests by class, accel the Accel
	// reads, which never ride a doorbell; qlen counts both.
	q      [NumClasses]sim.Queue[*request]
	accel  sim.Queue[*request]
	qlen   int
	peak   int
	starve [NumClasses]int

	// inflight counts host requests in the device window (MaxInflight
	// caps it); bgInflight the Background ones among them, which the GC
	// token budget caps.
	inflight, bgInflight int
	// accelInflight counts granted Accel reads, outside the window; the
	// accel token budget caps it.
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
	if !r.write && !r.erase && r.class != Accel {
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
	if r.write {
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
	q := &nq.q[r.class]
	if r.class == Accel {
		q = &nq.accel
	}
	q.Push(r)
	nq.qlen++
	if nq.qlen > nq.peak {
		nq.peak = nq.qlen
	}
	if !r.write && !r.erase && r.class != Accel {
		nq.pendingReads[r.addr] = r
	}
	nq.kick()
	return nil
}

// kick schedules a dispatch round if one is useful and not already
// scheduled. Dispatch runs as a zero-delay event so that a burst of
// submissions in the same instant forms one batch instead of many.
// Host work dispatches while the submission thread is free and the
// window has room; Accel work whenever its budget has a token — the
// ISP path needs neither.
func (nq *nodeQueue) kick() {
	if nq.kicked || nq.qlen == 0 {
		return
	}
	if (nq.ringing || nq.inflight >= nq.s.cfg.MaxInflight) && !nq.accelReady() {
		return
	}
	nq.kicked = true
	nq.s.eng.After(0, nq.kickFn)
}

// accelReady reports whether a queued Accel read could be granted
// right now under the accel token budget.
func (nq *nodeQueue) accelReady() bool {
	return nq.accel.Len() > 0 && nq.accelInflight < nq.s.accelBudget
}

// dispatch runs one round: device-side Accel grants up to the accel
// token budget, then a host doorbell batch (when the submission
// thread is free) over the host window. The two draw on separate
// budgets, so neither waits for the other's slots; at the chip, an
// Accel read yields to host commands (nand.Card.ReadPageBulk).
func (nq *nodeQueue) dispatch() {
	nq.dispatchAccel()
	if !nq.ringing {
		nq.dispatchHost()
	}
}

// dispatchHost forms one batch and rings one doorbell. At most one
// doorbell occupies the submission thread at a time (see ringing);
// while its software runs, arrivals and freed inflight slots
// accumulate so the next doorbell carries a bigger batch. Accel reads
// wait in a queue of their own and never join a doorbell batch: they
// issue device-side (see dispatchAccel), so q[Accel] stays empty.
func (nq *nodeQueue) dispatchHost() {
	budget := min(nq.s.cfg.BatchSize, nq.s.cfg.MaxInflight-nq.inflight, nq.qlen)
	if budget <= 0 {
		return
	}

	batch := nq.batch[:0]
	var took [NumClasses]int
	bgTaken := 0
	// Aging pass: any class starved for agingRounds consecutive
	// rounds gets one guaranteed slot, lowest priority first so the
	// most starved traffic is served before the escape hatch fills.
	// Background's escape slot still honours the GC token budget: a
	// zero budget means relocation work is already in flight, so the
	// class is making progress, not starving.
	for cl := NumClasses - 1; cl >= 0 && len(batch) < budget; cl-- {
		if nq.starve[cl] >= agingRounds && nq.q[cl].Len() > 0 {
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

// dispatchAccel grants queued Accel-class reads up to the accel token
// budget and issues each on the device-side ISP path from its origin
// node (core.Node.ISPReadAdmitted, which yields to ordinary commands
// at the chip): the FPGA arbiter hands flash access to the in-store
// processor directly, with no doorbell, no submission thread, no host
// DMA and no slot of the host's device window (paper §3.1).
func (nq *nodeQueue) dispatchAccel() {
	for nq.accelReady() {
		r := nq.accel.Pop()
		nq.qlen--
		nq.accelInflight++
		nq.s.cluster.Node(r.origin).ISPReadAdmitted(r.addr, r.done)
	}
}

// promote moves a queued read to a higher-priority class queue (its
// accounting moves with it). Only reads are ever promoted, so NAND
// write ordering is unaffected.
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
func (nq *nodeQueue) pop(cl Class) *request {
	r := nq.q[cl].Pop()
	nq.qlen--
	// A read leaves the index only while it is still its address's
	// lead: a write may have fenced it off and a later read taken over.
	if !r.write && nq.pendingReads[r.addr] == r {
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
	return max(0, cap-nq.bgInflight-taken)
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
func (nq *nodeQueue) complete(r *request, data []byte, err error) {
	switch {
	case r.class == Accel:
		nq.accelInflight--
	case r.class == Background:
		nq.inflight--
		nq.bgInflight--
	default:
		nq.inflight--
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
	agg.lat.Add(s.eng.Now() - r.enq)
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
