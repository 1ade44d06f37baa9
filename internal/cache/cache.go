// Package cache is the per-node host-DRAM tier above internal/volume:
// a page-granular read/write-back cache whose capacity and hit
// bandwidth are bounded by the node's hostmodel envelope. A miss has
// one path: a fill through the volume.
//
// Shape of the tier (paper §6.2, Figures 17/21):
//
//   - Hits are charged through hostmodel.CPU.ReadDRAM, so cache
//     traffic contends with ISP merge and host software for the same
//     DRAM-bandwidth pipe instead of being free.
//   - Eviction is CLOCK over dense, allocation-free state: one entry
//     array, an lpn index, pooled completion contexts (sim.Pool), and
//     per slot a frame that is either a view or a slab frame. A view is
//     the immutable page image a fill delivered, shared as it stands,
//     so a miss copies no payload; a slab frame is the slot's stretch
//     of one backing page slab and holds bytes the cache wrote itself.
//     The lookup/hit/fill/evict path and the invalidation send path are
//     simlint hotpath-clean and pinned at zero steady-state allocations
//     by AllocsPerRun tests.
//   - Dirty pages flush to the volume on the scheduler's Background
//     class (ftl.TagFlush), admitted through the same urgency token
//     budget as GC and rebuild: each node's cache reports dirty-page
//     pressure through its own Volume.UrgencySource, so flushing stays
//     invisible to foreground latency until the dirty fraction climbs.
//   - Cross-node coherence rides invalidation messages on a dedicated
//     fabric endpoint (InvalidateEP). Invalidations are broadcast when
//     a write becomes flash-visible — at flush or write-through
//     completion, not at write-admission — so a remote re-read after
//     invalidation observes the new data on flash. Remote copies that
//     are locally dirty or mid-flush are kept (concurrent writers are
//     unordered; the last flusher wins). Clean remote copies drop,
//     in-flight remote fills are poisoned.
//
// Consistency contract: reads and writes racing on the same page are
// unordered (as in the underlying volume); a read concurrent with a
// write may observe either version. A node always observes its own
// writes in order.
package cache

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/hostmodel"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/volume"
)

// InvalidateEP is the fabric endpoint the cache binds on every node
// for coherence traffic. core.EPUser is left free for an application,
// EPUser+1 is ispvol's merge endpoint; +2 is reserved here.
const InvalidateEP = core.EPUser + 2

// invBytes is the wire size of one invalidation message: an 8-byte
// lpn plus the usual header's worth of framing.
const invBytes = 16

// ErrOutOfRange marks page numbers outside the volume and node indices
// outside the cluster.
var ErrOutOfRange = errors.New("cache: page out of range")

// Config sizes the cache tier.
type Config struct {
	// CapacityPages is the per-node DRAM cache capacity in pages.
	CapacityPages int
}

// DefaultConfig returns a cache of capacityPages per node.
func DefaultConfig(capacityPages int) Config {
	return Config{CapacityPages: capacityPages}
}

const (
	// flushDepth bounds concurrent Background flush writes per node.
	flushDepth = 8
	// flushLowWater / flushHighWater map the dirty-page fraction onto
	// the Background urgency reported to the scheduler: urgency 0 at
	// or below low water, 1 at or above high water — the same feedback
	// shape the FTL's GC urgency uses.
	flushLowWater  = 0.25
	flushHighWater = 0.75
)

// entry states.
const (
	stEmpty   uint8 = iota // slot unused
	stFilling              // volume read in flight to populate the frame
	stClean                // matches flash
	stDirty                // newer than flash, awaiting flush
	stWriting              // flush write in flight
	stDead                 // invalidated while pinned; freed at unpin
)

// entry is one page frame's metadata. Dense and index-addressed: the
// frame bytes are the slot's view or its stretch of the node's slab.
type entry struct {
	lpn      int64
	state    uint8
	ref      bool  // CLOCK reference bit
	poisoned bool  // invalidated while filling: do not install
	redirty  bool  // written while the flush was in flight
	pins     int32 // in-flight DRAM hit transfers against the frame
}

// Cache is the cluster-wide cache tier: one nodeCache per node plus
// the shared volume streams.
type Cache struct {
	v     *volume.Volume
	ps    int // page size
	pages int // volume logical pages

	nodes    []*nodeCache
	vstreams [sched.NumClasses]*volume.Stream

	invPool sim.Pool[invMsg]
	invSent int64
}

// invMsg is one pooled invalidation payload, shared by the fan-out of
// a single broadcast and recycled when the last receiver consumed it.
type invMsg struct {
	lpn  int64
	refs int32
}

// nodeCache is one node's DRAM cache: dense entries, per-slot views,
// one page slab, an lpn index, and pooled completion contexts.
type nodeCache struct {
	c    *Cache
	node int
	cpu  *hostmodel.CPU
	inv  *fabric.Endpoint

	entries []entry
	// view[slot] is the page image the slot's fill delivered, nil once
	// the cache writes the frame or frees the slot. Images are
	// immutable, so the cache never writes through a view.
	view [][]byte
	data []byte // CapacityPages * pageSize slab: the frames the cache wrote
	// index maps a resident lpn to its slot. It is only ever looked up,
	// stored into and deleted from — never ranged, so Go's randomized
	// map order cannot reach the simulation (simlint's maprange).
	index map[int64]int32
	free  []int32 // unused slot stack

	hand      int // CLOCK hand
	flushHand int // dirty-page sweep hand
	used      int
	dirty     int
	flushing  int
	urg       func(u float64) // the node's cache urgency source

	hitPool   sim.Pool[hitCtx]
	fillPool  sim.Pool[fillCtx]
	wackPool  sim.Pool[wackCtx]
	flushPool sim.Pool[flushCtx]

	// counters (aggregated in Stats)
	hits           int64
	misses         int64
	writeHits      int64
	writeAllocs    int64
	writeThroughs  int64
	flushes        int64
	flushErrors    int64
	evictions      int64
	invApplied     int64
	invIgnoredDirt int64
	fillsPoisoned  int64
}

// New builds the cache tier over cluster c and volume v. It binds
// InvalidateEP on every node and opens one shared volume stream per
// tenant class for miss fills.
func New(c *core.Cluster, v *volume.Volume, cfg Config) (*Cache, error) {
	if cfg.CapacityPages <= 0 {
		return nil, fmt.Errorf("cache: invalid capacity %d", cfg.CapacityPages)
	}
	ca := &Cache{v: v, ps: v.PageSize(), pages: v.Pages()}
	ca.invPool.New = func() *invMsg { return &invMsg{} }
	for _, cl := range []sched.Class{sched.Realtime, sched.Interactive, sched.Batch} {
		vs, err := v.NewStream(fmt.Sprintf("cache/fill%d", cl), cl)
		if err != nil {
			return nil, err
		}
		ca.vstreams[cl] = vs
	}
	for n := 0; n < c.Nodes(); n++ {
		nc := &nodeCache{
			c:       ca,
			node:    n,
			cpu:     c.Node(n).CPU,
			entries: make([]entry, cfg.CapacityPages),
			view:    make([][]byte, cfg.CapacityPages),
			data:    make([]byte, cfg.CapacityPages*ca.ps),
			index:   make(map[int64]int32, cfg.CapacityPages),
			free:    make([]int32, 0, cfg.CapacityPages),
			urg:     v.UrgencySource(n),
		}
		nc.hitPool.New = nc.newHitCtx
		nc.wackPool.New = nc.newWackCtx
		nc.fillPool.New = nc.newFillCtx
		nc.flushPool.New = nc.newFlushCtx
		for i := cfg.CapacityPages - 1; i >= 0; i-- {
			nc.free = append(nc.free, int32(i))
		}
		ep, err := c.Node(n).NetNode().BindEndpoint(InvalidateEP)
		if err != nil {
			return nil, err
		}
		nc.inv = ep
		ep.OnReceive = func(src fabric.NodeID, size int, payload any) {
			m := payload.(*invMsg)
			nc.applyInv(m.lpn)
			m.refs--
			if m.refs == 0 {
				ca.invPool.Put(m)
			}
		}
		ca.nodes = append(ca.nodes, nc)
	}
	c.OnCheck(func() error {
		errs := []error{ca.invPool.Drained("cache invalidations")}
		for _, nc := range ca.nodes {
			errs = append(errs, nc.hitPool.Drained("cache hits"), nc.wackPool.Drained("cache write acks"),
				nc.fillPool.Drained("cache fills"), nc.flushPool.Drained("cache flushes"))
		}
		return errors.Join(errs...)
	})
	return ca, nil
}

// Stream is a QoS-classed cache handle for clients on one node: hits
// are served from that node's DRAM, misses fill through the volume at
// the stream's class.
type Stream struct {
	nc *nodeCache
	vs *volume.Stream
}

// NewStream opens a cache stream for clients running on the given
// node. As with volume streams, Accel and Background are reserved.
func (c *Cache) NewStream(name string, node int, class sched.Class) (*Stream, error) {
	if class >= sched.Accel {
		return nil, fmt.Errorf("cache: %w: %v", volume.ErrReservedClass, class)
	}
	if node < 0 || node >= len(c.nodes) {
		return nil, fmt.Errorf("%w: node %d of %d", ErrOutOfRange, node, len(c.nodes))
	}
	return &Stream{nc: c.nodes[node], vs: c.vstreams[class]}, nil
}

// frame returns the page bytes of one slot, to be read only: its view
// when it holds one, else its slab frame.
//
//simlint:hotpath
func (nc *nodeCache) frame(slot int32) []byte {
	if v := nc.view[slot]; v != nil {
		return v
	}
	ps := nc.c.ps
	return nc.data[int(slot)*ps : int(slot)*ps+ps]
}

// slab drops the slot's view and returns its slab frame: the one place
// the cache writes page bytes. Every caller overwrites the whole page.
//
//simlint:hotpath
func (nc *nodeCache) slab(slot int32) []byte {
	nc.view[slot] = nil
	return nc.frame(slot)
}

// --- slot allocation (CLOCK) ------------------------------------------

// takeSlot returns a free or evictable slot, or -1 when every frame is
// pinned, dirty, or in flight. Eviction is CLOCK: sweep clean unpinned
// entries clearing reference bits; evict the first unreferenced one.
// The evicted entry is removed from the index; the caller installs the
// new page.
//
//simlint:hotpath
func (nc *nodeCache) takeSlot() int32 {
	if n := len(nc.free); n > 0 {
		s := nc.free[n-1]
		nc.free = nc.free[:n-1]
		return s
	}
	n := len(nc.entries)
	for i := 0; i < 2*n; i++ {
		h := nc.hand
		nc.hand++
		if nc.hand == n {
			nc.hand = 0
		}
		e := &nc.entries[h]
		if e.state != stClean || e.pins > 0 {
			continue
		}
		if e.ref {
			e.ref = false
			continue
		}
		delete(nc.index, e.lpn)
		e.state = stEmpty
		nc.view[h] = nil
		nc.used--
		nc.evictions++
		return int32(h)
	}
	return -1
}

// release returns a slot to the free stack.
//
//simlint:hotpath
func (nc *nodeCache) releaseSlot(slot int32) {
	e := &nc.entries[slot]
	e.state = stEmpty
	e.ref, e.poisoned, e.redirty = false, false, false
	nc.view[slot] = nil
	nc.free = append(nc.free, slot)
}

// --- pooled completion contexts ---------------------------------------

// hitCtx carries one read hit across the DRAM-transfer charge.
type hitCtx struct {
	slot int32
	cb   func([]byte, error)
	fire func()
}

// newHitCtx is hitPool.New: the context's one continuation is bound here.
func (nc *nodeCache) newHitCtx() *hitCtx {
	hx := &hitCtx{}
	hx.fire = func() {
		e := &nc.entries[hx.slot]
		cb := hx.cb
		frame := nc.frame(hx.slot)
		e.pins--
		if e.pins == 0 && e.state == stDead {
			// Invalidated while the hit transfer was in flight: the
			// requester still gets the pre-invalidation bytes (the
			// race was already unordered), and the frame is freed.
			nc.releaseSlot(hx.slot)
		}
		hx.cb = nil
		nc.hitPool.Put(hx)
		cb(frame, nil)
	}
	return hx
}

// wackCtx charges the DRAM write of a cache write hit before acking.
type wackCtx struct {
	cb   func(error)
	fire func()
}

// newWackCtx is wackPool.New.
func (nc *nodeCache) newWackCtx() *wackCtx {
	wx := &wackCtx{}
	wx.fire = func() {
		cb := wx.cb
		wx.cb = nil
		nc.wackPool.Put(wx)
		cb(nil)
	}
	return wx
}

// ackDRAM acks a buffered write after charging one page of DRAM
// bandwidth.
//
//simlint:hotpath
func (nc *nodeCache) ackDRAM(cb func(error)) {
	wx := nc.wackPool.Get()
	wx.cb = cb
	nc.cpu.ReadDRAM(nc.c.ps, wx.fire)
}

// fillCtx carries one miss fill: the volume read, the optional install
// into a reserved frame, and the install's DRAM charge.
type fillCtx struct {
	lpn    int64
	slot   int32 // reserved stFilling slot, or -1 for read-through
	cb     func([]byte, error)
	onVol  func([]byte, error)
	onDRAM func()
}

// newFillCtx is fillPool.New.
func (nc *nodeCache) newFillCtx() *fillCtx {
	fx := &fillCtx{}
	fx.onVol = func(data []byte, err error) {
		install := false
		if fx.slot >= 0 {
			e := &nc.entries[fx.slot]
			install = err == nil && e.state == stFilling && e.lpn == fx.lpn && !e.poisoned
			if !install {
				nc.abortFill(fx.slot, fx.lpn)
			}
		}
		cb := fx.cb
		fx.cb = nil
		if !install {
			nc.fillPool.Put(fx)
			cb(data, err)
			return
		}
		// Deliver the volume buffer to the requester immediately; the
		// install charges DRAM bandwidth in parallel and only marks the
		// entry clean once that lands. The frame is the image itself,
		// shared because it is immutable; the charge still prices the
		// copy the modelled host makes.
		nc.view[fx.slot] = data[:nc.c.ps:nc.c.ps]
		cb(data, nil)
		nc.cpu.ReadDRAM(nc.c.ps, fx.onDRAM)
	}
	fx.onDRAM = func() {
		e := &nc.entries[fx.slot]
		if e.state == stFilling && e.lpn == fx.lpn && !e.poisoned {
			e.state = stClean
			e.ref = true
		} else {
			nc.abortFill(fx.slot, fx.lpn)
		}
		nc.fillPool.Put(fx)
	}
	return fx
}

// abortFill releases a reserved fill slot if it still belongs to the
// aborted fill (a racing overwrite may have claimed the entry).
//
//simlint:hotpath
func (nc *nodeCache) abortFill(slot int32, lpn int64) {
	e := &nc.entries[slot]
	if e.state != stFilling || e.lpn != lpn {
		return
	}
	delete(nc.index, lpn)
	nc.used--
	nc.releaseSlot(slot)
}

// flushCtx carries one Background flush write.
type flushCtx struct {
	lpn    int64
	slot   int32
	onDone func(error)
}

// newFlushCtx is flushPool.New.
func (nc *nodeCache) newFlushCtx() *flushCtx {
	fx := &flushCtx{}
	fx.onDone = func(err error) {
		nc.flushing--
		e := &nc.entries[fx.slot]
		if err != nil {
			nc.flushErrors++
			e.state = stDirty
			nc.dirty++
		} else {
			nc.flushes++
			if e.redirty {
				e.redirty = false
				e.state = stDirty
				nc.dirty++
			} else {
				e.state = stClean
			}
			// The write is flash-visible: remote re-reads must miss
			// their stale clean copies and refill from flash.
			nc.c.broadcastInv(nc.node, fx.lpn)
		}
		nc.flushPool.Put(fx)
		nc.pumpFlush()
		nc.pushUrgency()
	}
	return fx
}

// --- read / write -----------------------------------------------------

// Read fetches a logical page: DRAM hit or volume fill at the
// stream's class. The callback's data slice is read-only, whatever
// it aliases: a fill's flash image, shared with the card and the view
// it leaves behind, or a frame. It is only valid inside the callback (a
// hit on a slab frame sees later writes to it).
//
//simlint:hotpath
func (st *Stream) Read(lpn int, cb func(data []byte, err error)) {
	nc := st.nc
	c := nc.c
	if lpn < 0 || lpn >= c.pages {
		//simlint:allow hotpath (caller-bug error path, not steady state)
		cb(nil, fmt.Errorf("%w: %d", ErrOutOfRange, lpn))
		return
	}
	key := int64(lpn)
	if slot, ok := nc.index[key]; ok {
		e := &nc.entries[slot]
		if e.state != stFilling {
			nc.hits++
			e.ref = true
			e.pins++
			hx := nc.hitPool.Get()
			hx.slot, hx.cb = slot, cb
			nc.cpu.ReadDRAM(c.ps, hx.fire)
			return
		}
		// A fill for this page is already in flight: read through the
		// volume rather than stacking a second fill.
		nc.misses++
		st.vs.Read(lpn, cb)
		return
	}
	nc.misses++
	nc.fill(st, key, cb)
}

// fill reserves a frame (when one is available) and reads the page
// through the volume at the stream's class; with no frame available
// the read passes through uncached.
//
//simlint:hotpath
func (nc *nodeCache) fill(st *Stream, key int64, cb func([]byte, error)) {
	fx := nc.fillPool.Get()
	fx.lpn, fx.cb = key, cb
	fx.slot = nc.takeSlot()
	if fx.slot >= 0 {
		e := &nc.entries[fx.slot]
		e.lpn = key
		e.state = stFilling
		e.ref, e.poisoned, e.redirty = false, false, false
		e.pins = 0
		nc.index[key] = fx.slot
		nc.used++
	}
	st.vs.Read(int(key), fx.onVol)
}

// Write stores a logical page through the cache: write-back on hit or
// when a frame is free (the ack fires after the DRAM copy, and flash
// is updated by a Background flush), write-through when the node's
// frames are all busy. The payload, one page, is copied before the
// callback path begins, matching the volume's snapshot semantics.
//
//simlint:hotpath
func (st *Stream) Write(lpn int, data []byte, cb func(err error)) {
	nc := st.nc
	c := nc.c
	if lpn < 0 || lpn >= c.pages {
		//simlint:allow hotpath (caller-bug error path, not steady state)
		cb(fmt.Errorf("%w: %d", ErrOutOfRange, lpn))
		return
	}
	key := int64(lpn)
	// An indexed slot is never stEmpty or stDead: applyInv unindexes a
	// frame before it marks it dead.
	if slot, ok := nc.index[key]; ok {
		e := &nc.entries[slot]
		copy(nc.slab(slot), data)
		e.ref = true
		nc.writeHits++
		switch e.state {
		case stClean:
			e.state = stDirty
			nc.dirty++
			nc.ackDRAM(cb)
			nc.pumpFlush()
			nc.pushUrgency()
		case stDirty:
			nc.ackDRAM(cb)
		case stWriting:
			e.redirty = true
			nc.ackDRAM(cb)
		case stFilling:
			// Overwrite racing the fill: the new data wins the frame;
			// the in-flight fill sees the state change and aborts its
			// install (delivering its stale read to its requester —
			// that read/write race was already unordered).
			e.state = stDirty
			nc.dirty++
			nc.ackDRAM(cb)
			nc.pumpFlush()
			nc.pushUrgency()
		}
		return
	}
	nc.writeMiss(st, key, data, cb)
}

//simlint:hotpath
func (nc *nodeCache) writeMiss(st *Stream, key int64, data []byte, cb func(error)) {
	slot := nc.takeSlot()
	if slot < 0 {
		// Every frame pinned, dirty, or in flight: write through at
		// the stream's class. Coherence still applies on completion.
		nc.writeThroughs++
		//simlint:allow hotpath (cold edge: write-through only runs when every frame is pinned or dirty; documented not alloc-free)
		nc.writeThrough(st, key, data, cb)
		return
	}
	e := &nc.entries[slot]
	e.lpn = key
	e.state = stDirty
	e.ref = true
	e.poisoned, e.redirty = false, false
	e.pins = 0
	copy(nc.slab(slot), data)
	nc.index[key] = slot
	nc.used++
	nc.dirty++
	nc.writeAllocs++
	nc.ackDRAM(cb)
	nc.pumpFlush()
	nc.pushUrgency()
}

// writeThrough is the frame-less fallback; it is not pinned alloc-free
// (it only runs when the cache is saturated with dirty or pinned
// frames).
func (nc *nodeCache) writeThrough(st *Stream, key int64, data []byte, cb func(error)) {
	st.vs.Write(int(key), data, func(err error) {
		if err == nil {
			nc.c.broadcastInv(nc.node, key)
		}
		cb(err)
	})
}

// --- flush pump -------------------------------------------------------

// pumpFlush keeps up to flushDepth Background flush writes in flight
// per node whenever dirty pages exist. Admission rides ftl.TagFlush →
// sched.Background, throttled by the urgency tokens pushUrgency sets.
//
//simlint:hotpath
func (nc *nodeCache) pumpFlush() {
	c := nc.c
	for nc.flushing < flushDepth && nc.dirty > 0 {
		slot := nc.nextDirty()
		if slot < 0 {
			return
		}
		e := &nc.entries[slot]
		e.state = stWriting
		e.redirty = false
		nc.dirty--
		nc.flushing++
		fx := nc.flushPool.Get()
		fx.slot, fx.lpn = slot, e.lpn
		// WriteBackground snapshots the frame synchronously, so later
		// overwrites of the frame (which set redirty) cannot corrupt
		// the in-flight flush payload.
		//simlint:allow hotpath (cold edge: Background-class write-back rides flash program latency, off the foreground ack path)
		c.v.WriteBackground(int(e.lpn), nc.frame(slot), fx.onDone)
	}
}

// nextDirty sweeps for a dirty frame. Only called with nc.dirty > 0.
//
//simlint:hotpath
func (nc *nodeCache) nextDirty() int32 {
	n := len(nc.entries)
	for i := 0; i < n; i++ {
		h := nc.flushHand
		nc.flushHand++
		if nc.flushHand == n {
			nc.flushHand = 0
		}
		if nc.entries[h].state == stDirty {
			return int32(h)
		}
	}
	return -1
}

// pushUrgency maps the node's dirty fraction onto its Background
// urgency source: 0 at or below low water, 1 at or above high water —
// flushing stays a trickle until dirty pressure builds, then the
// scheduler's token budget opens up exactly as it does for GC.
//
//simlint:hotpath
func (nc *nodeCache) pushUrgency() {
	nc.urg((float64(nc.dirty+nc.flushing)/float64(len(nc.entries)) - flushLowWater) /
		(flushHighWater - flushLowWater))
}

// --- invalidation -----------------------------------------------------

// broadcastInv tells every other node that lpn's flash copy changed.
// Fired at flush / write-through completion (flash-visibility), not
// at write admission — see the package comment for the coherence
// contract.
//
//simlint:hotpath
func (c *Cache) broadcastInv(from int, lpn int64) {
	n := len(c.nodes)
	if n <= 1 {
		return
	}
	//simlint:allow obligation (the n>1 guard above guarantees the fan-out loop hands the message to at least one Send)
	m := c.invPool.Get()
	m.lpn = lpn
	m.refs = int32(n - 1)
	c.invSent += int64(n - 1)
	src := c.nodes[from].inv
	for i := 0; i < n; i++ {
		if i == from {
			continue
		}
		if err := src.Send(fabric.NodeID(i), invBytes, m, nil); err != nil {
			panic(fmt.Sprintf("cache: invalidation send to %d: %v", i, err))
		}
	}
}

// applyInv handles one inbound invalidation on this node.
//
//simlint:hotpath
func (nc *nodeCache) applyInv(lpn int64) {
	slot, ok := nc.index[lpn]
	if !ok {
		return
	}
	e := &nc.entries[slot]
	switch e.state {
	case stClean:
		nc.invApplied++
		delete(nc.index, lpn)
		nc.used--
		if e.pins > 0 {
			// In-flight hit transfers still alias the frame: mark it
			// dead and free it when the last pin drops.
			e.state = stDead
			return
		}
		nc.releaseSlot(slot)
	case stFilling:
		nc.invApplied++
		nc.fillsPoisoned++
		e.poisoned = true
	case stDirty, stWriting:
		// Local data is concurrent with the remote write; keep ours
		// (last flusher wins).
		nc.invIgnoredDirt++
	}
}
