package volume

import (
	"errors"
	"fmt"

	"repro/internal/ftl"
)

// Cross-node mirroring (paper §4's storage manager grown a fault
// domain). Placement: card i's logical space is split in half — the
// lower half holds the card's own primary pages, the upper half holds
// replicas of its partner's primaries. The partner of card
// i is the same card slot on the next node (i + CardsPerNode, mod
// cluster), so the two copies of every page always live on different
// nodes and a whole-node loss leaves one copy of everything.
//
// Writes fan out to both copies at the stream's QoS class. Reads go to
// the primary and fail over to the replica when the primary is dead,
// still rebuilding, or returns an error (uncorrectable ECC being the
// interesting case). A replaced card is refilled by a rebuild pump
// running on the Background class under the same urgency-token gate as
// GC: the volume pushes a rebuild urgency floor at the nodes involved
// so the scheduler grants Background enough tokens to make progress,
// and reconstruction competes like any other deferred work instead of
// starving realtime.

// Volume mirroring errors.
var (
	ErrNotMirrored = errors.New("volume: not a mirrored volume")
	ErrCardAlive   = errors.New("volume: card has not been killed")
	// ErrNotRebuilding refuses StartRebuild on a card ReplaceCard has
	// not put into rebuild.
	ErrNotRebuilding = errors.New("volume: card is not rebuilding")
)

// partner returns the card holding replicas of cd's primary pages.
func (v *Volume) partner(cd *card) *card {
	return v.cards[(cd.gidx+v.c.Params.CardsPerNode)%len(v.cards)]
}

// replicaSource returns the card whose primary pages are replicated
// onto cd's upper half (the inverse of partner).
func (v *Volume) replicaSource(cd *card) *card {
	n := len(v.cards)
	return v.cards[(cd.gidx-v.c.Params.CardsPerNode+n)%n]
}

// replicaOf maps a primary (card, clpn) to the replica's location.
func (v *Volume) replicaOf(cd *card, clpn int) (*card, int) {
	return v.partner(cd), clpn + v.half
}

// available reports whether a copy on this card can serve reads: the
// card is alive and, during a rebuild, the page has been made current
// again (by the pump or by a fresh write).
func (cd *card) available(clpn int) bool {
	if cd.dead {
		return false
	}
	if cd.rebuilding && !cd.rebuilt[clpn] {
		return false
	}
	return true
}

// --- read fail-over ---------------------------------------------------

// failover is the pooled context of one mirrored read
// (Volume.failovers): it remembers where the replica lives so the
// primary's completion can retry there without allocating per-read
// closures.
type failover struct {
	v      *Volume
	rep    *card
	rclpn  int
	tag    ftl.IOTag
	useRep bool // replica is available as a fallback
	cb     func(data []byte, err error)

	// bound once, when the context is made
	onPrimary func(data []byte, err error)
	onReplica func(data []byte, err error)
}

// newFailover is failovers.New.
func (v *Volume) newFailover() *failover {
	fo := &failover{v: v}
	fo.onPrimary = func(data []byte, err error) {
		if err == nil || !fo.useRep {
			fo.finish(data, err)
			return
		}
		// Primary failed with a live replica: retry there.
		fo.rep.f.ReadTagged(fo.rclpn, fo.tag, fo.onReplica)
	}
	fo.onReplica = func(data []byte, err error) {
		if err == nil {
			fo.v.degradedReads++
		}
		fo.finish(data, err)
	}
	return fo
}

// finish recycles the context — no completion is outstanding on it —
// and hands the read's outcome to its caller.
func (fo *failover) finish(data []byte, err error) {
	cb := fo.cb
	fo.rep, fo.cb, fo.useRep = nil, nil, false
	fo.v.failovers.Put(fo)
	cb(data, err)
}

// readMirrored serves a logical read on a mirrored volume: primary
// first, replica on failure, straight to the replica when the primary
// copy is known-unavailable.
func (v *Volume) readMirrored(lpn int, tag ftl.IOTag, cb func(data []byte, err error)) {
	pri, clpn := v.locate(lpn)
	rep, rclpn := v.replicaOf(pri, clpn)
	priOK := pri.available(clpn)
	repOK := rep.available(rclpn)
	switch {
	case priOK && repOK:
		fo := v.failovers.Get()
		fo.rep, fo.rclpn, fo.tag, fo.useRep, fo.cb = rep, rclpn, tag, true, cb
		pri.f.ReadTagged(clpn, tag, fo.onPrimary)
	case priOK:
		// No fallback: serve the primary plainly.
		pri.f.ReadTagged(clpn, tag, cb)
	case repOK:
		// Degraded read: the replica is the only live copy.
		fo := v.failovers.Get()
		fo.rep, fo.rclpn, fo.tag, fo.cb = rep, rclpn, tag, cb
		rep.f.ReadTagged(rclpn, tag, fo.onReplica)
	default:
		// Both copies down (double fault): let the primary report it.
		pri.f.ReadTagged(clpn, tag, cb)
	}
}

// --- mirrored writes --------------------------------------------------

// mirrorWrite is the pooled context of one fan-out
// (Volume.mirrorWrites): the caller's callback fires once both copies
// complete, succeeding if at least one copy landed, so the mirrored
// write path allocates nothing in steady state.
type mirrorWrite struct {
	v         *Volume
	remaining int
	failed    int
	firstErr  error
	cb        func(error)

	// bound once, when the context is made
	onDone func(error)
}

// newMirrorWrite is mirrorWrites.New.
func (v *Volume) newMirrorWrite() *mirrorWrite {
	mw := &mirrorWrite{v: v}
	mw.onDone = mw.done
	return mw
}

func (mw *mirrorWrite) done(err error) {
	if err != nil {
		mw.failed++
		if mw.firstErr == nil {
			mw.firstErr = err
		}
	}
	mw.remaining--
	if mw.remaining > 0 {
		return
	}
	// Both completions are in: recycle before invoking the caller (the
	// callback may issue another mirrored write that reuses the slot).
	v, failed, firstErr, cb := mw.v, mw.failed, mw.firstErr, mw.cb
	mw.failed, mw.firstErr, mw.cb = 0, nil, nil
	v.mirrorWrites.Put(mw)
	switch failed {
	case 0:
		cb(nil)
	case 1:
		v.degradedWrites++
		cb(nil)
	default:
		cb(fmt.Errorf("volume: both copies failed: %w", firstErr))
	}
}

// writeMirrored fans a logical write out to the primary and replica at
// the stream's class.
func (v *Volume) writeMirrored(lpn int, data []byte, tag ftl.IOTag, cb func(err error)) {
	pri, clpn := v.locate(lpn)
	rep, rclpn := v.replicaOf(pri, clpn)
	mw := v.mirrorWrites.Get()
	mw.remaining, mw.cb = 2, cb
	v.writeCopy(pri, clpn, data, tag, mw.onDone)
	v.writeCopy(rep, rclpn, data, tag, mw.onDone)
}

// deferredWrite is a tenant write parked behind an in-flight rebuild
// copy of the same page: letting it race the pump's copy could leave
// the stale rebuild image as the final mapping. img is the write's one
// snapshot, already the page image the FTL will hand down.
type deferredWrite struct {
	clpn int
	img  []byte
	tag  ftl.IOTag
	cb   func(error)
}

// writeCopy issues one copy of a mirrored write, maintaining rebuild
// bookkeeping: a write to a rebuilding card makes that page current
// (the pump skips it), and a write colliding with an in-flight pump
// copy is deferred until the copy completes.
func (v *Volume) writeCopy(cd *card, clpn int, data []byte, tag ftl.IOTag, cb func(error)) {
	if cd.rebuilding {
		if cd.copyInFlight(clpn) {
			img := v.c.Params.Geometry.PageImage(data)
			cd.deferred = append(cd.deferred, deferredWrite{clpn: clpn, img: img, tag: tag, cb: cb})
			return
		}
		cd.rebuilt[clpn] = true
	}
	cd.f.WriteTagged(clpn, data, tag, cb)
}

func (cd *card) copyInFlight(clpn int) bool {
	for _, c := range cd.inflight {
		if c == clpn {
			return true
		}
	}
	return false
}

// --- failure and rebuild ----------------------------------------------

// mirroredCard returns card i (node-major index) of a mirrored volume;
// an index outside [0, Cards()) fails with ErrOutOfRange.
func (v *Volume) mirroredCard(i int) (*card, error) {
	if !v.cfg.Mirror {
		return nil, ErrNotMirrored
	}
	if i < 0 || i >= len(v.cards) {
		return nil, fmt.Errorf("%w: card %d of %d", ErrOutOfRange, i, len(v.cards))
	}
	return v.cards[i], nil
}

// nodeCards returns the card index range [lo, hi) of one node; a node
// outside [0, Nodes()) fails with ErrOutOfRange.
func (v *Volume) nodeCards(node int) (lo, hi int, err error) {
	if node < 0 || node >= v.c.Nodes() {
		return 0, 0, fmt.Errorf("%w: node %d of %d", ErrOutOfRange, node, v.c.Nodes())
	}
	n := v.c.Params.CardsPerNode
	return node * n, (node + 1) * n, nil
}

// KillCard fails one card (node-major index): the NAND card rejects
// all further operations with nand.ErrDead and the volume routes reads
// to the replica. Mirrored volumes only.
func (v *Volume) KillCard(i int) error {
	cd, err := v.mirroredCard(i)
	if err != nil {
		return err
	}
	cd.dead = true
	v.c.Node(cd.node).Card(cd.idx).Fail()
	return nil
}

// KillNode fails every card of one node — the whole-appliance fault
// the mirror placement is designed to survive.
func (v *Volume) KillNode(node int) error {
	lo, hi, err := v.nodeCards(node)
	if err != nil {
		return err
	}
	for i := lo; i < hi; i++ {
		if err := v.KillCard(i); err != nil {
			return err
		}
	}
	return nil
}

// ReplaceCard swaps a killed card for a blank replacement: the NAND
// card is reset, a fresh FTL is built over it, and the card enters the
// rebuilding state (reads route to the partner until each page is
// restored). Call StartRebuild to begin refilling it.
func (v *Volume) ReplaceCard(i int) error {
	cd, err := v.mirroredCard(i)
	if err != nil {
		return err
	}
	if !cd.dead {
		return ErrCardAlive
	}
	v.c.Node(cd.node).Card(cd.idx).Replace()
	if err := cd.mountFTL(); err != nil {
		return err
	}
	cd.dead = false
	cd.rebuilding = true
	if cd.rebuilt == nil {
		cd.rebuilt = make([]bool, v.perCard)
	} else {
		for p := range cd.rebuilt {
			cd.rebuilt[p] = false
		}
	}
	cd.rebuildNext = 0
	cd.inflight = cd.inflight[:0]
	cd.deferred = cd.deferred[:0]
	return nil
}

// StartRebuild refills a replaced card from the surviving copies: its
// own primaries from the partner's replica half, and the replicas it
// hosts from their primaries. The pump keeps rebuildDepth copies in
// flight on the Background class (TagRebuild) and calls done when the
// whole card is current. Pages never written are skipped; pages whose
// only surviving copy is unreadable are lost and counted.
func (v *Volume) StartRebuild(i int, done func()) error {
	cd, err := v.mirroredCard(i)
	if err != nil {
		return err
	}
	if !cd.rebuilding {
		return fmt.Errorf("%w: card %d (call ReplaceCard first)", ErrNotRebuilding, i)
	}
	cd.rebuildDone = done
	v.pushRebuildUrgency()
	v.pumpRebuild(cd)
	return nil
}

// RebuildNode replaces and rebuilds every card of a killed node,
// calling done when all of them are current.
func (v *Volume) RebuildNode(node int, done func()) error {
	lo, hi, err := v.nodeCards(node)
	if err != nil {
		return err
	}
	for i := lo; i < hi; i++ {
		if err := v.ReplaceCard(i); err != nil {
			return err
		}
	}
	remaining := hi - lo
	for i := lo; i < hi; i++ {
		if err := v.StartRebuild(i, func() {
			remaining--
			if remaining == 0 && done != nil {
				done()
			}
		}); err != nil {
			return err
		}
	}
	return nil
}

// Rebuilding reports whether any card is still being refilled.
func (v *Volume) Rebuilding() bool {
	for _, cd := range v.cards {
		if cd.rebuilding {
			return true
		}
	}
	return false
}

// pushRebuildUrgency sets each node's rebuild urgency from the set of
// active rebuilds: rebuildUrgency on every node one involves (the
// rebuilding card's node and both partner nodes), 0 elsewhere. Without
// it an idle node's Background class gets zero tokens and a rebuild
// reading from (or writing to) it would stall forever.
func (v *Volume) pushRebuildUrgency() {
	urg := make([]float64, len(v.rebuildUrg))
	for _, cd := range v.cards {
		if cd.rebuilding {
			for _, n := range [3]int{cd.node, v.partner(cd).node, v.replicaSource(cd).node} {
				urg[n] = rebuildUrgency
			}
		}
	}
	for n, set := range v.rebuildUrg {
		set(urg[n])
	}
}

// rebuildSource maps a page of the rebuilding card to its surviving
// copy: primaries (lower half) live in the partner's replica half,
// hosted replicas (upper half) live at their owner's primary slot.
func (v *Volume) rebuildSource(cd *card, clpn int) (*card, int) {
	if clpn < v.half {
		return v.partner(cd), clpn + v.half
	}
	return v.replicaSource(cd), clpn - v.half
}

const (
	// rebuildDepth bounds the rebuild pump's in-flight page copies.
	rebuildDepth = 8
	// rebuildUrgency is the GC-urgency floor pushed at the nodes a
	// rebuild touches while it runs, so the scheduler grants the
	// Background class enough tokens to make progress without letting
	// reconstruction starve latency classes.
	rebuildUrgency = 0.5
)

// pumpRebuild tops the rebuild window back up to rebuildDepth
// in-flight copies and detects completion.
func (v *Volume) pumpRebuild(cd *card) {
	if !cd.rebuilding {
		return
	}
	for len(cd.inflight) < rebuildDepth && cd.rebuildNext < v.perCard {
		clpn := cd.rebuildNext
		cd.rebuildNext++
		if cd.rebuilt[clpn] {
			continue // a tenant write already made this page current
		}
		src, sclpn := v.rebuildSource(cd, clpn)
		cd.inflight = append(cd.inflight, clpn)
		v.copyPage(cd, clpn, src, sclpn)
	}
	// Re-check rebuilding: an unmapped page completes synchronously, so
	// a nested pump call may already have finished the rebuild.
	if cd.rebuilding && len(cd.inflight) == 0 && cd.rebuildNext >= v.perCard {
		v.finishRebuild(cd)
	}
}

// copyPage restores one page: read the survivor, write the
// replacement, both on TagRebuild (Background class). The copy programs
// the image its read returned, as a GC move does: the survivor's card
// and the replacement end up storing the one buffer.
func (v *Volume) copyPage(cd *card, clpn int, src *card, sclpn int) {
	src.f.ReadTagged(sclpn, ftl.TagRebuild, func(data []byte, err error) {
		if err != nil {
			// Never written (unmapped) — nothing to restore — or the
			// surviving copy itself is unreadable: the page is gone
			// (already counted by the source FTL's fault counters).
			v.completeCopy(cd, clpn)
			return
		}
		if cd.rebuilt[clpn] {
			// A tenant write landed after our read was issued but
			// before we checked in-flight state; its data is newer.
			v.completeCopy(cd, clpn)
			return
		}
		cd.f.WriteImage(clpn, data, ftl.TagRebuild, func(werr error) {
			if werr == nil {
				v.pagesRebuilt++
			}
			v.completeCopy(cd, clpn)
		})
	})
}

// completeCopy retires one in-flight copy: marks the page current,
// flushes tenant writes parked behind it, and refills the window.
func (v *Volume) completeCopy(cd *card, clpn int) {
	for j, c := range cd.inflight {
		if c == clpn {
			cd.inflight[j] = cd.inflight[len(cd.inflight)-1]
			cd.inflight = cd.inflight[:len(cd.inflight)-1]
			break
		}
	}
	cd.rebuilt[clpn] = true
	// Flush deferred tenant writes for this page in arrival order.
	kept := cd.deferred[:0]
	var flush []deferredWrite
	for _, dw := range cd.deferred {
		if dw.clpn == clpn {
			flush = append(flush, dw)
		} else {
			kept = append(kept, dw)
		}
	}
	cd.deferred = kept
	for _, dw := range flush {
		cd.f.WriteImage(dw.clpn, dw.img, dw.tag, dw.cb)
	}
	v.pumpRebuild(cd)
}

// finishRebuild marks the card current and releases the urgency floor.
func (v *Volume) finishRebuild(cd *card) {
	cd.rebuilding = false
	done := cd.rebuildDone
	cd.rebuildDone = nil
	v.pushRebuildUrgency()
	if done != nil {
		done()
	}
}
