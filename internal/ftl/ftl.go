// Package ftl implements the full flash translation layer that BlueDBM
// runs in the host block device driver (paper §4): because the hardware
// exposes raw error-corrected flash, logical-to-physical mapping,
// garbage collection, wear leveling and bad-block management live in
// software, where they can be smarter than an in-device controller
// ("similar to Fusion IO's driver").
//
// It is a page-mapped FTL: every logical page number (LPN) maps to a
// physical page (PPN); writes go to a moving frontier (one frontier
// per IOTag, so concurrent streams never interleave programs inside a
// block); greedy garbage collection recycles the block with the fewest
// valid pages; periodic wear-leveling passes recycle the coldest block
// instead so erase wear stays even.
//
// Garbage collection is a reclaim.Reclaimer over the blocks (FTL.GC),
// whose package doc states the concurrency rules. The FTL adds the
// wear pass, the erase-count heap it allocates from, and bad-block
// retry of a relocation's program.
package ftl

import (
	"errors"
	"fmt"

	"repro/internal/flashctl"
	"repro/internal/nand"
	"repro/internal/reclaim"
	"repro/internal/sim"
)

// FTL errors.
var (
	ErrUnmapped   = errors.New("ftl: logical page not written")
	ErrOutOfRange = errors.New("ftl: logical page out of range")
	ErrDataSize   = errors.New("ftl: data must be exactly one page")
	ErrBadTag     = errors.New("ftl: TagGC is reserved for internal GC traffic")
)

// Config tunes the FTL.
type Config struct {
	// OverProvision is the fraction of physical capacity hidden from
	// the logical space and reserved for GC headroom.
	OverProvision float64
	// GCLowWater starts garbage collection when the free-block pool
	// drops to this size; it must be at least 1.
	GCLowWater int
	// WearLevelEvery runs a wear-leveling pass instead of a greedy pass
	// every N collections (0 disables static wear leveling).
	WearLevelEvery int
	// GCPipeline is the number of relocation transfers a collection
	// keeps in flight at once (0 or 1 = sequential). Pipelining is what
	// makes an unthrottled collection monopolize the device — and what
	// the scheduler's GC token budget exists to pace.
	GCPipeline int
}

// DefaultConfig uses typical SSD numbers.
func DefaultConfig() Config {
	return Config{OverProvision: 0.25, GCLowWater: 2, WearLevelEvery: 16, GCPipeline: 4}
}

type pageState uint8

const (
	pageFree pageState = iota
	pageValid
	pageInvalid
)

// FTL drives one flash card through a Backend.
type FTL struct {
	io  Backend
	geo nand.Geometry
	cfg Config

	// GC is the garbage collector; its units are the blocks. The layer
	// above reads its Urgency and sets its Urgent callback.
	GC *reclaim.Reclaimer

	lpns      int   // logical space size
	l2p       []int // lpn -> ppn, -1 if unmapped
	p2l       []int // ppn -> lpn, -1 if none
	pageState []pageState
	erases    []int64 // per block
	freePool  []int   // min-heap of free block indices, keyed on erase count

	actives  [256]int32 // per-tag frontier block, dense by IOTag; -1 = none
	wearPass int64      // the number of the last collection that was a wear pass
	ops      sim.Pool[flashOp]

	// stats
	HostWrites    int64
	HostReads     int64
	HostTrims     int64
	FlashPrograms int64
	FlashErases   int64
	GCMoves       int64
	GCDropped     int64 // relocation reads that program nothing: trimmed or overwritten mid-copy, or no destination
	GCAborts      int64
	BadBlocks     int64

	// fault stats
	ReadFaults         int64 // host reads completed with an error (any cause)
	UncorrectableReads int64 // host reads failed by ECC: data unrecoverable
	GCReadFaults       int64 // relocation reads that failed mid-collection
	LostPages          int64 // mappings dropped because their page was unreadable
}

// NewWithBackend builds an FTL over an arbitrary Backend.
func NewWithBackend(io Backend, geo nand.Geometry, cfg Config) (*FTL, error) {
	if err := geo.Validate(); err != nil {
		return nil, err
	}
	if cfg.OverProvision < 0.02 || cfg.OverProvision >= 0.9 {
		return nil, fmt.Errorf("ftl: over-provisioning %.2f out of range [0.02,0.9)", cfg.OverProvision)
	}
	blocks := geo.Buses * geo.ChipsPerBus * geo.BlocksPerChip
	gc, err := reclaim.New(blocks, geo.PagesPerBlock, cfg.GCLowWater, cfg.GCPipeline)
	if err != nil {
		return nil, fmt.Errorf("ftl: GCLowWater: %w", err)
	}
	total := geo.TotalPages()
	f := &FTL{
		io:        io,
		geo:       geo,
		cfg:       cfg,
		GC:        gc,
		lpns:      int(float64(total) * (1 - cfg.OverProvision)),
		l2p:       make([]int, total),
		p2l:       make([]int, total),
		pageState: make([]pageState, total),
		erases:    make([]int64, blocks),
	}
	gc.Pick, gc.Move, gc.Erase, gc.Erased, gc.Aborts = f.wearVictim, f.relocate, f.erase, f.erased, &f.GCAborts
	f.ops.New = f.newFlashOp
	for i := range f.actives {
		f.actives[i] = -1
	}
	for i := range f.l2p {
		f.l2p[i] = -1
		f.p2l[i] = -1
	}
	// All blocks start with zero erases, so ascending index order is
	// already a valid min-heap.
	for b := 0; b < blocks; b++ {
		f.freePool = append(f.freePool, b)
	}
	gc.Free = blocks
	return f, nil
}

// LogicalPages returns the size of the logical space.
func (f *FTL) LogicalPages() int { return f.lpns }

// PageSize returns the device's page size.
func (f *FTL) PageSize() int { return f.geo.PageSize }

// WriteAmplification returns flash programs / host writes (1.0 = none).
//
//simlint:allow unused (the metric of the FTL ablations, which ablation_test.go and the ftl and blockfs tests measure)
func (f *FTL) WriteAmplification() float64 {
	if f.HostWrites == 0 {
		return 0
	}
	return float64(f.FlashPrograms) / float64(f.HostWrites)
}

// FreeBlocks returns the current free pool size.
func (f *FTL) FreeBlocks() int { return len(f.freePool) }

// poolChanged tells the collector the free pool's new size.
func (f *FTL) poolChanged() {
	f.GC.Free = len(f.freePool)
	f.GC.Urgent()
}

// Check reports an FTL that has not drained: page ops out of their
// pool, or a collector with work left.
func (f *FTL) Check() error {
	if n := f.ops.Out(); n != 0 {
		return fmt.Errorf("ftl: %d page ops out of the pool", n)
	}
	return f.GC.Check()
}

// blockOf returns the block index containing a ppn.
func (f *FTL) blockOf(ppn int) int { return ppn / f.geo.PagesPerBlock }

// addrOf converts a linear ppn to a card address.
func (f *FTL) addrOf(ppn int) nand.Addr {
	p := ppn % f.geo.PagesPerBlock
	b := ppn / f.geo.PagesPerBlock
	blk := b % f.geo.BlocksPerChip
	b /= f.geo.BlocksPerChip
	chip := b % f.geo.ChipsPerBus
	bus := b / f.geo.ChipsPerBus
	return nand.Addr{Bus: bus, Chip: chip, Block: blk, Page: p}
}

// blockAddr returns the address of a block (page 0).
func (f *FTL) blockAddr(blk int) nand.Addr {
	a := f.addrOf(blk * f.geo.PagesPerBlock)
	a.Page = 0
	return a
}

// Read fetches a logical page (tag 0).
func (f *FTL) Read(lpn int, cb func(data []byte, err error)) {
	f.ReadTagged(lpn, 0, cb)
}

// ReadTagged fetches a logical page on the given traffic tag. Reads
// never wait for garbage collection: the mapping is resolved at issue
// time, and the collector's erase — the only op that could destroy
// the resolved page — waits for in-flight reads against the victim to
// drain (see doRead).
func (f *FTL) ReadTagged(lpn int, tag IOTag, cb func(data []byte, err error)) {
	if lpn < 0 || lpn >= f.lpns {
		//simlint:allow hotcall (error path: allocates only on an out-of-range read, which fails the op anyway)
		cb(nil, fmt.Errorf("%w: %d", ErrOutOfRange, lpn))
		return
	}
	if tag == TagGC {
		cb(nil, ErrBadTag)
		return
	}
	f.doRead(lpn, tag, cb)
}

// flashOp is one page operation in flight below the FTL: a host read,
// a host write from WriteTagged until its mapping is installed, or a GC
// relocation from its read until the copy is installed. Ops are pooled
// (FTL.ops), and the continuations an op hands down — the backend's
// completions, and itself as the thing to queue behind a collection —
// are bound when the record is made, so a page operation allocates
// nothing here but a write's image.
type flashOp struct {
	lpn int
	tag IOTag
	ppn int // read: the page read (a relocation's source); write: the page the program in flight targets
	// img is a write's page image. The op holds the reference so that a
	// program that fails with a bad block can be issued again with the
	// same image; while a program is in flight the image belongs to the
	// layers below, and after a successful one to the card.
	img []byte
	src int // relocation: the victim page being moved
	rcb func(data []byte, err error)
	wcb func(err error)

	// bound once
	run     func()                       // write: take a frontier page and program it
	onRead  func(data []byte, err error) // the backend's read completion
	onWrite func(err error)              // the backend's program completion
}

// newFlashOp is ops.New.
func (f *FTL) newFlashOp() *flashOp {
	op := &flashOp{}
	op.run = func() { f.allocAndProgram(op) }
	op.onRead = func(data []byte, err error) { f.readDone(op, data, err) }
	op.onWrite = func(err error) { f.programDone(op, err) }
	return op
}

// reset zeroes an op for its return to the pool, keeping its bound
// continuations. Its caller has taken the outcome out of it: no backend
// completion is outstanding on it and no queue holds it.
//
//simlint:hotpath
func (op *flashOp) reset() {
	*op = flashOp{run: op.run, onRead: op.onRead, onWrite: op.onWrite}
}

// doRead resolves the mapping and issues the flash read, counted
// against its block until it completes: the victim erase waits for
// that count (reclaim). Once a page is relocated the mapping points at
// the copy, so later reads resolve away from the victim on their own.
//
//simlint:hotpath
func (f *FTL) doRead(lpn int, tag IOTag, cb func(data []byte, err error)) {
	ppn := f.l2p[lpn]
	if ppn < 0 {
		//simlint:allow hotpath (error path: allocates only for an unmapped page, which fails the op anyway)
		cb(nil, fmt.Errorf("%w: %d", ErrUnmapped, lpn))
		return
	}
	f.HostReads++
	f.GC.Units[f.blockOf(ppn)].Reads++
	op := f.ops.Get()
	op.lpn, op.tag, op.ppn, op.rcb = lpn, tag, ppn, cb
	f.read(op)
}

// read issues the flash read of op.ppn; readDone hears the outcome.
//
//simlint:hotpath
func (f *FTL) read(op *flashOp) {
	//simlint:allow hotcall (the backend dispatch: its admission path carries its own hotpath annotations)
	f.io.ReadPage(f.addrOf(op.ppn), op.tag, op.onRead)
}

// readDone is the backend's completion of a host read or of a
// relocation's read.
//
//simlint:hotpath
func (f *FTL) readDone(op *flashOp, data []byte, err error) {
	if op.tag == TagGC {
		f.relocateRead(op, data, err)
		return
	}
	cb, blk := op.rcb, f.blockOf(op.ppn)
	op.reset()
	f.ops.Put(op)
	if err != nil {
		f.ReadFaults++
		if errors.Is(err, flashctl.ErrUncorrectable) {
			f.UncorrectableReads++
		}
	}
	f.GC.Units[blk].Reads--
	f.GC.Wake()
	cb(data, err)
}

// Write stores a logical page (tag 0), remapping it to a fresh
// physical page.
func (f *FTL) Write(lpn int, data []byte, cb func(err error)) {
	f.WriteTagged(lpn, data, 0, cb)
}

// WriteTagged stores a logical page on the given traffic tag. Each tag
// writes to its own frontier block, so streams submitted through
// independently-scheduled channels keep NAND's in-order-per-block
// programming rule without cross-stream coupling.
//
// Ownership: data is snapshotted into a page image before WriteTagged
// returns — copied whatever its shape, never adopted — so the caller
// may reuse its buffer at once. That snapshot is the write's one
// payload allocation: the image goes down through the backend by
// reference and is the buffer the card ends up storing.
func (f *FTL) WriteTagged(lpn int, data []byte, tag IOTag, cb func(err error)) {
	f.WriteImage(lpn, f.geo.PageImage(data), tag, cb)
}

// WriteImage is WriteTagged for a caller that already holds the page as
// an image (nand.Geometry.PageImage) and gives it away: the FTL adopts
// img and the caller must not touch it again.
func (f *FTL) WriteImage(lpn int, img []byte, tag IOTag, cb func(err error)) {
	if lpn < 0 || lpn >= f.lpns {
		cb(fmt.Errorf("%w: %d", ErrOutOfRange, lpn))
		return
	}
	if tag == TagGC {
		cb(ErrBadTag)
		return
	}
	if !f.geo.IsPageImage(img) {
		cb(fmt.Errorf("%w: got %d want %d", ErrDataSize, len(img), f.geo.PageSize))
		return
	}
	f.HostWrites++
	op := f.ops.Get()
	op.lpn, op.tag, op.img, op.wcb = lpn, tag, img, cb
	// Writes proceed during a collection: their own tag's frontier
	// cannot disturb the victim. A write admitted during GC is not
	// ordered against writes queued behind it — same-page racers have no
	// ordering guarantee anywhere in the scheduler stack; callers that
	// need read-your-write await completions.
	f.GC.Admit(op.run)
}

// Trim invalidates a logical page without writing. A trim is a pure
// host-side metadata update in this FTL (the mapping lives in host
// DRAM, no flash command is issued), so there is nothing to admit
// through a scheduler — but it still changes GC economics (the
// invalidated page shrinks some victim's relocation demand), so it is
// counted (HostTrims) and surfaced through volume.Stats instead of
// being invisible to the stats deltas.
func (f *FTL) Trim(lpn int) error {
	if lpn < 0 || lpn >= f.lpns {
		return fmt.Errorf("%w: %d", ErrOutOfRange, lpn)
	}
	f.HostTrims++
	if ppn := f.l2p[lpn]; ppn >= 0 {
		f.invalidate(ppn)
		f.l2p[lpn] = -1
	}
	return nil
}

// Phys returns the physical location lpn currently maps to: the
// RFS-style physical-address query of the paper's Figure 8 (step 1),
// where host software resolves a logical extent to physical pages and
// hands the list to an in-store engine, which then streams the pages
// directly off the flash with no further host mediation. The result
// is a snapshot — it goes stale if the page is overwritten, trimmed,
// or relocated by garbage collection — so callers scan read-stable
// data (as RFS readers do) or re-query after mutation.
func (f *FTL) Phys(lpn int) (nand.Addr, error) {
	if lpn < 0 || lpn >= f.lpns {
		return nand.Addr{}, fmt.Errorf("%w: %d", ErrOutOfRange, lpn)
	}
	ppn := f.l2p[lpn]
	if ppn < 0 {
		return nand.Addr{}, fmt.Errorf("%w: %d", ErrUnmapped, lpn)
	}
	return f.addrOf(ppn), nil
}

// allocAndProgram takes a frontier page for a host write (starting GC
// first if needed) and programs its image there. It is the op's run
// continuation: what the collector parks behind a pass.
//
//simlint:hotpath
func (f *FTL) allocAndProgram(op *flashOp) {
	ppn, err := f.allocPage(op.tag, op.run)
	if err != nil {
		f.finishWrite(op, -1, err)
		return
	}
	if ppn < 0 {
		return // GC started; this op was requeued
	}
	f.program(op, ppn)
}

// program writes the op's image at ppn; programDone transparently
// retries elsewhere when the block turns out bad.
//
//simlint:hotpath
func (f *FTL) program(op *flashOp, ppn int) {
	f.FlashPrograms++
	op.ppn = ppn
	f.GC.Units[f.blockOf(ppn)].Programs++
	//simlint:allow hotcall (the backend dispatch: its admission path carries its own hotpath annotations)
	f.io.WritePage(f.addrOf(ppn), op.img, op.tag, op.onWrite)
}

// programDone is the backend's completion of a program.
//
//simlint:hotpath
func (f *FTL) programDone(op *flashOp, err error) {
	blk := f.blockOf(op.ppn)
	f.GC.Units[blk].Programs--
	if err == nil {
		// Install the page's mapping and validity BEFORE waking a
		// collection that may have picked this block as its victim (see
		// reclaim).
		f.finishWrite(op, op.ppn, nil)
		f.GC.Wake()
		return
	}
	if errors.Is(err, nand.ErrBadBlock) {
		// The failed program kept nothing: the image is the op's again
		// and goes out once more, to another block. A collection waiting
		// on this block's programs can proceed now.
		f.retireBlock(blk)
		f.GC.Wake()
		// GC relocation retries must not route through allocPage: its
		// gate would park the retry behind the very collection waiting
		// on this callback. Re-allocate on the GC path and let a
		// no-space failure abort the pass instead.
		if op.tag == TagGC {
			dst, aerr := f.allocPage(TagGC, nil)
			if aerr != nil {
				f.finishWrite(op, -1, aerr)
				return
			}
			f.program(op, dst)
			return
		}
		f.allocAndProgram(op)
		return
	}
	f.finishWrite(op, -1, err)
	f.GC.Wake()
}

// finishWrite ends a write op — a host write or a relocation's copy —
// whose image is stored at finalPPN, or that failed for good.
//
//simlint:hotpath
func (f *FTL) finishWrite(op *flashOp, finalPPN int, err error) {
	if op.tag == TagGC {
		f.relocated(op, finalPPN, err)
		return
	}
	lpn, cb := op.lpn, op.wcb
	op.reset()
	f.ops.Put(op)
	if err != nil {
		cb(err)
		return
	}
	// Power-safe ordering: the new copy is durable before the old
	// mapping is dropped.
	if old := f.l2p[lpn]; old >= 0 {
		f.invalidate(old)
	}
	f.install(lpn, finalPPN)
	cb(nil)
}

// install maps lpn to its new copy at ppn.
func (f *FTL) install(lpn, ppn int) {
	f.l2p[lpn] = ppn
	f.p2l[ppn] = lpn
	f.pageState[ppn] = pageValid
	f.GC.Units[f.blockOf(ppn)].Valid++
}

// invalidate marks a physical page dead.
func (f *FTL) invalidate(ppn int) {
	if f.pageState[ppn] == pageValid {
		f.GC.Invalidate(f.blockOf(ppn))
	}
	f.pageState[ppn] = pageInvalid
	f.p2l[ppn] = -1
}

// retireBlock permanently removes a block from service, clearing any
// frontier that pointed at it so no stale active state survives.
func (f *FTL) retireBlock(blk int) {
	bi := &f.GC.Units[blk]
	if bi.Bad {
		return
	}
	bi.Bad = true
	bi.Active = false
	f.BadBlocks++
	for tag, a := range f.actives {
		if a == int32(blk) {
			f.actives[tag] = -1
		}
	}
}

// allocPage returns the next frontier ppn for tag. A host write
// (retry set) needing a new frontier block first passes the
// collector's gate, which may park retry behind a collection and make
// it return -1. A relocation (retry nil, the GC tag) must not wait
// behind its own collection: it takes a block or fails, aborting the
// pass.
func (f *FTL) allocPage(tag IOTag, retry func()) (int, error) {
	for {
		if blk := int(f.actives[tag]); blk >= 0 {
			b := &f.GC.Units[blk]
			if !b.Bad && b.Written < f.geo.PagesPerBlock {
				ppn := blk*f.geo.PagesPerBlock + b.Written
				b.Written++
				return ppn, nil
			}
			b.Active = false
			f.actives[tag] = -1
		}
		if retry != nil && f.GC.Hold(retry) {
			return -1, nil
		}
		if len(f.freePool) == 0 {
			return 0, reclaim.ErrNoSpace
		}
		blk := f.popLeastWorn()
		f.actives[tag] = int32(blk)
		b := &f.GC.Units[blk]
		b.Active, b.Written, b.Valid = true, 0, 0
	}
}

// --- free pool: min-heap keyed on erase count ------------------------

// freeLess orders the heap by erase count, block index as the
// deterministic tie-break. Heap invariant: a block's erase count
// never changes while it sits in freePool — erases increment only in
// erased, immediately before pushFree re-inserts the block.
func (f *FTL) freeLess(a, b int) bool {
	ea, eb := f.erases[a], f.erases[b]
	if ea != eb {
		return ea < eb
	}
	return a < b
}

// pushFree returns a block to the free pool.
func (f *FTL) pushFree(blk int) {
	f.freePool = append(f.freePool, blk)
	i := len(f.freePool) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !f.freeLess(f.freePool[i], f.freePool[parent]) {
			break
		}
		f.freePool[i], f.freePool[parent] = f.freePool[parent], f.freePool[i]
		i = parent
	}
	f.poolChanged()
}

// popLeastWorn takes the free block with the fewest erases, spreading
// dynamic wear evenly across the pool (the allocation half of wear
// leveling; the victim-selection half is wearVictim). The pool is a
// min-heap, so this is O(log n) instead of the old linear scan that
// ran on every frontier-block allocation.
func (f *FTL) popLeastWorn() int {
	blk := f.freePool[0]
	last := len(f.freePool) - 1
	f.freePool[0] = f.freePool[last]
	f.freePool = f.freePool[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		best := i
		if l < last && f.freeLess(f.freePool[l], f.freePool[best]) {
			best = l
		}
		if r < last && f.freeLess(f.freePool[r], f.freePool[best]) {
			best = r
		}
		if best == i {
			break
		}
		f.freePool[i], f.freePool[best] = f.freePool[best], f.freePool[i]
		i = best
	}
	f.poolChanged()
	return blk
}

// wearPassDue reports whether the next collection should be a static
// wear-leveling pass. Wear passes may pick an all-valid victim that
// reclaims zero net pages, so they are gated: at least one free block
// (a full block of destination always fits an all-valid victim; with
// the pool dry the pass would abort where a greedy victim might still
// fit the frontier remainder), and never two in a row — the previous
// collection must have been a greedy, progress-making pass. Without
// the alternation a wear-heavy configuration collects cold all-valid
// blocks forever and no write can ever allocate. The gate is >= 1,
// not 2, so the knob stays live at GCLowWater: 1, where collections
// only ever trigger with zero or one free block.
func (f *FTL) wearPassDue() bool {
	n := f.GC.Passes
	return f.cfg.WearLevelEvery > 0 && n > 0 && n%int64(f.cfg.WearLevelEvery) == 0 &&
		len(f.freePool) >= 1 && f.wearPass != n
}

// wearVictim is the collector's Pick: on a wear pass, the coldest
// sealed block, so cold blocks re-enter circulation; otherwise -1, the
// greedy victim.
func (f *FTL) wearVictim() int {
	if !f.wearPassDue() {
		return -1
	}
	v := f.coldest()
	if v >= 0 {
		f.wearPass = f.GC.Passes + 1 // the pass about to start
	}
	return v
}

// coldest returns the sealed block with the fewest erases, valid pages
// or not (the lowest index on ties), or -1.
func (f *FTL) coldest() int {
	best := -1
	for b := range f.GC.Units {
		u := &f.GC.Units[b]
		if u.Bad || u.Active || u.Written < f.geo.PagesPerBlock {
			continue
		}
		if best < 0 || f.erases[b] < f.erases[best] {
			best = b
		}
	}
	return best
}

// relocate is the collector's Move: it copies one valid victim page to
// a fresh frontier page on the GC tag. The destination is allocated
// after the copy's read completes, so concurrent relocations still
// program the GC frontier block strictly in order.
//
//simlint:hotpath
func (f *FTL) relocate(blk, page int) bool {
	ppn := blk*f.geo.PagesPerBlock + page
	if f.pageState[ppn] != pageValid {
		return false
	}
	op := f.ops.Get()
	op.lpn, op.tag, op.ppn, op.src = f.p2l[ppn], TagGC, ppn, ppn
	f.read(op)
	return true
}

// relocateRead takes a relocation's read and programs what it read.
//
// Ownership: the read result is re-programmed as it stands — the image
// the victim page stores; until the victim is erased two flash pages
// hold the one immutable image — so a move costs no payload byte.
//
//simlint:hotpath
func (f *FTL) relocateRead(op *flashOp, data []byte, err error) {
	ppn, lpn := op.src, op.lpn
	if err != nil {
		// Unreadable during GC: drop the mapping and count the loss
		// so the layer above (volume mirroring, scrubbing) can see
		// it — a mirrored volume repairs the page from its replica.
		f.GCReadFaults++
		f.invalidate(ppn)
		if lpn >= 0 && f.l2p[lpn] == ppn {
			f.l2p[lpn] = -1
			f.LostPages++
		}
		f.dropRelocation(op, false)
		return
	}
	if lpn < 0 || f.l2p[lpn] != ppn || f.pageState[ppn] != pageValid {
		// Trimmed or overwritten while the copy was in flight: drop it.
		f.GCDropped++
		f.dropRelocation(op, false)
		return
	}
	dst, aerr := f.allocPage(TagGC, nil)
	if aerr != nil {
		f.GCDropped++
		f.dropRelocation(op, true)
		return
	}
	f.GCMoves++
	op.img = data
	f.program(op, dst)
}

// dropRelocation ends a relocation that programs nothing; abort fails
// the collection (no destination).
//
//simlint:hotpath
func (f *FTL) dropRelocation(op *flashOp, abort bool) {
	op.reset()
	f.ops.Put(op)
	f.GC.Done(abort)
}

// relocated ends a relocation whose copy is stored at finalPPN, or
// whose program failed for good, which aborts the collection.
//
//simlint:hotpath
func (f *FTL) relocated(op *flashOp, finalPPN int, perr error) {
	ppn, lpn := op.src, op.lpn
	op.reset()
	f.ops.Put(op)
	if perr == nil {
		if f.l2p[lpn] == ppn && f.pageState[ppn] == pageValid {
			f.invalidate(ppn)
			f.install(lpn, finalPPN)
		} else {
			// Trimmed mid-copy: the fresh page holds garbage.
			f.pageState[finalPPN] = pageInvalid
		}
	}
	f.GC.Done(perr != nil)
}

// erase is the collector's Erase.
func (f *FTL) erase(blk int, done func(err error)) {
	f.FlashErases++
	f.io.EraseBlock(f.blockAddr(blk), TagGC, done)
}

// erased is the collector's Erased: an erased block returns to the pool
// one erase older, a block that failed its erase is retired.
func (f *FTL) erased(blk int, err error) {
	if err != nil {
		f.retireBlock(blk)
		return
	}
	f.erases[blk]++
	base := blk * f.geo.PagesPerBlock
	for p := 0; p < f.geo.PagesPerBlock; p++ {
		f.pageState[base+p] = pageFree
		f.p2l[base+p] = -1
	}
	f.pushFree(blk)
}

// MappingEntries returns the size of the FTL's logical-to-physical
// table. Unlike a file system's extent maps, it covers the whole
// logical space whether or not data is live — the "large DRAM"
// cost the paper attributes to in-device FTLs (§4).
func (f *FTL) MappingEntries() int { return len(f.l2p) }
