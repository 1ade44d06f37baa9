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
// Concurrency rules (all in virtual time, single-threaded):
//   - Writes proceed during an active collection while the free pool
//     stays above a reserve (their frontiers are disjoint from the
//     sealed victim); below it they queue in pendingOps and drain when
//     the victim is erased, so they can never starve the relocation
//     destination.
//   - Reads resolve their mapping at issue time and never wait for a
//     collection: relocation only copies, so a racing read still finds
//     its data at the old physical page. The one destructive step —
//     the victim erase — waits until in-flight reads against the
//     victim drain, and after relocation no mapping points into the
//     victim, so no new read can resolve there. A read can therefore
//     never land on a page the collector erases under it.
//   - A collection that cannot allocate relocation space aborts and
//     marks the FTL stalled; further allocations fail deterministically
//     with ErrNoSpace (instead of re-triggering the same doomed pass)
//     until an invalidation shrinks some victim's relocation demand.
package ftl

import (
	"errors"
	"fmt"

	"repro/internal/flashctl"
	"repro/internal/nand"
	"repro/internal/sim"
)

// FTL errors.
var (
	ErrUnmapped   = errors.New("ftl: logical page not written")
	ErrOutOfRange = errors.New("ftl: logical page out of range")
	ErrDataSize   = errors.New("ftl: data must be exactly one page")
	ErrNoSpace    = errors.New("ftl: device full (no free blocks and nothing to collect)")
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

type blockInfo struct {
	valid    int // valid pages
	written  int // programmed pages (frontier within block)
	erases   int64
	bad      bool
	isActive bool
	pending  int // programs issued but not yet acknowledged
	reads    int // host reads in flight against this block
}

// gcState tracks one in-progress collection.
type gcState struct {
	victim      int
	next        int // next page index of the victim to scan
	inflight    int // outstanding relocation transfers
	aborted     bool
	relocated   bool // all valid pages moved; erase is next
	eraseIssued bool
}

// FTL drives one flash card through a Backend.
type FTL struct {
	io    Backend
	geo   nand.Geometry
	cfg   Config
	hooks Hooks

	lpns      int   // logical space size
	l2p       []int // lpn -> ppn, -1 if unmapped
	p2l       []int // ppn -> lpn, -1 if none
	pageState []pageState
	blocks    []blockInfo
	freePool  []int // min-heap of free block indices, keyed on erase count

	actives    [256]int32 // per-tag frontier block, dense by IOTag; -1 = none
	gcActive   bool       // a collection is triggered (ops queue behind it)
	gcRunning  bool       // relocation I/O has started
	gcStalled  bool       // last collection made no progress: no room to relocate
	prevWear   bool       // last collection was a wear pass (forces greedy next)
	gcst       *gcState   // the collection in progress (points at gcSlot), nil when none
	gcSlot     gcState    // its storage, reused by every collection
	gcCount    int64
	pendingOps []func()        // writes queued behind GC by the reserve gate
	spareOps   []func()        // pendingOps' other storage, swapped in by finishGC; nil while a drain holds it
	onErased   func(err error) // the victim erase completed; bound once
	ops        sim.Pool[flashOp]

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
	if cfg.GCLowWater < 1 {
		return nil, fmt.Errorf("ftl: GCLowWater %d: garbage collection needs a low-water mark of at least 1 free block", cfg.GCLowWater)
	}
	if cfg.GCPipeline < 1 {
		cfg.GCPipeline = 1
	}
	total := geo.TotalPages()
	f := &FTL{
		io:        io,
		geo:       geo,
		cfg:       cfg,
		lpns:      int(float64(total) * (1 - cfg.OverProvision)),
		l2p:       make([]int, total),
		p2l:       make([]int, total),
		pageState: make([]pageState, total),
		blocks:    make([]blockInfo, geo.Buses*geo.ChipsPerBus*geo.BlocksPerChip),
	}
	f.onErased = f.victimErased
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
	for b := range f.blocks {
		f.freePool = append(f.freePool, b)
	}
	return f, nil
}

// SetHooks installs GC lifecycle hooks (see Hooks).
func (f *FTL) SetHooks(h Hooks) { f.hooks = h }

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

// Urgency reports how badly the FTL needs its relocation work to run,
// from 0 (free pool at or above the GC low-water mark: collection is
// keeping up and can afford to be deferred) to 1 (pool dry, host
// writes about to stall). The scheduler uses it to scale the GC token
// budget, so it measures deficit below the trigger point, not pool
// fullness: while GC keeps up, relocation deserves no device share.
func (f *FTL) Urgency() float64 {
	u := 1 - float64(len(f.freePool))/float64(f.cfg.GCLowWater)
	if u < 0 {
		return 0
	}
	if u > 1 {
		return 1
	}
	return u
}

func (f *FTL) notifyUrgency() {
	if f.hooks.Urgency != nil {
		f.hooks.Urgency(f.Urgency())
	}
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
// drain (see doRead/maybeErase).
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
	src int      // relocation: the victim page being moved
	st  *gcState // relocation: the collection it belongs to
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

// doRead resolves the mapping and issues the flash read. Reads never
// wait for garbage collection: relocation only copies, so a read that
// races it still finds its data at the old physical page — the one
// destructive step, the victim erase, is what waits for in-flight
// reads to drain (see maybeErase). Once a page is relocated the
// mapping points at the copy, so later reads resolve away from the
// victim on their own.
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
	f.blocks[f.blockOf(ppn)].reads++
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
	cb := op.rcb
	f.blocks[f.blockOf(op.ppn)].reads--
	op.reset()
	f.ops.Put(op)
	if err != nil {
		f.ReadFaults++
		if errors.Is(err, flashctl.ErrUncorrectable) {
			f.UncorrectableReads++
		}
	}
	f.maybeErase()
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
	f.enqueue(op.run)
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

// gcReserveBlocks is the free-block floor below which host writes
// stall behind an active collection: the last blocks are reserved as
// the relocation destination, because a write racing GC for them can
// abort the collection and wedge the device.
const gcReserveBlocks = 1

// enqueue runs a write now, or behind the in-progress GC when the
// free-block reserve demands it. Writes that proceed during a
// collection go to their own tag's frontier and cannot disturb the
// victim (relocation re-validates each page's mapping before
// installing the copy), so blocking every write for the whole
// collection would only build a post-GC program storm. Note that a
// write admitted during GC is not ordered against writes queued
// behind it — same-page racers have no ordering guarantee anywhere in
// the scheduler stack; callers that need read-your-write await
// completions.
func (f *FTL) enqueue(op func()) {
	if f.gcActive && len(f.freePool) <= gcReserveBlocks {
		f.pendingOps = append(f.pendingOps, op)
		return
	}
	op()
}

// allocAndProgram takes a frontier page for a host write (starting GC
// first if needed) and programs its image there. It is the op's run
// continuation: what enqueue and allocPage park behind a collection.
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
	f.blocks[f.blockOf(ppn)].pending++
	//simlint:allow hotcall (the backend dispatch: its admission path carries its own hotpath annotations)
	f.io.WritePage(f.addrOf(ppn), op.img, op.tag, op.onWrite)
}

// programDone is the backend's completion of a program.
//
//simlint:hotpath
func (f *FTL) programDone(op *flashOp, err error) {
	blk := f.blockOf(op.ppn)
	f.blocks[blk].pending--
	if err == nil {
		// Install the page's mapping and validity BEFORE waking a
		// collection that may have picked this block as its victim: the
		// relocation scan keys on pageState, and starting it in the
		// window between the program's completion and its metadata
		// update would treat this page as dead — the victim erase would
		// then destroy it while the mapping (installed moments later)
		// points at freed flash.
		f.finishWrite(op, op.ppn, nil)
		f.maybeBeginGC()
		return
	}
	if errors.Is(err, nand.ErrBadBlock) {
		// The failed program kept nothing: the image is the op's again
		// and goes out once more, to another block.
		f.retireBlock(blk)
		// A collection waiting on this block's pending count can
		// proceed now (the page never became valid).
		f.maybeBeginGC()
		// GC relocation retries must not route through allocPage:
		// its queue-behind-GC branches would park the retry in
		// pendingOps behind the very collection waiting on this
		// callback. Re-allocate on the GC path and let a no-space
		// failure abort the pass instead.
		if op.tag == TagGC {
			dst, aerr := f.gcAllocPage()
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
	f.maybeBeginGC()
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
	f.l2p[lpn] = finalPPN
	f.p2l[finalPPN] = lpn
	f.pageState[finalPPN] = pageValid
	f.blocks[f.blockOf(finalPPN)].valid++
	cb(nil)
}

// invalidate marks a physical page dead.
func (f *FTL) invalidate(ppn int) {
	if f.pageState[ppn] == pageValid {
		f.blocks[f.blockOf(ppn)].valid--
		// A stalled FTL aborted its last collection for lack of
		// relocation space; dropping a valid page shrinks some
		// victim's relocation demand (a zero-valid victim needs none
		// at all), so collection is worth retrying. If it still cannot
		// fit, it re-aborts and re-stalls — progress requires another
		// invalidation, so this cannot loop.
		f.gcStalled = false
	}
	f.pageState[ppn] = pageInvalid
	f.p2l[ppn] = -1
}

// retireBlock permanently removes a block from service, clearing any
// frontier that pointed at it so no stale active state survives.
func (f *FTL) retireBlock(blk int) {
	bi := &f.blocks[blk]
	if bi.bad {
		return
	}
	bi.bad = true
	bi.isActive = false
	f.BadBlocks++
	for tag, a := range f.actives {
		if a == int32(blk) {
			f.actives[tag] = -1
		}
	}
}

// allocPage returns the next frontier ppn for tag, or (-1, nil) if GC
// had to start first (retry is the op to requeue behind the GC).
func (f *FTL) allocPage(tag IOTag, retry func()) (int, error) {
	for {
		if blk := int(f.actives[tag]); blk >= 0 {
			b := &f.blocks[blk]
			if b.bad {
				f.actives[tag] = -1
				continue
			}
			if b.written < f.geo.PagesPerBlock {
				ppn := blk*f.geo.PagesPerBlock + b.written
				b.written++
				return ppn, nil
			}
			b.isActive = false
			f.actives[tag] = -1
		}
		// Need a new frontier block. A stalled FTL (last collection
		// found no room to relocate) must not re-trigger the same
		// doomed pass: only an erase or an invalidation can change the
		// outcome, so keep allocating from the pool and fail when it
		// runs dry.
		if len(f.freePool) <= f.cfg.GCLowWater && !f.gcActive && !f.gcStalled {
			wear := f.wearPassDue()
			if victim := f.pickVictim(wear); victim >= 0 {
				// Queue the retry before starting: with a synchronous
				// backend the whole collection (and its pendingOps
				// drain) can complete inside beginGC.
				if retry != nil {
					f.pendingOps = append(f.pendingOps, retry)
				}
				f.beginGC(victim, wear)
				return -1, nil
			}
		}
		// While a collection is in flight, ops that reached this point
		// past the enqueue reserve gate (bad-block retries, writes
		// admitted just before the pool dropped) must neither consume
		// the reserve the collection's relocation needs nor see a
		// transient "device full": queue them behind the collection.
		// ErrNoSpace is then only ever returned with no collection in
		// flight — deterministically.
		if f.gcActive && len(f.freePool) <= gcReserveBlocks && retry != nil {
			f.pendingOps = append(f.pendingOps, retry)
			return -1, nil
		}
		if len(f.freePool) == 0 {
			return 0, ErrNoSpace
		}
		blk := f.popLeastWorn()
		f.actives[tag] = int32(blk)
		ab := &f.blocks[blk]
		ab.isActive = true
		ab.written = 0
		ab.valid = 0
	}
}

// --- free pool: min-heap keyed on erase count ------------------------

// freeLess orders the heap by erase count, block index as the
// deterministic tie-break. Heap invariant: a block's erase count
// never changes while it sits in freePool — erases increment only in
// eraseVictim, immediately before pushFree re-inserts the block.
func (f *FTL) freeLess(a, b int) bool {
	ea, eb := f.blocks[a].erases, f.blocks[b].erases
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
	f.notifyUrgency()
}

// popLeastWorn takes the free block with the fewest erases, spreading
// dynamic wear evenly across the pool (the allocation half of wear
// leveling; the victim-selection half is in pickVictim). The pool is a
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
	f.notifyUrgency()
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
	return f.cfg.WearLevelEvery > 0 && f.gcCount > 0 &&
		f.gcCount%int64(f.cfg.WearLevelEvery) == 0 &&
		len(f.freePool) >= 1 && !f.prevWear
}

// pickVictim selects the GC victim: normally the sealed block with the
// fewest valid pages; on a wear pass, the sealed block with the lowest
// erase count (static wear leveling), so cold blocks re-enter
// circulation. A sealed block may still have unacknowledged programs
// (bursty admission); it is eligible, but relocation waits for them to
// drain (see maybeBeginGC) so no outstanding flash op is erased under.
func (f *FTL) pickVictim(wearPass bool) int {
	best := -1
	for b := range f.blocks {
		bi := &f.blocks[b]
		if bi.bad || bi.isActive || bi.written < f.geo.PagesPerBlock {
			continue
		}
		if bi.valid == f.geo.PagesPerBlock && !wearPass {
			continue // nothing to gain
		}
		if best < 0 {
			best = b
			continue
		}
		if wearPass {
			if bi.erases < f.blocks[best].erases {
				best = b
			}
		} else if bi.valid < f.blocks[best].valid {
			best = b
		}
	}
	return best
}

// beginGC triggers a collection of the chosen victim block (picked by
// the caller). Relocation I/O begins once in-flight programs against
// the victim drain.
func (f *FTL) beginGC(victim int, wear bool) {
	f.prevWear = wear
	f.gcActive = true
	f.gcCount++
	// Every relocation of the previous collection has completed (it
	// could not finish otherwise), so nothing still points at the slot.
	f.gcSlot = gcState{victim: victim}
	f.gcst = &f.gcSlot
	if f.hooks.GCStart != nil {
		f.hooks.GCStart()
	}
	f.maybeBeginGC()
}

// maybeBeginGC starts relocation once no outstanding program is in
// flight against the victim. The victim is sealed (fully allocated),
// so no new program can ever target it and the count only drains;
// once it hits zero the victim's page states are final and its data
// safe to move. In-flight reads do not block relocation — only the
// erase (see maybeErase).
func (f *FTL) maybeBeginGC() {
	if !f.gcActive || f.gcRunning || f.blocks[f.gcst.victim].pending > 0 {
		return
	}
	f.gcRunning = true
	f.pumpGC()
}

// maybeErase issues the victim erase once relocation is complete and
// no host read is in flight against the victim. After relocation the
// mapping holds no pointers into the victim, so no new read can
// resolve into it — the count only drains.
func (f *FTL) maybeErase() {
	st := f.gcst
	if st == nil || !st.relocated || st.eraseIssued {
		return
	}
	if f.blocks[st.victim].reads > 0 {
		return
	}
	st.eraseIssued = true
	f.eraseVictim(st.victim)
}

// pumpGC keeps up to GCPipeline relocation transfers in flight, then
// erases the victim (or aborts the pass).
func (f *FTL) pumpGC() {
	st := f.gcst
	for !st.aborted && st.inflight < f.cfg.GCPipeline && st.next < f.geo.PagesPerBlock {
		page := st.next
		st.next++
		ppn := st.victim*f.geo.PagesPerBlock + page
		if f.pageState[ppn] != pageValid {
			continue
		}
		st.inflight++
		f.relocate(ppn)
	}
	if st.inflight > 0 {
		return
	}
	if st.aborted {
		// No room to move the remaining valid pages: the pass made no
		// net progress and retrying it cannot either (only an erase
		// creates relocation space). Mark the FTL stalled so the write
		// that triggered collection fails with ErrNoSpace instead of
		// looping startGC -> abort forever.
		f.GCAborts++
		f.gcStalled = true
		f.finishGC()
		return
	}
	st.relocated = true
	f.maybeErase()
}

// relocate copies one valid victim page to a fresh frontier page on
// the GC tag. The destination is allocated after the copy's read
// completes, so concurrent relocations still program the GC frontier
// block strictly in order.
//
//simlint:hotpath
func (f *FTL) relocate(ppn int) {
	op := f.ops.Get()
	op.lpn, op.tag = f.p2l[ppn], TagGC
	op.ppn, op.src, op.st = ppn, ppn, f.gcst
	f.read(op)
}

// relocateRead takes a relocation's read and programs what it read.
//
// Ownership: the read result is re-programmed as it stands — the image
// the victim page stores; until the victim is erased two flash pages
// hold the one immutable image — so a move costs no payload byte.
//
//simlint:hotpath
func (f *FTL) relocateRead(op *flashOp, data []byte, err error) {
	st, ppn, lpn := op.st, op.src, op.lpn
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
		f.dropRelocation(op)
		return
	}
	if lpn < 0 || f.l2p[lpn] != ppn || f.pageState[ppn] != pageValid {
		// Trimmed or overwritten while the copy was in flight: drop it.
		f.GCDropped++
		f.dropRelocation(op)
		return
	}
	dst, aerr := f.gcAllocPage()
	if aerr != nil {
		st.aborted = true
		f.GCDropped++
		f.dropRelocation(op)
		return
	}
	f.GCMoves++
	op.img = data
	f.program(op, dst)
}

// dropRelocation ends a relocation that programs nothing.
//
//simlint:hotpath
func (f *FTL) dropRelocation(op *flashOp) {
	op.st.inflight--
	op.reset()
	f.ops.Put(op)
	f.pumpGC()
}

// relocated ends a relocation whose copy is stored at finalPPN, or
// whose program failed for good.
//
//simlint:hotpath
func (f *FTL) relocated(op *flashOp, finalPPN int, perr error) {
	st, ppn, lpn := op.st, op.src, op.lpn
	op.reset()
	f.ops.Put(op)
	st.inflight--
	if perr != nil {
		st.aborted = true
		f.pumpGC()
		return
	}
	if f.l2p[lpn] == ppn && f.pageState[ppn] == pageValid {
		f.invalidate(ppn)
		f.l2p[lpn] = finalPPN
		f.p2l[finalPPN] = lpn
		f.pageState[finalPPN] = pageValid
		f.blocks[f.blockOf(finalPPN)].valid++
	} else {
		// Trimmed mid-copy: the fresh page holds garbage.
		f.pageState[finalPPN] = pageInvalid
	}
	f.pumpGC()
}

// gcAllocPage allocates a relocation target on the GC frontier without
// recursing into GC.
func (f *FTL) gcAllocPage() (int, error) {
	for {
		if blk := int(f.actives[TagGC]); blk >= 0 {
			b := &f.blocks[blk]
			if !b.bad && b.written < f.geo.PagesPerBlock {
				ppn := blk*f.geo.PagesPerBlock + b.written
				b.written++
				return ppn, nil
			}
			b.isActive = false
			f.actives[TagGC] = -1
		}
		if len(f.freePool) == 0 {
			return 0, ErrNoSpace
		}
		blk := f.popLeastWorn()
		f.actives[TagGC] = int32(blk)
		ab := &f.blocks[blk]
		ab.isActive = true
		ab.written = 0
		ab.valid = 0
	}
}

func (f *FTL) eraseVictim(victim int) {
	f.FlashErases++
	f.io.EraseBlock(f.blockAddr(victim), TagGC, f.onErased)
}

// victimErased is the backend's completion of the collection's erase.
func (f *FTL) victimErased(err error) {
	victim := f.gcst.victim
	bi := &f.blocks[victim]
	if err != nil {
		f.retireBlock(victim)
	} else {
		bi.erases++
		bi.valid = 0
		bi.written = 0
		base := victim * f.geo.PagesPerBlock
		for p := 0; p < f.geo.PagesPerBlock; p++ {
			f.pageState[base+p] = pageFree
			f.p2l[base+p] = -1
		}
		// Fresh erased space: a previously stalled FTL can make
		// progress again.
		f.gcStalled = false
		f.pushFree(victim)
	}
	f.finishGC()
}

// finishGC drains operations queued while collecting. The queue swaps
// between two backing arrays instead of growing a new one per
// collection; the one being drained is held by this call alone, so a
// drain nested in it (a drained op whose collection completes
// synchronously) queues into fresh storage.
func (f *FTL) finishGC() {
	f.gcActive = false
	f.gcRunning = false
	f.gcst = nil
	if f.hooks.GCEnd != nil {
		f.hooks.GCEnd()
	}
	ops := f.pendingOps
	f.pendingOps, f.spareOps = f.spareOps[:0], nil
	for i, op := range ops {
		ops[i] = nil
		if f.gcActive {
			// A drained op re-triggered GC; requeue the rest.
			f.pendingOps = append(f.pendingOps, op)
			continue
		}
		op()
	}
	f.spareOps = ops[:0]
}

// MappingEntries returns the size of the FTL's logical-to-physical
// table. Unlike a file system's extent maps, it covers the whole
// logical space whether or not data is live — the "large DRAM"
// cost the paper attributes to in-device FTLs (§4).
func (f *FTL) MappingEntries() int { return len(f.l2p) }
