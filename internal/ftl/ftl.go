// Package ftl implements the full flash translation layer that BlueDBM
// runs in the host block device driver (paper §4): because the hardware
// exposes raw error-corrected flash, logical-to-physical mapping,
// garbage collection, wear leveling and bad-block management live in
// software, where they can be smarter than an in-device controller
// ("similar to Fusion IO's driver").
//
// It is a page-mapped FTL: one reclaim.Log per card keyed by logical
// page number (LPN), whose package doc states the concurrency rules.
// The log keeps the reverse map, the page ops, the moves, erase and
// bad-block retirement and the garbage collector. The FTL adds the
// LPN → PPN table, which covers the whole logical space, and its
// policies: a write frontier per IOTag (so concurrent streams never
// interleave programs inside a block), each opened from a min-heap of
// free blocks keyed on erase count, whose ties rotate over the chips so
// successive blocks land on different buses; a pass held only when a
// frontier needs a fresh block; GCPipeline moves in flight; and a
// periodic wear-leveling pass that recycles the coldest block instead
// of the greedy victim, so erase wear stays even.
package ftl

import (
	"errors"
	"fmt"

	"repro/internal/nand"
	"repro/internal/reclaim"
)

// FTL errors.
var (
	ErrUnmapped   = errors.New("ftl: logical page not written")
	ErrOutOfRange = errors.New("ftl: logical page out of range")
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

// FTL drives one flash card through its page log.
type FTL struct {
	// Log is the card's page log: its units are the blocks, its keys the
	// LPNs. The layer above reads its counters and Urgency and sets its
	// Urgent callback.
	Log *reclaim.Log

	geo      nand.Geometry
	cfg      Config
	lpns     int     // logical space size
	l2p      l2p     // lpn -> ppn, -1 if unmapped
	erases   []int64 // per block
	freePool []int   // min-heap of free block indices, keyed on erase count
	rank     []int32 // per block: its place in the rotation over chips, freeLess's tie-break
	actives  [256]int32
	wearPass int64 // the number of the last collection that was a wear pass

	HostTrims int64
}

// l2p is the FTL's forward map, the log's Keying.
type l2p []int

func (m l2p) Lookup(lpn uint64) int { return m[lpn] }

func (m l2p) Map(lpn uint64, ppn int, _ bool) bool {
	m[lpn] = ppn
	return true
}

func (m l2p) Mapped() int {
	n := 0
	for _, ppn := range m {
		if ppn >= 0 {
			n++
		}
	}
	return n
}

// New builds an FTL over port, a card of geometry geo.
func New(port reclaim.Port, geo nand.Geometry, cfg Config) (*FTL, error) {
	if err := geo.Validate(); err != nil {
		return nil, err
	}
	if cfg.OverProvision < 0.02 || cfg.OverProvision >= 0.9 {
		return nil, fmt.Errorf("ftl: over-provisioning %.2f out of range [0.02,0.9)", cfg.OverProvision)
	}
	total := geo.TotalPages()
	f := &FTL{
		geo:  geo,
		cfg:  cfg,
		lpns: int(float64(total) * (1 - cfg.OverProvision)),
		l2p:  make(l2p, total),
	}
	log, err := reclaim.New("ftl", geo, 1, cfg.GCLowWater, cfg.GCPipeline, port, f.l2p)
	if err != nil {
		return nil, fmt.Errorf("ftl: GCLowWater: %w", err)
	}
	f.Log = log
	log.Alloc, log.Pick, log.Erased = f.alloc, f.wearVictim, f.erased
	for i := range f.actives {
		f.actives[i] = -1
	}
	for i := range f.l2p {
		f.l2p[i] = -1
	}
	// The rotation: block 0 of every chip, then block 1 of every chip,
	// and so on. All blocks start with zero erases, so the pool laid out
	// in that order is sorted, and a sorted array is already a valid
	// min-heap.
	f.erases = make([]int64, len(log.Units))
	chips := len(log.Units) / geo.BlocksPerChip
	f.rank = make([]int32, len(log.Units))
	for blk := range geo.BlocksPerChip {
		for chip := range chips {
			b := chip*geo.BlocksPerChip + blk
			f.rank[b] = int32(len(f.freePool))
			f.freePool = append(f.freePool, b)
		}
	}
	log.Free = len(f.freePool)
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
	if f.Log.Writes == 0 {
		return 0
	}
	return float64(f.Log.Programs) / float64(f.Log.Writes)
}

// FreeBlocks returns the current free pool size.
func (f *FTL) FreeBlocks() int { return len(f.freePool) }

// poolChanged tells the log the free pool's new size.
func (f *FTL) poolChanged() {
	f.Log.Free = len(f.freePool)
	f.Log.Urgent()
}

// Read fetches a logical page (tag 0).
func (f *FTL) Read(lpn int, cb func(data []byte, err error)) {
	f.ReadTagged(lpn, 0, cb)
}

// ReadTagged fetches a logical page on the given traffic tag. Reads
// never wait for garbage collection: the mapping is resolved at issue
// time, and the collector's erase — the only op that could destroy
// the resolved page — waits for in-flight reads against the victim to
// drain (reclaim.Log.Read).
func (f *FTL) ReadTagged(lpn int, tag IOTag, cb func(data []byte, err error)) {
	if lpn < 0 || lpn >= f.lpns {
		//simlint:allow hotpath (error path: allocates only on an out-of-range read, which fails the op anyway)
		cb(nil, fmt.Errorf("%w: %d", ErrOutOfRange, lpn))
		return
	}
	if tag == TagGC {
		cb(nil, ErrBadTag)
		return
	}
	ppn := f.l2p[lpn]
	if ppn < 0 {
		//simlint:allow hotpath (error path: allocates only for an unmapped page, which fails the op anyway)
		cb(nil, fmt.Errorf("%w: %d", ErrUnmapped, lpn))
		return
	}
	f.Log.Read(ppn, uint8(tag), cb)
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
// payload allocation: the image goes down through the port by
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
	f.Log.Write(uint64(lpn), img, uint8(tag), cb)
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
		f.Log.Invalidate(ppn)
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
	return f.geo.AddrOf(ppn), nil
}

// alloc is the log's Alloc: the next page of tag's frontier block. A
// write (retry set) needing a fresh block first passes the log's gate,
// which may park retry behind a collection (-1, no error). A relocation
// (retry nil, the GC tag) takes a block or fails, aborting the pass.
func (f *FTL) alloc(tag uint8, retry func()) (int, error) {
	for {
		if blk := int(f.actives[tag]); blk >= 0 {
			if ppn := f.Log.Take(blk); ppn >= 0 {
				return ppn, nil
			}
			f.actives[tag] = -1
		}
		if retry != nil && f.Log.Hold(retry) {
			return -1, nil
		}
		if len(f.freePool) == 0 {
			return 0, reclaim.ErrNoSpace
		}
		blk := f.popLeastWorn()
		f.actives[tag] = int32(blk)
		f.Log.Open(blk)
	}
}

// --- free pool: min-heap keyed on erase count ------------------------

// freeLess orders the heap by erase count, then by rank — block within
// chip, then chip: blocks of equal wear rotate over the chips (and so
// over the buses) instead of filling the bus-major block index in
// order, so consecutive frontiers land on different chips and a run of
// logical pages spreads over every bus (Agrawal et al., "Design
// Tradeoffs for SSD Performance", USENIX ATC'08). Heap invariant: a
// block's erase count never changes while it sits in freePool — erases
// increment only in erased, immediately before pushFree re-inserts it.
func (f *FTL) freeLess(a, b int) bool {
	ea, eb := f.erases[a], f.erases[b]
	if ea != eb {
		return ea < eb
	}
	return f.rank[a] < f.rank[b]
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
// leveling; the victim-selection half is wearVictim).
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

// erased is the log's Erased: an erased block returns to the pool one
// erase older.
func (f *FTL) erased(blk int) {
	f.erases[blk]++
	f.pushFree(blk)
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
	n := f.Log.Passes
	return f.cfg.WearLevelEvery > 0 && n > 0 && n%int64(f.cfg.WearLevelEvery) == 0 &&
		len(f.freePool) >= 1 && f.wearPass != n
}

// wearVictim is the log's Pick: on a wear pass, the coldest sealed
// block, so cold blocks re-enter circulation; otherwise -1, the greedy
// victim.
func (f *FTL) wearVictim() int {
	if !f.wearPassDue() {
		return -1
	}
	v := f.coldest()
	if v >= 0 {
		f.wearPass = f.Log.Passes + 1 // the pass about to start
	}
	return v
}

// coldest returns the sealed block with the fewest erases, valid pages
// or not (the lowest index on ties), or -1.
func (f *FTL) coldest() int {
	best := -1
	for b := range f.Log.Units {
		u := &f.Log.Units[b]
		if u.Bad || u.Active || u.Written < f.geo.PagesPerBlock {
			continue
		}
		if best < 0 || f.erases[b] < f.erases[best] {
			best = b
		}
	}
	return best
}

// MappingEntries returns the size of the FTL's logical-to-physical
// table. Unlike a file system's extent maps, it covers the whole
// logical space whether or not data is live — the "large DRAM"
// cost the paper attributes to in-device FTLs (§4).
func (f *FTL) MappingEntries() int { return len(f.l2p) }
