// Package rfs is the flash-aware file system of the BlueDBM software
// stack (paper §4), modelled on RFS: instead of stacking a disk file
// system on an FTL's fake block device, the file system performs the
// FTL's functions itself — logical-to-physical mapping, log-structured
// allocation, and garbage collection — achieving better cleaning
// efficiency at far lower memory cost.
//
// Its defining feature for BlueDBM is the physical-address query
// (Figure 8, step 1): applications ask for the physical locations of a
// file's pages and stream them to in-store processors, which then read
// flash directly, bypassing the host entirely.
//
// The FS core is generic over a Backend: the same inode, frontier,
// backref and cleaning machinery runs per-card over a flashserver
// interface (CardBackend — the original deployment) or cluster-wide,
// striping the log over every chip of every card of every node with
// all I/O admitted through the request scheduler at the caller's QoS
// class and segment cleaning on the Background class (ClusterBackend
// — the paper's Figure 8 at appliance scale).
//
// The segment cleaner is a reclaim.Reclaimer over the segments
// (FS.Cleaner), whose package doc states the concurrency rules. Remove
// is metadata-only and lands immediately, so every move re-validates
// its backref before it installs the copy.
//
// Ownership: a write snapshots the caller's page into an image
// (nand.Geometry.PageImage), the write's one allocation, and hands it
// down through the Backend by reference; a read delivers the image the
// card stores, which nobody writes to (see Backend). Every page
// operation in flight — an app read, an app write, a cleaner move — is
// one pooled pageOp whose completions were bound when the record was
// made, so nothing else is allocated per page. An op returns to the
// pool before its caller's callback runs; a drained FS has none out.
package rfs

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/flashserver"
	"repro/internal/nand"
	"repro/internal/reclaim"
	"repro/internal/sched"
	"repro/internal/sim"
)

// File system errors.
var (
	ErrExists    = errors.New("rfs: file already exists")
	ErrNotFound  = errors.New("rfs: file not found")
	ErrDataSize  = errors.New("rfs: data must be exactly one page")
	ErrBadOffset = errors.New("rfs: page offset out of range")
	ErrSpansCard = errors.New("rfs: file spans multiple cards; ATU export needs a per-card file")
)

// Config tunes the file system.
type Config struct {
	// CleanLowWater starts segment cleaning when the free-segment pool
	// drops this low; it must be at least 1. Cluster deployments want
	// it scaled with the chip count (a handful of free segments across
	// hundreds of chips means the log is effectively full).
	CleanLowWater int
	// StripeExtent is how many consecutive pages a lane writes to one
	// chip before rotating to the next (default 1: pure page-granular
	// round-robin). Page-granular striping maximizes write parallelism
	// but scatters each segment's pages across ~chips*PagesPerSeg
	// writes of arrival time, so temporally-adjacent data (which dies
	// together) never shares a segment and greedy cleaning finds only
	// uniformly-decayed victims. A small extent restores the age
	// clustering log-structured cleaning depends on, at a modest cost
	// in how many chips a short write burst spreads over.
	StripeExtent int
}

// DefaultConfig returns sensible defaults.
func DefaultConfig() Config {
	return Config{CleanLowWater: 2}
}

type fileRef struct {
	ino  int
	page int
}

type inode struct {
	name   string
	handle flashserver.FileHandle
	pages  []int // page index -> ppn, -1 for holes
	live   bool
}

// FS is a flash file system over a Backend.
type FS struct {
	b   Backend
	lay Layout
	geo nand.Geometry // the part of the flash geometry that sizes a page image
	cfg Config

	// Cleaner is the segment cleaner; its units are the segments. The
	// layer above reads its Urgency and sets its Urgent callback.
	Cleaner *reclaim.Reclaimer

	lanes     int // app lanes + 1 cleaning lane
	cleanLane int

	inodes   []*inode
	byName   map[string]int
	backrefs map[int]fileRef // ppn -> owner

	// Allocation stripes across chips (one log frontier per chip and
	// lane) so file data spreads over every bus and chip — "exposing
	// all degrees of parallelism of the device" (paper §3.1.1) — and,
	// on a cluster backend, over every card and node.
	freePool [][]int // per chip; Cleaner.Free is their running total
	active   [][]int // [lane][chip], -1 = none
	cursor   []int   // per-lane round-robin chip cursor

	ops sim.Pool[pageOp]

	// stats
	PagesWritten int64
	PagesRead    int64
	CleanMoves   int64
	SegsCleaned  int64

	// fault stats
	CleanReadFaults int64 // cleaner reads that failed (uncorrectable or dead flash)
	LostPages       int64 // file pages dropped because their data was unreadable
}

// New builds a file system on a single card's flashserver interface
// with the card geometry — the per-card deployment.
func New(iface *flashserver.Iface, geo nand.Geometry, cfg Config) (*FS, error) {
	b, err := NewCardBackend(iface, geo)
	if err != nil {
		return nil, err
	}
	return NewWithBackend(b, cfg)
}

// NewWithBackend builds a file system over an arbitrary Backend.
func NewWithBackend(b Backend, cfg Config) (*FS, error) {
	lay := b.Layout()
	if err := lay.Validate(); err != nil {
		return nil, err
	}
	cl, err := reclaim.New(lay.TotalSegs(), lay.PagesPerSeg, cfg.CleanLowWater, 1)
	if err != nil {
		return nil, fmt.Errorf("rfs: CleanLowWater: %w", err)
	}
	lanes := lay.Lanes + 1 // one extra frontier lane for cleaning
	fs := &FS{
		b:         b,
		lay:       lay,
		geo:       nand.Geometry{PageSize: lay.PageSize},
		cfg:       cfg,
		Cleaner:   cl,
		lanes:     lanes,
		cleanLane: lay.Lanes,
		byName:    make(map[string]int),
		backrefs:  make(map[int]fileRef),
		freePool:  make([][]int, lay.Chips),
		active:    make([][]int, lanes),
		cursor:    make([]int, lanes),
	}
	cl.Move, cl.Erase, cl.Erased = fs.move, b.EraseSeg, fs.erased
	for lane := 0; lane < lanes; lane++ {
		fs.active[lane] = make([]int, lay.Chips)
		for ch := range fs.active[lane] {
			fs.active[lane][ch] = -1
		}
	}
	for ch := 0; ch < lay.Chips; ch++ {
		for s := 0; s < lay.SegsPerChip; s++ {
			fs.freePool[ch] = append(fs.freePool[ch], ch*lay.SegsPerChip+s)
		}
	}
	cl.Free = lay.TotalSegs()
	fs.ops.New = fs.newPageOp
	return fs, nil
}

// pageOp is one page operation in flight in the file system: an app
// read from ReadPage to its callback, an app write from writePage until
// its mapping is installed, or a cleaner move from its read until the
// copy is installed. Ops are pooled (FS.ops), and the continuations an
// op hands down — the backend's completions, and itself as the thing
// to queue behind a clean — are bound when the record is made, so a
// page operation allocates nothing here but a write's image.
type pageOp struct {
	ino, idx int         // write: the file page it maps
	ppn, dst int         // the page read (a move's victim page); the page a program in flight targets
	class    sched.Class // app ops: the file handle's
	img      []byte      // write: held so that a program failed by a bad block goes out again
	ref      fileRef     // move: the file page ppn held when the move began
	rcb      func(data []byte, err error)
	wcb      func(err error)

	// bound once
	run                func() // write: take a log page and program it
	onRead, onMoveRead func(data []byte, err error)
	onWrite, onMoved   func(err error)
}

// newPageOp is ops.New.
func (fs *FS) newPageOp() *pageOp {
	op := &pageOp{}
	op.run = func() { fs.allocAndProgram(op) }
	op.onRead = func(data []byte, err error) { fs.readDone(op, data, err) }
	op.onWrite = func(err error) { fs.programDone(op, err) }
	op.onMoveRead = func(data []byte, err error) { fs.moveRead(op, data, err) }
	op.onMoved = func(err error) { fs.moveWritten(op, err) }
	return op
}

// put zeroes an op, keeping its bound continuations, and returns it to
// the pool. Its caller has taken the outcome out of it: no backend
// completion is outstanding on it and no queue holds it.
//
//simlint:hotpath
func (fs *FS) put(op *pageOp) {
	*op = pageOp{run: op.run, onRead: op.onRead, onMoveRead: op.onMoveRead, onWrite: op.onWrite, onMoved: op.onMoved}
	fs.ops.Put(op)
}

// Backend returns the storage the file system runs over.
func (fs *FS) Backend() Backend { return fs.b }

// chipOf returns the chip index owning a segment.
func (fs *FS) chipOf(seg int) int { return seg / fs.lay.SegsPerChip }

// PageSize returns the file system's IO granularity.
func (fs *FS) PageSize() int { return fs.lay.PageSize }

func (fs *FS) segOf(ppn int) int { return ppn / fs.lay.PagesPerSeg }

// laneOf maps an op's QoS class onto a frontier lane, so writes
// admitted through independently scheduled channels never share a
// NAND block.
func (fs *FS) laneOf(class sched.Class) int {
	return int(class) % fs.lay.Lanes
}

// File is an open file handle. It carries the QoS class its I/O is
// admitted at on scheduler-backed backends (At derives handles at
// other classes); per-card backends ignore the class.
type File struct {
	fs    *FS
	ino   int
	class sched.Class
}

// Create makes a new empty file (I/O at the Batch class; see At).
func (fs *FS) Create(name string) (*File, error) {
	if _, dup := fs.byName[name]; dup {
		return nil, fmt.Errorf("%w: %q", ErrExists, name)
	}
	ino := len(fs.inodes)
	fs.inodes = append(fs.inodes, &inode{
		name:   name,
		handle: flashserver.FileHandle(ino + 1),
		live:   true,
	})
	fs.byName[name] = ino
	return &File{fs: fs, ino: ino, class: sched.Batch}, nil
}

// Open returns an existing file (I/O at the Batch class; see At).
//
//simlint:allow unused (the RFS file API of the paper's §4, which the rfs tests run)
func (fs *FS) Open(name string) (*File, error) {
	ino, ok := fs.byName[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	return &File{fs: fs, ino: ino, class: sched.Batch}, nil
}

// Remove deletes a file, invalidating its pages for the cleaner. It
// is a host-side metadata update and lands immediately, even while a
// clean is relocating the file's pages (the cleaner re-validates
// every backref before installing a moved copy).
func (fs *FS) Remove(name string) error {
	ino, ok := fs.byName[name]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	nd := fs.inodes[ino]
	for _, ppn := range nd.pages {
		if ppn >= 0 {
			fs.invalidate(ppn)
		}
	}
	nd.pages = nil
	nd.live = false
	delete(fs.byName, name)
	return nil
}

// List returns all file names, sorted.
func (fs *FS) List() []string {
	var out []string
	for name := range fs.byName {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// FreeSegments returns the free pool size across all chips.
func (fs *FS) FreeSegments() int { return fs.Cleaner.Free }

// LiveMappings returns the number of page-mapping entries the file
// system currently holds — only live data is mapped, which is the
// memory-footprint half of the RFS argument (paper §4): an FTL maps
// the whole logical space whether or not data is live.
func (fs *FS) LiveMappings() int { return len(fs.backrefs) }

// At returns a handle on the same file issuing I/O at the given QoS
// class. Classes at or above Accel are not tenant classes and clamp
// to Batch. Per-card backends ignore the class entirely.
func (f *File) At(class sched.Class) *File {
	if class >= sched.Accel {
		class = sched.Batch
	}
	return &File{fs: f.fs, ino: f.ino, class: class}
}

// Name returns the file's name.
func (f *File) Name() string { return f.fs.inodes[f.ino].name }

// Handle returns the file's stable handle for ATU export.
func (f *File) Handle() flashserver.FileHandle { return f.fs.inodes[f.ino].handle }

// Pages returns the file's length in pages.
func (f *File) Pages() int { return len(f.fs.inodes[f.ino].pages) }

// PageSize returns the file system's IO granularity.
func (f *File) PageSize() int { return f.fs.lay.PageSize }

// PhysicalAddrs returns the cluster-wide physical flash location of
// every page — the query applications use to drive in-store
// processors directly (paper Figure 8, step 1). On a cluster backend
// the addresses span every node of the appliance; the distributed ISP
// layer partitions them by owning node and fans engines out over the
// fabric. Every address is a snapshot: an overwrite, Remove, or
// cleaning relocation of the page invalidates it, so engines scan
// read-stable data or re-query after mutation.
func (f *File) PhysicalAddrs() ([]core.PageAddr, error) {
	nd := f.fs.inodes[f.ino]
	out := make([]core.PageAddr, 0, len(nd.pages))
	for i, ppn := range nd.pages {
		if ppn < 0 {
			return nil, fmt.Errorf("rfs: file %q has a hole at page %d", nd.name, i)
		}
		out = append(out, f.fs.b.Addr(ppn))
	}
	return out, nil
}

// ExportATU loads the file's physical layout into a Flash Server ATU
// so in-store processors can address it by (handle, offset). An ATU
// belongs to one card's flash server, so the file must live entirely
// on one card (always true on a CardBackend); cluster files that
// stripe across cards use PhysicalAddrs with the distributed ISP
// layer instead.
//
//simlint:allow unused (the ATU path of the paper's Figure 8, which the rfs tests run)
func (f *File) ExportATU(atu *flashserver.ATU) error {
	addrs, err := f.PhysicalAddrs()
	if err != nil {
		return err
	}
	nas := make([]nand.Addr, len(addrs))
	for i, a := range addrs {
		if a.Node != addrs[0].Node || a.Card != addrs[0].Card {
			return fmt.Errorf("%w: %q touches n%d.card%d and n%d.card%d",
				ErrSpansCard, f.Name(), addrs[0].Node, addrs[0].Card, a.Node, a.Card)
		}
		nas[i] = a.Addr
	}
	atu.Load(f.Handle(), nas)
	return nil
}

// AppendPage adds one page to the end of the file. Like WritePage it
// snapshots data before it returns: the caller may reuse its buffer at
// once, and data is copied whatever its shape, never adopted.
func (f *File) AppendPage(data []byte, cb func(err error)) {
	nd := f.fs.inodes[f.ino]
	idx := len(nd.pages)
	nd.pages = append(nd.pages, -1)
	f.writePage(idx, data, cb)
}

// WritePage overwrites page idx (which must exist or be the append
// position).
func (f *File) WritePage(idx int, data []byte, cb func(err error)) {
	nd := f.fs.inodes[f.ino]
	if idx < 0 || idx > len(nd.pages) {
		cb(fmt.Errorf("%w: %d of %d", ErrBadOffset, idx, len(nd.pages)))
		return
	}
	if idx == len(nd.pages) {
		f.AppendPage(data, cb)
		return
	}
	f.writePage(idx, data, cb)
}

func (f *File) writePage(idx int, data []byte, cb func(err error)) {
	if len(data) != f.fs.lay.PageSize {
		cb(fmt.Errorf("%w: got %d want %d", ErrDataSize, len(data), f.fs.lay.PageSize))
		return
	}
	// The one snapshot of the write: a page image that goes down
	// through the backend by reference and ends up stored on the card.
	op := f.fs.ops.Get()
	op.ino, op.idx, op.class, op.wcb = f.ino, idx, f.class, cb
	op.img = f.fs.geo.PageImage(data)
	// Writes proceed during a clean on their own lane's frontier, which
	// cannot disturb the victim; blocking every write for the whole
	// clean would serialize the appliance's write stream behind
	// Background-class relocation.
	f.fs.Cleaner.Admit(op.run)
}

// ReadPage fetches page idx. Reads resolve the mapping at issue time
// and never wait for the cleaner: relocation only copies, and the
// victim erase waits for in-flight reads against the victim to drain,
// so a read can never land on a page erased under it.
func (f *File) ReadPage(idx int, cb func(data []byte, err error)) {
	fs := f.fs
	nd := fs.inodes[f.ino]
	if idx < 0 || idx >= len(nd.pages) || nd.pages[idx] < 0 {
		cb(nil, fmt.Errorf("%w: %d of %d", ErrBadOffset, idx, len(nd.pages)))
		return
	}
	ppn := nd.pages[idx]
	fs.PagesRead++
	fs.Cleaner.Units[fs.segOf(ppn)].Reads++
	op := fs.ops.Get()
	op.ppn, op.rcb = ppn, cb
	fs.b.ReadPage(ppn, f.class, false, op.onRead)
}

// readDone is the backend's completion of an app read.
//
//simlint:hotpath
func (fs *FS) readDone(op *pageOp, data []byte, err error) {
	seg, cb := fs.segOf(op.ppn), op.rcb
	fs.put(op)
	fs.Cleaner.Units[seg].Reads--
	fs.Cleaner.Wake()
	cb(data, err)
}

// finishWrite ends an app write whose image is stored at op.dst, or
// that failed for good, and maps the page to (ino, idx).
//
//simlint:hotpath
func (fs *FS) finishWrite(op *pageOp, err error) {
	ino, idx, ppn, cb := op.ino, op.idx, op.dst, op.wcb
	fs.put(op)
	if err != nil {
		cb(err)
		return
	}
	nd := fs.inodes[ino]
	if !nd.live {
		// File removed while the write was in flight: the new page
		// is garbage — no mapping is registered, so the cleaner sees
		// it as dead.
		cb(nil)
		return
	}
	if old := nd.pages[idx]; old >= 0 {
		fs.invalidate(old)
	}
	fs.install(ppn, fileRef{ino: ino, page: idx})
	fs.PagesWritten++
	cb(nil)
}

// install maps the file page ref to ppn.
func (fs *FS) install(ppn int, ref fileRef) {
	fs.inodes[ref.ino].pages[ref.page] = ppn
	fs.Cleaner.Units[fs.segOf(ppn)].Valid++
	fs.backrefs[ppn] = ref
}

// invalidate marks a physical page dead.
func (fs *FS) invalidate(ppn int) {
	if _, ok := fs.backrefs[ppn]; ok {
		fs.Cleaner.Invalidate(fs.segOf(ppn))
		delete(fs.backrefs, ppn)
	}
}

// allocAndProgram finds the next log position on the op's lane and
// programs its image there, starting the cleaner when space runs low.
// It is the op's run continuation: what the cleaner parks behind a
// clean. A stalled FS (the last clean found no room to relocate) does
// not re-trigger the same doomed pass: it keeps allocating from what
// remains and fails with reclaim.ErrNoSpace when that runs dry.
//
//simlint:hotpath
func (fs *FS) allocAndProgram(op *pageOp) {
	if fs.Cleaner.Hold(op.run) {
		return // queued behind a clean
	}
	ppn, err := fs.allocRoundRobin(fs.laneOf(op.class))
	if err != nil {
		fs.finishWrite(op, err)
		return
	}
	op.dst = ppn
	fs.Cleaner.Units[fs.segOf(ppn)].Programs++
	//simlint:allow hotpath (the backend dispatch: its admission path carries its own hotpath annotations)
	fs.b.WritePage(ppn, op.class, false, op.img, op.onWrite)
}

// programDone is the backend's completion of an app write's program.
// A program failed by a bad block kept nothing: the same image goes
// out again, elsewhere.
//
//simlint:hotpath
func (fs *FS) programDone(op *pageOp, err error) {
	seg := fs.segOf(op.dst)
	fs.Cleaner.Units[seg].Programs--
	if errors.Is(err, nand.ErrBadBlock) {
		fs.markBad(seg)
		fs.Cleaner.Wake()
		fs.allocAndProgram(op)
		return
	}
	fs.finishWrite(op, err) // installs the mapping before the cleaner wakes
	fs.Cleaner.Wake()
}

// markBad retires a segment, clearing any frontier (on any lane) that
// pointed at it so no stale active state survives.
func (fs *FS) markBad(seg int) {
	s := &fs.Cleaner.Units[seg]
	s.Bad = true
	s.Active = false
	ch := fs.chipOf(seg)
	for lane := range fs.active {
		if fs.active[lane][ch] == seg {
			fs.active[lane][ch] = -1
		}
	}
}

// allocRoundRobin takes the next page from the lane's current chip,
// rotating chips every StripeExtent allocations (see Config); it
// never triggers the cleaner. The cursor counts allocation slots, so
// chip = (cursor/extent) mod chips; an exhausted chip jumps the
// cursor to the next chip boundary.
func (fs *FS) allocRoundRobin(lane int) (int, error) {
	chips := fs.lay.Chips
	ext := fs.cfg.StripeExtent
	if ext < 1 {
		ext = 1
	}
	for try := 0; try < chips; try++ {
		ch := (fs.cursor[lane] / ext) % chips
		ppn, ok := fs.allocOnChip(lane, ch)
		if ok {
			fs.cursor[lane]++
			return ppn, nil
		}
		fs.cursor[lane] = (fs.cursor[lane]/ext + 1) * ext
	}
	return 0, reclaim.ErrNoSpace
}

// allocOnChip advances one chip's lane frontier, opening a fresh
// segment from the chip's pool when needed.
func (fs *FS) allocOnChip(lane, ch int) (int, bool) {
	for {
		if fs.active[lane][ch] >= 0 {
			seg := fs.active[lane][ch]
			s := &fs.Cleaner.Units[seg]
			if s.Bad {
				fs.active[lane][ch] = -1
				continue
			}
			if s.Written < fs.lay.PagesPerSeg {
				ppn := seg*fs.lay.PagesPerSeg + s.Written
				s.Written++
				return ppn, true
			}
			s.Active = false
			fs.active[lane][ch] = -1
		}
		if len(fs.freePool[ch]) == 0 {
			return 0, false
		}
		seg := fs.freePool[ch][0]
		fs.freePool[ch] = fs.freePool[ch][1:]
		fs.active[lane][ch] = seg
		s := &fs.Cleaner.Units[seg]
		s.Active, s.Written, s.Valid = true, 0, 0
		fs.Cleaner.Free--
		fs.Cleaner.Urgent()
	}
}

// move is the cleaner's Move: it relocates one victim page a file
// still maps — read it, program the copy on the cleaning lane, and
// re-point the mapping — re-validating the backref at every
// completion, because a Remove can land while the copy is in flight
// and the moved page must then be dropped, not resurrected over dead
// state.
//
//simlint:hotpath
func (fs *FS) move(seg, page int) bool {
	ppn := seg*fs.lay.PagesPerSeg + page
	ref, ok := fs.backrefs[ppn]
	if !ok {
		return false // dead page: nothing to move
	}
	op := fs.ops.Get()
	op.ppn, op.ref = ppn, ref
	//simlint:allow hotpath (the backend dispatch: its admission path carries its own hotpath annotations)
	fs.b.ReadPage(ppn, sched.Background, true, op.onMoveRead)
	return true
}

// moveRead takes a move's read and programs what it read.
//
//simlint:hotpath
func (fs *FS) moveRead(op *pageOp, data []byte, err error) {
	ppn, ref := op.ppn, op.ref
	if err != nil {
		// Unreadable during cleaning: drop the mapping — but only if
		// it still points here (the file may have been removed while
		// the read was in flight) — and count the loss so it is
		// visible to scrubbing and repair layers instead of silent.
		fs.CleanReadFaults++
		if cur, ok := fs.backrefs[ppn]; ok && cur == ref {
			fs.invalidate(ppn)
			if nd := fs.inodes[ref.ino]; nd.live && ref.page < len(nd.pages) && nd.pages[ref.page] == ppn {
				nd.pages[ref.page] = -1
				fs.LostPages++
			}
		}
		fs.put(op)
		fs.Cleaner.Done(false)
		return
	}
	if cur, ok := fs.backrefs[ppn]; !ok || cur != ref {
		// Invalidated while the read was in flight: dead now.
		fs.put(op)
		fs.Cleaner.Done(false)
		return
	}
	dst, aerr := fs.allocRoundRobin(fs.cleanLane)
	if aerr != nil {
		// No room to relocate: the pass fails.
		fs.put(op)
		fs.Cleaner.Done(true)
		return
	}
	// The read result is re-programmed as it stands — the image the
	// victim page stores; images are immutable, so both pages may hold
	// it until the victim is erased.
	op.dst = dst
	fs.Cleaner.Units[fs.segOf(dst)].Programs++
	//simlint:allow hotpath (the backend dispatch: its admission path carries its own hotpath annotations)
	fs.b.WritePage(dst, sched.Background, true, data, op.onMoved)
}

// moveWritten takes a move's program and re-points the mapping. A
// failed program fails the pass.
//
//simlint:hotpath
func (fs *FS) moveWritten(op *pageOp, perr error) {
	ppn, ref, dst := op.ppn, op.ref, op.dst
	seg := fs.segOf(dst)
	fs.put(op)
	fs.Cleaner.Units[seg].Programs--
	if perr != nil {
		if errors.Is(perr, nand.ErrBadBlock) {
			fs.markBad(seg)
		}
		fs.Cleaner.Done(true)
		return
	}
	if cur, ok := fs.backrefs[ppn]; ok && cur == ref {
		fs.CleanMoves++
		fs.invalidate(ppn)
		fs.install(dst, ref)
	}
	// else: removed mid-move — the copy at dst stays unmapped
	// garbage for a later clean; the original was already
	// invalidated by Remove, so nothing to double-count.
	fs.Cleaner.Done(false)
}

// erased is the cleaner's Erased: an erased segment returns to its
// chip's pool, one that failed its erase is retired.
func (fs *FS) erased(seg int, err error) {
	if err != nil {
		fs.markBad(seg)
		return
	}
	fs.SegsCleaned++
	ch := fs.chipOf(seg)
	fs.freePool[ch] = append(fs.freePool[ch], seg)
	fs.Cleaner.Free++
	fs.Cleaner.Urgent()
}

// CheckInvariants verifies the mapping bookkeeping: every backref
// points at a live inode page that maps back to it, every mapped page
// has its backref, and per-segment valid counts match the backref
// census. Tests call it after adversarial interleavings.
func (fs *FS) CheckInvariants() error {
	valid := make([]int, len(fs.Cleaner.Units))
	// Walk backrefs in sorted ppn order so that, with several
	// violations present, the same one is reported on every run.
	ppns := make([]int, 0, len(fs.backrefs))
	for ppn := range fs.backrefs {
		ppns = append(ppns, ppn)
	}
	sort.Ints(ppns)
	for _, ppn := range ppns {
		ref := fs.backrefs[ppn]
		valid[fs.segOf(ppn)]++
		if ref.ino < 0 || ref.ino >= len(fs.inodes) {
			return fmt.Errorf("rfs: backref %d -> bad inode %d", ppn, ref.ino)
		}
		nd := fs.inodes[ref.ino]
		if !nd.live {
			return fmt.Errorf("rfs: backref %d -> dead inode %d", ppn, ref.ino)
		}
		if ref.page >= len(nd.pages) || nd.pages[ref.page] != ppn {
			return fmt.Errorf("rfs: backref %d -> (%d,%d) but mapping disagrees", ppn, ref.ino, ref.page)
		}
	}
	for ino, nd := range fs.inodes {
		if !nd.live {
			continue
		}
		for pg, ppn := range nd.pages {
			if ppn < 0 {
				continue
			}
			if ref, ok := fs.backrefs[ppn]; !ok || ref != (fileRef{ino: ino, page: pg}) {
				return fmt.Errorf("rfs: mapping (%d,%d)->%d missing backref", ino, pg, ppn)
			}
		}
	}
	for s, u := range fs.Cleaner.Units {
		if u.Valid != valid[s] {
			return fmt.Errorf("rfs: seg %d valid=%d but %d live backrefs", s, u.Valid, valid[s])
		}
	}
	pool := 0
	for _, p := range fs.freePool {
		pool += len(p)
	}
	if pool != fs.Cleaner.Free {
		return fmt.Errorf("rfs: free counter %d but pools hold %d", fs.Cleaner.Free, pool)
	}
	return nil
}
