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
// The file system is one reclaim.Log keyed by (inode, page), whose
// package doc states the concurrency rules: the log keeps the reverse
// map, the page ops, the moves, erase and retirement and the segment
// cleaner. The FS adds its namespace (inodes, names, the forward map
// of each file's pages) and its policies: per lane, per chip
// round-robin frontiers that rotate every StripeExtent pages, a pass
// held on every write, per-chip FIFO pools of free segments, and one
// move in flight. Remove is metadata-only and lands immediately, so
// every move re-validates its page before it installs the copy.
//
// The log runs per card over a flashserver interface (New, the
// original deployment) or over the whole cluster (NewClusterFS),
// striping over every chip of every card of every node with all I/O
// admitted through the request scheduler at the caller's QoS class and
// segment cleaning on the Background class — the paper's Figure 8 at
// appliance scale.
//
// Ownership: a write snapshots the caller's page into an image
// (nand.Geometry.PageImage), the write's one allocation, and hands it
// to the log, which passes it down by reference; a read delivers the
// image the card stores, which nobody writes to (reclaim.Port).
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
	ErrBadOffset = errors.New("rfs: page offset out of range")
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

type inode struct {
	name  string
	pages []int // page index -> ppn, -1 for holes
	live  bool
}

// FS is a flash file system over a page log.
type FS struct {
	// Log is the file system's page log: its units are the segments,
	// one erase block each, its keys the file pages. The layer above
	// reads its Urgency and sets its Urgent callback.
	Log *reclaim.Log

	geo   nand.Geometry // one card's; the log lays its cards end to end
	cards int           // cards per node
	chips int           // chips the log stripes over
	cfg   Config

	cleanLane int // the frontier lane of cleaning, after the app lanes

	inodes []*inode
	byName map[string]int

	// Allocation stripes across chips (one log frontier per chip and
	// lane) so file data spreads over every bus and chip — "exposing
	// all degrees of parallelism of the device" (paper §3.1.1) — and,
	// across a cluster, over every card and node.
	freePool []sim.Queue[int] // per chip, FIFO; Log.Free is their running total
	active   [][]int          // [lane][chip], -1 = none
	cursor   []int            // per-lane round-robin chip cursor

	PagesWritten int64 // file pages written
	CleanMoves   int64 // pages the cleaner moved
	SegsCleaned  int64 // segments the cleaner erased
}

// New builds a file system on a single card's flashserver interface
// with the card geometry — the per-card deployment: the interface's
// FIFO keeps NAND programming in order, so one app lane suffices.
func New(iface *flashserver.Iface, geo nand.Geometry, cfg Config) (*FS, error) {
	return newFS(reclaim.Card(iface, geo), geo, 1, 1, 1, cfg)
}

// newFS builds a file system whose log stripes nodes × cards cards of
// geometry geo, node-major, over port, with lanes app write lanes.
func newFS(port reclaim.Port, geo nand.Geometry, nodes, cards, lanes int, cfg Config) (*FS, error) {
	if err := geo.Validate(); err != nil {
		return nil, err
	}
	fs := &FS{
		geo:       geo,
		cards:     cards,
		chips:     nodes * cards * geo.Buses * geo.ChipsPerBus,
		cfg:       cfg,
		cleanLane: lanes,
		byName:    make(map[string]int),
	}
	log, err := reclaim.New("rfs", geo, nodes*cards, cfg.CleanLowWater, 1, port, (*fileKeys)(fs))
	if err != nil {
		return nil, fmt.Errorf("rfs: CleanLowWater: %w", err)
	}
	fs.Log = log
	log.Alloc, log.Erased = fs.alloc, fs.erased
	fs.freePool = make([]sim.Queue[int], fs.chips)
	fs.active = make([][]int, lanes+1) // the app lanes and the cleaning lane
	fs.cursor = make([]int, lanes+1)
	for lane := range fs.active {
		fs.active[lane] = make([]int, fs.chips)
		for ch := range fs.active[lane] {
			fs.active[lane][ch] = -1
		}
	}
	for ch := range fs.freePool {
		for s := 0; s < geo.BlocksPerChip; s++ {
			fs.freePool[ch].Push(ch*geo.BlocksPerChip + s)
		}
	}
	log.Free = len(log.Units)
	return fs, nil
}

// fileKeys is the file system as its log's Keying: a key is an inode
// number and a page index, inode<<32 | page.
type fileKeys FS

func fileKey(ino, page int) uint64 { return uint64(ino)<<32 | uint64(page) }

func (k *fileKeys) Lookup(key uint64) int {
	if pages := k.inodes[key>>32].pages; int(uint32(key)) < len(pages) {
		return pages[uint32(key)]
	}
	return -1
}

func (k *fileKeys) Map(key uint64, ppn int, moved bool) bool {
	nd := k.inodes[key>>32]
	if !nd.live {
		return false
	}
	nd.pages[uint32(key)] = ppn
	switch {
	case ppn < 0:
	case moved:
		k.CleanMoves++
	default:
		k.PagesWritten++
	}
	return true
}

func (k *fileKeys) Mapped() int {
	n := 0
	for _, nd := range k.inodes {
		for _, ppn := range nd.pages {
			if ppn >= 0 {
				n++
			}
		}
	}
	return n
}

// pageAddr resolves a ppn of a log laid over cards of geometry geo,
// cards per node: ppn / TotalPages is node·cards + card, node-major,
// and the rest a page of that card. So the round-robin chip cursor walks
// every chip of the appliance once per cycle — sequential appends
// stripe across all nodes, cards, buses and chips.
func pageAddr(geo nand.Geometry, cards, ppn int) core.PageAddr {
	card, page := ppn/geo.TotalPages(), ppn%geo.TotalPages()
	return core.PageAddr{Node: card / cards, Card: card % cards, Addr: geo.AddrOf(page)}
}

// PageSize returns the file system's IO granularity.
func (fs *FS) PageSize() int { return fs.geo.PageSize }

// File is an open file handle. It carries the QoS class its I/O is
// admitted at on the cluster (At derives handles at other classes);
// a per-card file system ignores the class.
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
	fs.inodes = append(fs.inodes, &inode{name: name, live: true})
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
// clean is relocating the file's pages (every move re-validates its
// page before installing the copy). A handle on the removed file fails
// its writes with ErrNotFound; a write already in flight completes and
// maps nothing.
func (fs *FS) Remove(name string) error {
	ino, ok := fs.byName[name]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	nd := fs.inodes[ino]
	for _, ppn := range nd.pages {
		if ppn >= 0 {
			fs.Log.Invalidate(ppn)
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
func (fs *FS) FreeSegments() int { return fs.Log.Free }

// LiveMappings returns the number of page-mapping entries the file
// system currently holds — only live data is mapped, which is the
// memory-footprint half of the RFS argument (paper §4): an FTL maps
// the whole logical space whether or not data is live.
func (fs *FS) LiveMappings() int { return fs.Log.Live() }

// At returns a handle on the same file issuing I/O at the given QoS
// class. Classes at or above Accel are not tenant classes and clamp
// to Batch. A per-card file system ignores the class entirely.
func (f *File) At(class sched.Class) *File {
	if class >= sched.Accel {
		class = sched.Batch
	}
	return &File{fs: f.fs, ino: f.ino, class: class}
}

// Name returns the file's name.
func (f *File) Name() string { return f.fs.inodes[f.ino].name }

// Handle returns the file's number: 1 for the first file created, 2
// for the next, never reused. It names the file in listings; an
// in-store engine addresses a file by its PhysicalAddrs.
func (f *File) Handle() int { return f.ino + 1 }

// Pages returns the file's length in pages.
func (f *File) Pages() int { return len(f.fs.inodes[f.ino].pages) }

// PageSize returns the file system's IO granularity.
func (f *File) PageSize() int { return f.fs.geo.PageSize }

// PhysicalAddrs returns the cluster-wide physical flash location of
// every page — the query applications use to drive in-store
// processors directly (paper Figure 8, step 1). On a cluster the
// addresses span every node of the appliance; the distributed ISP
// layer partitions them by owning node and fans engines out over the
// fabric. Every address is a snapshot: an overwrite, Remove, or
// cleaning relocation of the page invalidates it, so engines scan
// read-stable data or re-query after mutation. A page whose append has
// not landed has no address yet: it fails the query with ErrBadOffset,
// as it fails ReadPage.
func (f *File) PhysicalAddrs() ([]core.PageAddr, error) {
	nd := f.fs.inodes[f.ino]
	out := make([]core.PageAddr, 0, len(nd.pages))
	for i, ppn := range nd.pages {
		if ppn < 0 {
			return nil, fmt.Errorf("%w: file %q has a hole at page %d (an append in flight)", ErrBadOffset, nd.name, i)
		}
		out = append(out, pageAddr(f.fs.geo, f.fs.cards, ppn))
	}
	return out, nil
}

// live returns the file's inode, or calls cb with ErrNotFound when the
// file was removed.
func (f *File) live(cb func(err error)) *inode {
	nd := f.fs.inodes[f.ino]
	if !nd.live {
		cb(fmt.Errorf("%w: %q was removed", ErrNotFound, nd.name))
		return nil
	}
	return nd
}

// AppendPage adds one page to the end of the file. Like WritePage it
// snapshots data before it returns: the caller may reuse its buffer at
// once, and data is copied whatever its shape, never adopted.
func (f *File) AppendPage(data []byte, cb func(err error)) {
	nd := f.live(cb)
	if nd == nil {
		return
	}
	nd.pages = append(nd.pages, -1)
	f.write(len(nd.pages)-1, data, cb)
}

// WritePage overwrites page idx (which must exist or be the append
// position).
func (f *File) WritePage(idx int, data []byte, cb func(err error)) {
	nd := f.live(cb)
	if nd == nil {
		return
	}
	switch {
	case idx < 0 || idx > len(nd.pages):
		cb(fmt.Errorf("%w: %d of %d", ErrBadOffset, idx, len(nd.pages)))
	case idx == len(nd.pages):
		f.AppendPage(data, cb)
	default:
		f.write(idx, data, cb)
	}
}

// write snapshots data into the write's one page image, which goes down
// by reference and ends up stored on the card.
func (f *File) write(idx int, data []byte, cb func(err error)) {
	f.fs.Log.Write(fileKey(f.ino, idx), f.fs.geo.PageImage(data), uint8(f.class), cb)
}

// ReadPage fetches page idx. Reads resolve the mapping at issue time
// and never wait for the cleaner: relocation only copies, and the
// victim erase waits for in-flight reads against the victim to drain,
// so a read can never land on a page erased under it.
func (f *File) ReadPage(idx int, cb func(data []byte, err error)) {
	nd := f.fs.inodes[f.ino]
	if idx < 0 || idx >= len(nd.pages) || nd.pages[idx] < 0 {
		cb(nil, fmt.Errorf("%w: %d of %d", ErrBadOffset, idx, len(nd.pages)))
		return
	}
	f.fs.Log.Read(nd.pages[idx], uint8(f.class), cb)
}

// alloc is the log's Alloc: a write first passes the log's gate, which
// may park it behind a clean; then the lane's next page. A stalled FS
// (the last clean found no room to relocate) does not re-trigger the
// same doomed pass: it keeps allocating from what remains and fails
// with reclaim.ErrNoSpace when that runs dry.
func (fs *FS) alloc(tag uint8, retry func()) (int, error) {
	if retry != nil && fs.Log.Hold(retry) {
		return -1, nil
	}
	lane := fs.cleanLane
	if tag != reclaim.TagMove {
		lane = int(tag) % fs.cleanLane
	}
	return fs.allocRoundRobin(lane)
}

// allocRoundRobin takes the next page from the lane's current chip,
// rotating chips every StripeExtent allocations (see Config); it
// never triggers the cleaner. The cursor counts allocation slots, so
// chip = (cursor/extent) mod chips; an exhausted chip jumps the
// cursor to the next chip boundary.
func (fs *FS) allocRoundRobin(lane int) (int, error) {
	ext := max(fs.cfg.StripeExtent, 1)
	for try := 0; try < fs.chips; try++ {
		ch := (fs.cursor[lane] / ext) % fs.chips
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
		if seg := fs.active[lane][ch]; seg >= 0 {
			if ppn := fs.Log.Take(seg); ppn >= 0 {
				return ppn, true
			}
			fs.active[lane][ch] = -1
		}
		if fs.freePool[ch].Len() == 0 {
			return 0, false
		}
		seg := fs.freePool[ch].Pop()
		fs.active[lane][ch] = seg
		fs.Log.Open(seg)
		fs.Log.Free--
		fs.Log.Urgent()
	}
}

// erased is the log's Erased: an erased segment returns to its chip's
// pool.
func (fs *FS) erased(seg int) {
	fs.SegsCleaned++
	ch := seg / fs.geo.BlocksPerChip
	fs.freePool[ch].Push(seg)
	fs.Log.Free++
	fs.Log.Urgent()
}
