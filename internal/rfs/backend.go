package rfs

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/flashserver"
	"repro/internal/nand"
	"repro/internal/sched"
)

// Layout describes the physical log a file system instance manages:
// Chips independent allocation frontiers, each owning SegsPerChip
// erase segments of PagesPerSeg pages. Lanes is how many parallel app
// write lanes the backend needs traffic split into — each lane gets
// its own frontier per chip, so writes admitted through independently
// scheduled channels never interleave programs inside one NAND block
// (the in-order-per-block programming rule). The FS adds one more
// internal lane for segment-cleaning relocation on top of Lanes.
type Layout struct {
	Chips       int
	SegsPerChip int
	PagesPerSeg int
	PageSize    int
	Lanes       int
}

// Validate sanity-checks a layout.
func (l Layout) Validate() error {
	if l.Chips < 1 || l.SegsPerChip < 1 || l.PagesPerSeg < 1 || l.PageSize < 1 || l.Lanes < 1 {
		return fmt.Errorf("rfs: degenerate layout %+v", l)
	}
	return nil
}

// TotalSegs returns the number of erase segments in the log.
func (l Layout) TotalSegs() int { return l.Chips * l.SegsPerChip }

// Backend is the physical storage a file system runs over. The FS
// core (inodes, log-structured allocation, per-chip frontiers,
// segment cleaning, backrefs) is generic over it: the same code runs
// on a single flash card through a flashserver interface
// (CardBackend) or striped over every chip of every card of every
// node of a cluster with all I/O admitted through the request
// scheduler (ClusterBackend).
//
// Pages are named by linear ppn: seg*PagesPerSeg+offset, with
// chipOf(seg) = seg/SegsPerChip. class is the QoS class of the file
// handle that issued the op; clean marks the FS's own
// segment-cleaning traffic (relocation copies and victim erases),
// which QoS-aware backends admit on the scheduler's Background class
// so the dispatcher can defer it behind latency-class tenants.
// Backends that have no scheduler (CardBackend) ignore both.
//
// Ownership: page images are immutable (nand.Geometry.PageImage).
// ReadPage delivers a page image the callback may keep and must not
// write to: as a rule the image the card stores, whoever else holds it;
// the cleaner programs that very buffer back. WritePage ADOPTS img, a
// page image: the
// backend passes it down by reference until the card stores it, and
// must neither copy it for its own keeping nor write to it. Only a
// failed write — cb with an error — returns the image to the FS, which
// may issue the same one again.
type Backend interface {
	Layout() Layout
	// Addr resolves a linear ppn to its cluster-wide physical
	// location — the unit of the physical-address query (Figure 8,
	// step 1) that applications hand to in-store processors.
	Addr(ppn int) core.PageAddr
	ReadPage(ppn int, class sched.Class, clean bool, cb func(data []byte, err error))
	WritePage(ppn int, class sched.Class, clean bool, img []byte, cb func(err error))
	// EraseSeg erases one segment (cleaning traffic by definition).
	EraseSeg(seg int, cb func(err error))
}

// CardBackend runs the file system over one flash card's in-order
// flashserver interface — the original single-node RFS deployment,
// and the backend of the blockfs-vs-RFS write-amplification ablation.
// There is no scheduler on this path, so op classes are ignored; the
// interface's FIFO ordering is what keeps NAND programming in order,
// so a single app lane suffices.
type CardBackend struct {
	iface *flashserver.Iface
	geo   nand.Geometry

	// Node and Card locate the card in a cluster for Addr results;
	// they default to 0 and may be set before the backend is used so
	// physical-address queries carry the right owner.
	Node int
	Card int
}

// NewCardBackend wraps a flashserver interface and its card geometry.
func NewCardBackend(iface *flashserver.Iface, geo nand.Geometry) (*CardBackend, error) {
	if err := geo.Validate(); err != nil {
		return nil, err
	}
	return &CardBackend{iface: iface, geo: geo}, nil
}

// Layout maps the card geometry onto the log: one frontier per chip.
func (b *CardBackend) Layout() Layout {
	return Layout{
		Chips:       b.geo.Buses * b.geo.ChipsPerBus,
		SegsPerChip: b.geo.BlocksPerChip,
		PagesPerSeg: b.geo.PagesPerBlock,
		PageSize:    b.geo.PageSize,
		Lanes:       1,
	}
}

// nandAddr converts a linear ppn to the card address.
func (b *CardBackend) nandAddr(ppn int) nand.Addr {
	p := ppn % b.geo.PagesPerBlock
	q := ppn / b.geo.PagesPerBlock
	blk := q % b.geo.BlocksPerChip
	q /= b.geo.BlocksPerChip
	chip := q % b.geo.ChipsPerBus
	bus := q / b.geo.ChipsPerBus
	return nand.Addr{Bus: bus, Chip: chip, Block: blk, Page: p}
}

// Addr resolves a ppn to its cluster-wide location.
func (b *CardBackend) Addr(ppn int) core.PageAddr {
	return core.PageAddr{Node: b.Node, Card: b.Card, Addr: b.nandAddr(ppn)}
}

// ReadPage reads one page (classes ignored: single FIFO interface).
func (b *CardBackend) ReadPage(ppn int, _ sched.Class, _ bool, cb func([]byte, error)) {
	b.iface.ReadPhysical(b.nandAddr(ppn), cb)
}

// WritePage programs one page image, handing it down.
func (b *CardBackend) WritePage(ppn int, _ sched.Class, _ bool, img []byte, cb func(error)) {
	b.iface.WriteImage(b.nandAddr(ppn), img, cb)
}

// EraseSeg erases one segment's block.
func (b *CardBackend) EraseSeg(seg int, cb func(error)) {
	a := b.nandAddr(seg * b.geo.PagesPerBlock)
	a.Page = 0
	b.iface.Erase(a, cb)
}
