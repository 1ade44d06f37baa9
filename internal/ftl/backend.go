package ftl

import (
	"repro/internal/flashserver"
	"repro/internal/nand"
)

// IOTag labels the traffic stream a flash operation belongs to. The
// FTL treats tags opaquely except for two things: every tag gets its
// own write frontier (so two streams never interleave programs inside
// one NAND block, which would violate in-order programming), and
// TagGC marks the FTL's own relocation traffic so the backend can
// schedule it differently from host I/O.
type IOTag uint8

// TagGC is the reserved tag for garbage-collection relocation and
// erase traffic. Host callers must not use it.
const TagGC IOTag = 0xFF

// TagRebuild is the tag reserved by convention for replica-rebuild
// traffic (see internal/volume). The FTL treats it as an ordinary tag
// — it gets its own write frontier like any stream — but backends map
// it to the Background QoS class so reconstruction never starves
// foreground I/O.
const TagRebuild IOTag = 0xFE

// TagFlush is the tag reserved by convention for cache write-back
// traffic (internal/cache dirty-page flushes and tier migrations).
// Like TagRebuild it is an ordinary tag to the FTL — its own write
// frontier — but backends map it to the Background QoS class so
// flushing dirty cache pages never competes with foreground I/O
// except through the urgency token budget.
const TagFlush IOTag = 0xFD

// Backend is the flash transport under an FTL. The stock adapter
// wraps a flashserver.Iface (ignoring tags); internal/volume supplies
// a backend that routes each tag through a QoS class of the request
// scheduler instead, which is how GC work becomes schedulable.
//
// A backend may delay operations arbitrarily, but writes carrying the
// same tag must reach the flash in issue order: the FTL allocates
// frontier pages in issue order and NAND blocks program in order.
//
// Ownership: page images are immutable (nand.Geometry.PageImage).
// ReadPage delivers a page image the callback may keep and must not
// write to: as a rule the image the card stores, whoever else holds it;
// the FTL programs that very buffer back. WritePage ADOPTS img, a page
// image: the
// backend passes it down by reference until the card stores it, and
// must neither copy it for its own keeping nor write to it. Only a
// failed write — cb with an error — returns the image to the FTL, which
// may issue the same one again.
type Backend interface {
	ReadPage(a nand.Addr, tag IOTag, cb func(data []byte, err error))
	WritePage(a nand.Addr, img []byte, tag IOTag, cb func(err error))
	EraseBlock(a nand.Addr, tag IOTag, cb func(err error))
}

// ifaceBackend adapts a flashserver.Iface: one in-order FIFO channel,
// tags dropped.
type ifaceBackend struct {
	f *flashserver.Iface
}

// IfaceBackend wraps a flashserver interface as a Backend.
//
//simlint:allow unused (the per-card FTL over a flash interface, which the FTL ablations of ablation_test.go and the ftl and blockfs tests build)
func IfaceBackend(f *flashserver.Iface) Backend { return ifaceBackend{f} }

func (b ifaceBackend) ReadPage(a nand.Addr, _ IOTag, cb func([]byte, error)) {
	b.f.ReadPhysical(a, cb)
}

func (b ifaceBackend) WritePage(a nand.Addr, img []byte, _ IOTag, cb func(error)) {
	b.f.WriteImage(a, img, cb)
}

func (b ifaceBackend) EraseBlock(a nand.Addr, _ IOTag, cb func(error)) {
	b.f.Erase(a, cb)
}
