package reclaim

import (
	"repro/internal/flashserver"
	"repro/internal/nand"
)

// card is the Port over one flash card's flashserver interface.
type card struct {
	f   *flashserver.Iface
	geo nand.Geometry
}

// Card is the port of a log over one flash card of geometry geo through
// its flashserver interface: one in-order FIFO channel, which is what
// keeps NAND programming in order, so tags are dropped.
func Card(f *flashserver.Iface, geo nand.Geometry) Port { return card{f, geo} }

func (c card) Read(ppn int, _ uint8, cb func([]byte, error)) {
	c.f.ReadPhysical(c.geo.AddrOf(ppn), cb)
}

func (c card) Program(ppn int, _ uint8, img []byte, cb func(error)) {
	c.f.WriteImage(c.geo.AddrOf(ppn), img, cb)
}

func (c card) Erase(ppn int, cb func(error)) {
	c.f.Erase(c.geo.AddrOf(ppn), cb)
}
