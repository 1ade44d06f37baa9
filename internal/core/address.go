package core

import (
	"fmt"

	"repro/internal/nand"
)

// PageAddr names one flash page anywhere in the cluster: BlueDBM's
// global address space (paper capability 2: "near-uniform latency
// access into a network of storage devices that form a global address
// space").
type PageAddr struct {
	Node int
	Card int
	Addr nand.Addr
}

func (a PageAddr) String() string {
	return fmt.Sprintf("n%d.card%d.%v", a.Node, a.Card, a.Addr)
}

// LinearPage maps a cluster-wide dense page index to an address,
// striping consecutive indices across buses then chips then cards so
// sequential data exploits full device parallelism (the layout the
// paper's flash interface encourages).
func LinearPage(p Params, node, idx int) PageAddr {
	g := p.Geometry
	bus := idx % g.Buses
	idx /= g.Buses
	chip := idx % g.ChipsPerBus
	idx /= g.ChipsPerBus
	card := idx % p.CardsPerNode
	idx /= p.CardsPerNode
	page := idx % g.PagesPerBlock
	idx /= g.PagesPerBlock
	block := idx
	return PageAddr{
		Node: node,
		Card: card,
		Addr: nand.Addr{Bus: bus, Chip: chip, Block: block, Page: page},
	}
}

// PagesPerNode returns the number of pages LinearPage can address on
// one node.
func PagesPerNode(p Params) int {
	return p.CardsPerNode * p.Geometry.TotalPages()
}
