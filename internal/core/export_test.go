package core

// Valid reports whether the address is inside the cluster p describes.
func (a PageAddr) Valid(p Params) bool {
	if a.Node < 0 || a.Node >= p.Nodes || a.Card < 0 || a.Card >= p.CardsPerNode {
		return false
	}
	g := p.Geometry
	return a.Addr.Bus >= 0 && a.Addr.Bus < g.Buses &&
		a.Addr.Chip >= 0 && a.Addr.Chip < g.ChipsPerBus &&
		a.Addr.Block >= 0 && a.Addr.Block < g.BlocksPerChip &&
		a.Addr.Page >= 0 && a.Addr.Page < g.PagesPerBlock
}
