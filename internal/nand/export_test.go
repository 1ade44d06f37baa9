package nand

// Failed reports whether the card is dead.
func (c *Card) Failed() bool { return c.failed }

// IsBad reports whether a block is marked bad.
func (c *Card) IsBad(a Addr) bool {
	if err := c.checkAddr(a, false); err != nil {
		return true
	}
	return c.chipAt(a).bad[a.Block]
}

// EraseCount returns a block's accumulated erase cycles.
func (c *Card) EraseCount(a Addr) int64 {
	if err := c.checkAddr(a, false); err != nil {
		return 0
	}
	return c.chipAt(a).eraseCount[a.Block]
}

// State returns a page's lifecycle state without timing effects.
func (c *Card) State(a Addr) PageState {
	if err := c.checkAddr(a, true); err != nil {
		return PageFree
	}
	return c.state[c.geo.PageIndex(a)]
}
