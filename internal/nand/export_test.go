package nand

// Failed reports whether the card is dead.
func (c *Card) Failed() bool { return c.failed }

// IsBad reports whether a block is marked bad.
func (c *Card) IsBad(a Addr) bool {
	if err := c.checkAddr(a, false); err != nil {
		return true
	}
	return c.blocks[c.blockIndex(a)].bad
}

// EraseCount returns a block's accumulated erase cycles.
func (c *Card) EraseCount(a Addr) int64 {
	if err := c.checkAddr(a, false); err != nil {
		return 0
	}
	return c.blocks[c.blockIndex(a)].erases
}

// Written reports whether a page holds an image: whether it lies below
// its block's next programmable page.
func (c *Card) Written(a Addr) bool {
	if err := c.checkAddr(a, true); err != nil {
		return false
	}
	return a.Page < c.blocks[c.blockIndex(a)].next
}

// Strand queues a read of a at its chip without starting it: a command
// no event will ever run, for the drain check to find.
func (c *Card) Strand(a Addr) {
	c.chipAt(a).queue.Push(command{kind: cmdRead, a: a})
}
