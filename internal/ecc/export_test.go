package ecc

// PageSize returns the protected data size in bytes.
func (c *PageCodec) PageSize() int { return c.pageSize }
