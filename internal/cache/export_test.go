package cache

// PageSize returns the underlying volume's page size.
func (c *Cache) PageSize() int { return c.ps }

// Pages returns the underlying volume's logical page count.
func (c *Cache) Pages() int { return c.pages }
