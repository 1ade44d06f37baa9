package rfs

// TotalPages returns the number of flash pages in the log.
func (l Layout) TotalPages() int { return l.TotalSegs() * l.PagesPerSeg }
