package rfs

// TotalPages returns the number of flash pages in the log.
func (l Layout) TotalPages() int { return l.TotalSegs() * l.PagesPerSeg }

// PoolOut returns the page ops taken and not returned: zero once the
// file system has drained.
func (fs *FS) PoolOut() int { return fs.ops.Out() }

// LeakPageOp takes a page op from the pool and never returns it: the
// leak a drain check must name.
func (fs *FS) LeakPageOp() { fs.ops.Get() }
