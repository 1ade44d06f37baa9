package blockfs

// FreePages returns the unallocated logical pages.
func (fs *FS) FreePages() int { return fs.free }

// Pages returns the file length in pages.
func (f *File) Pages() int { return len(f.nd.pages) }
