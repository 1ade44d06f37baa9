package spmv

// Pages returns the matrix's flash footprint in pages.
func (m *Matrix) Pages() int { return len(m.pages) }

// NNZ returns the number of stored non-zeros.
func (m *Matrix) NNZ() int {
	n := 0
	for _, p := range m.pages {
		n += len(p)
	}
	return n
}
