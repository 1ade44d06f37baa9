package flashserver

import (
	"fmt"

	"repro/internal/nand"
)

// FileHandle identifies a host file whose physical layout has been
// pushed down to the Flash Server.
type FileHandle uint32

// ATU is the Address Translation Unit: it maps (file handle, page
// offset) to physical flash addresses. The host file system owns the
// mapping (paper §4, Figure 8 step 1-2) and loads it here so in-store
// processors can stream file contents without host involvement.
type ATU struct {
	maps map[FileHandle][]nand.Addr
}

// NewATU returns an empty translation unit.
func NewATU() *ATU {
	return &ATU{maps: make(map[FileHandle][]nand.Addr)}
}

// Load installs (or replaces) the physical page list for a handle.
func (a *ATU) Load(h FileHandle, pages []nand.Addr) {
	cp := make([]nand.Addr, len(pages))
	copy(cp, pages)
	a.maps[h] = cp
}

// Translate resolves one page of a mapped file.
func (a *ATU) Translate(h FileHandle, pageOff int) (nand.Addr, error) {
	pages, ok := a.maps[h]
	if !ok {
		return nand.Addr{}, fmt.Errorf("%w: handle %d", ErrNoMapping, h)
	}
	if pageOff < 0 || pageOff >= len(pages) {
		return nand.Addr{}, fmt.Errorf("%w: handle %d page %d of %d", ErrOutOfBounds, h, pageOff, len(pages))
	}
	return pages[pageOff], nil
}
