package volume

import "repro/internal/ftl"

// FTLs returns every FTL card i has mounted, the live one last.
func (v *Volume) FTLs(i int) []*ftl.FTL { return v.cards[i].ftls }
