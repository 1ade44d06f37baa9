package volume

import "repro/internal/ftl"

// PoolsOut returns the mirrored-read and mirrored-write contexts taken
// and not returned: zero once every mirrored operation has completed.
func (v *Volume) PoolsOut() int { return v.failovers.Out() + v.mirrorWrites.Out() }

// FTLs returns every FTL card i has mounted, the live one last.
func (v *Volume) FTLs(i int) []*ftl.FTL { return v.cards[i].ftls }
