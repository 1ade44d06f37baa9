package volume

// PoolsOut returns the mirrored-read and mirrored-write contexts taken
// and not returned: zero once every mirrored operation has completed.
func (v *Volume) PoolsOut() int { return v.failovers.Out() + v.mirrorWrites.Out() }
