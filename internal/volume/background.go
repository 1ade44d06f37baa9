package volume

import "repro/internal/ftl"

// Background-class I/O for the host-DRAM cache tier (internal/cache).
//
// Cache dirty-page flushes are the volume's third kind of housekeeping
// traffic after GC relocation and replica rebuild: they must make
// progress without competing with foreground tenants except through
// the scheduler's urgency token budget. WriteBackground rides
// ftl.TagFlush, which the card's sched.Port sends on sched.Background,
// and the cache reports its dirty-page pressure through an
// UrgencySource of its own — the same feedback loop each card's GC and
// each node's rebuild already use.

// UrgencySource adds one source of Background urgency to a node on
// behalf of a tier above the volume (the cache's dirty-page pressure):
// see sched.Scheduler.UrgencySource.
func (v *Volume) UrgencySource(node int) func(u float64) { return v.s.UrgencySource(node) }

// WriteBackground stores a logical page on the Background class
// (TagFlush) — the cache's dirty-page write-back path. The payload is
// snapshotted before the call returns, exactly like Stream.Write, so
// the cache may keep serving (and re-dirtying) its frame while the
// flush is in flight. Mirrored volumes fan out to both copies.
func (v *Volume) WriteBackground(lpn int, data []byte, cb func(err error)) {
	v.write(lpn, data, ftl.TagFlush, cb)
}
