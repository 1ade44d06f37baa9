package volume

import "repro/internal/ftl"

// Background-class I/O for the host-DRAM cache tier (internal/cache).
//
// Cache dirty-page flushes and cold-tier migrations are the volume's
// third kind of housekeeping traffic after GC relocation and replica
// rebuild: they must make progress without competing with foreground
// tenants except through the scheduler's urgency token budget. Both
// entry points ride ftl.TagFlush, which classOf maps to
// sched.Background, and the cache reports its dirty-page pressure
// through an UrgencySource of its own — the same feedback loop each
// card's GC and each node's rebuild already use.

// UrgencySource adds one source of Background urgency to a node on
// behalf of a tier above the volume (the cache's dirty-page pressure):
// see sched.Scheduler.UrgencySource.
func (v *Volume) UrgencySource(node int) func(u float64) { return v.s.UrgencySource(node) }

// ReadBackground fetches a logical page on the Background class
// (TagFlush) — used by the cache's demotion scan, which must not
// perturb foreground latency. Mirror failover applies as for
// Stream.Read.
func (v *Volume) ReadBackground(lpn int, cb func(data []byte, err error)) {
	v.read(lpn, ftl.TagFlush, cb)
}

// WriteBackground stores a logical page on the Background class
// (TagFlush) — the cache's dirty-page write-back path. The payload is
// snapshotted before the call returns, exactly like Stream.Write, so
// the cache may keep serving (and re-dirtying) its frame while the
// flush is in flight. Mirrored volumes fan out to both copies.
func (v *Volume) WriteBackground(lpn int, data []byte, cb func(err error)) {
	v.write(lpn, data, ftl.TagFlush, cb)
}

// TrimBackground drops a logical page without an admission cost (the
// mapping update is host-side, as in Stream.Trim). The cache's tier
// uses it to release flash capacity after a page has been demoted to
// the altstore device.
func (v *Volume) TrimBackground(lpn int) error { return v.trim(lpn) }
