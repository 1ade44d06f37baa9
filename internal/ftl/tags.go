package ftl

import "repro/internal/reclaim"

// IOTag labels the traffic stream a flash operation belongs to. The
// FTL treats tags opaquely except for two things: every tag gets its
// own write frontier (so two streams never interleave programs inside
// one NAND block, which would violate in-order programming), and
// TagGC marks the FTL's own relocation traffic so the port can
// schedule it differently from host I/O.
type IOTag uint8

// TagGC is the reserved tag for garbage-collection relocation traffic,
// the log's own (reclaim.TagMove). Host callers must not use it.
const TagGC = IOTag(reclaim.TagMove)

// TagRebuild is the tag reserved by convention for replica-rebuild
// traffic (see internal/volume). The FTL treats it as an ordinary tag
// — it gets its own write frontier like any stream — but ports map
// it to the Background QoS class so reconstruction never starves
// foreground I/O.
const TagRebuild IOTag = 0xFE

// TagFlush is the tag reserved by convention for cache write-back
// traffic (internal/cache dirty-page flushes and tier migrations).
// Like TagRebuild it is an ordinary tag to the FTL — its own write
// frontier — but ports map it to the Background QoS class so
// flushing dirty cache pages never competes with foreground I/O
// except through the urgency token budget.
const TagFlush IOTag = 0xFD
