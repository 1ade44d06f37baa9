package cache

import "repro/internal/sim"

// Stats is a cluster-wide snapshot of cache-tier activity, aggregated
// over all node caches. Snapshot/Delta follow the hostmodel pattern so
// experiments can window a measurement interval.
type Stats struct {
	Hits    int64
	Misses  int64
	HitRate float64 // Hits / (Hits + Misses)

	WriteHits     int64 // writes absorbed by a resident frame
	WriteAllocs   int64 // write misses that allocated a frame
	WriteThroughs int64 // write misses that bypassed the cache

	Flushes     int64 // Background write-backs completed
	FlushErrors int64
	Evictions   int64 // clean frames reclaimed by CLOCK
	DirtyPages  int64 // currently dirty or flushing frames
	UsedPages   int64 // currently occupied frames

	InvalidationsSent         int64
	InvalidationsApplied      int64 // clean drops + fill poisonings
	InvalidationsIgnoredDirty int64 // kept: local copy dirty/in-flush
	FillsPoisoned             int64
}

// Stats snapshots the current cluster-wide counters.
func (c *Cache) Stats() Stats {
	var s Stats
	for _, nc := range c.nodes {
		s.Hits += nc.hits
		s.Misses += nc.misses
		s.WriteHits += nc.writeHits
		s.WriteAllocs += nc.writeAllocs
		s.WriteThroughs += nc.writeThroughs
		s.Flushes += nc.flushes
		s.FlushErrors += nc.flushErrors
		s.Evictions += nc.evictions
		s.DirtyPages += int64(nc.dirty + nc.flushing)
		s.UsedPages += int64(nc.used)
		s.InvalidationsApplied += nc.invApplied
		s.InvalidationsIgnoredDirty += nc.invIgnoredDirt
		s.FillsPoisoned += nc.fillsPoisoned
	}
	s.InvalidationsSent = c.invSent
	s.fillRate()
	return s
}

// Delta returns the activity between two snapshots (s - prev). Gauge
// fields (DirtyPages, UsedPages) keep the later snapshot's value.
func (s Stats) Delta(prev Stats) Stats {
	d := Stats{
		Hits:                      s.Hits - prev.Hits,
		Misses:                    s.Misses - prev.Misses,
		WriteHits:                 s.WriteHits - prev.WriteHits,
		WriteAllocs:               s.WriteAllocs - prev.WriteAllocs,
		WriteThroughs:             s.WriteThroughs - prev.WriteThroughs,
		Flushes:                   s.Flushes - prev.Flushes,
		FlushErrors:               s.FlushErrors - prev.FlushErrors,
		Evictions:                 s.Evictions - prev.Evictions,
		DirtyPages:                s.DirtyPages,
		UsedPages:                 s.UsedPages,
		InvalidationsSent:         s.InvalidationsSent - prev.InvalidationsSent,
		InvalidationsApplied:      s.InvalidationsApplied - prev.InvalidationsApplied,
		InvalidationsIgnoredDirty: s.InvalidationsIgnoredDirty - prev.InvalidationsIgnoredDirty,
		FillsPoisoned:             s.FillsPoisoned - prev.FillsPoisoned,
	}
	d.fillRate()
	return d
}

func (s *Stats) fillRate() {
	if tot := s.Hits + s.Misses; tot > 0 {
		s.HitRate = sim.Finite(float64(s.Hits) / float64(tot))
	} else {
		s.HitRate = 0
	}
}
