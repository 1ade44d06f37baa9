package cache

import (
	"testing"

	"repro/internal/alloctest"
	"repro/internal/sched"
)

// The cache hot paths carry every DRAM hit in the simulated cluster,
// so a single allocation per operation turns into GC pressure
// proportional to total simulated I/O. These tests pin the lookup,
// hit, miss-fill, evict, and invalidation-send paths at zero
// steady-state allocations, matching the engine and fabric guarantees.

// indexChurn is how many insert/delete cycles a test runs before it
// counts. Go's map (1.24) grows its table under churn at a constant
// length, because deleted slots use up its growth budget: twice, two
// objects each time, the first growth within the first 1 000 cycles
// and the second between 8 000 and 31 000 (measured over 40 hash
// seeds, none growing again in a million more). Counted before that,
// the index looks like it allocates once every few hundred cycles.
const indexChurn = 1 << 16

// TestIndexOpsAllocFree: index insert/lookup/delete and the CLOCK slot
// recycler do not allocate once the index has grown to its churn size.
func TestIndexOpsAllocFree(t *testing.T) {
	_, _, ca := testCache(t, 1, DefaultConfig(64))
	nc := ca.nodes[0]
	cycle := func() {
		for k := int64(0); k < 48; k++ {
			slot := nc.takeSlot()
			if slot < 0 {
				t.Fatal("no slot")
			}
			nc.entries[slot].lpn = k
			nc.entries[slot].state = stClean
			nc.index[k] = slot
			nc.used++
		}
		for k := int64(0); k < 48; k++ {
			if _, ok := nc.index[k]; !ok {
				t.Fatalf("lost key %d", k)
			}
		}
		for k := int64(0); k < 48; k++ {
			slot := nc.index[k]
			delete(nc.index, k)
			nc.used--
			nc.releaseSlot(slot)
		}
	}
	for range indexChurn {
		cycle()
	}
	if n := alloctest.Mallocs(1000, cycle); n != 0 {
		t.Fatalf("1000 index insert/lookup/delete cycles make %d allocations, want 0", n)
	}
}

// TestEvictionAllocFree: CLOCK eviction under a full cache (every
// takeSlot reclaims a clean frame) is allocation-free once the index
// has grown to its churn size.
func TestEvictionAllocFree(t *testing.T) {
	_, _, ca := testCache(t, 1, DefaultConfig(32))
	nc := ca.nodes[0]
	for k := int64(0); k < 32; k++ {
		slot := nc.takeSlot()
		nc.entries[slot].lpn = k
		nc.entries[slot].state = stClean
		nc.index[k] = slot
		nc.used++
	}
	next := int64(32)
	cycle := func() {
		slot := nc.takeSlot() // must evict
		if slot < 0 {
			t.Fatal("nothing evictable")
		}
		nc.entries[slot].lpn = next
		nc.entries[slot].state = stClean
		nc.index[next] = slot
		nc.used++
		next++
	}
	for range indexChurn {
		cycle()
	}
	if n := alloctest.Mallocs(1000, cycle); n != 0 {
		t.Fatalf("1000 CLOCK evictions make %d allocations, want 0", n)
	}
}

// TestReadHitAllocFree: the full hit path — lookup, pin, hostmodel
// DRAM charge, pooled completion, engine drain — allocates nothing in
// steady state.
func TestReadHitAllocFree(t *testing.T) {
	c, _, ca := testCache(t, 1, DefaultConfig(16))
	st, err := ca.NewStream("t", 0, sched.Interactive)
	if err != nil {
		t.Fatal(err)
	}
	var sink byte
	cb := func(data []byte, err error) {
		if err != nil {
			t.Errorf("read: %v", err)
		}
		sink ^= data[0]
	}
	// Warm: seed four pages, drain their flushes, grow every pool.
	for lpn := 0; lpn < 4; lpn++ {
		st.Write(lpn, pageData(ca.PageSize(), lpn), func(err error) {})
		c.Run()
	}
	for rep := 0; rep < 4; rep++ {
		for lpn := 0; lpn < 4; lpn++ {
			st.Read(lpn, cb)
		}
		c.Run()
	}
	if n := alloctest.Mallocs(500, func() {
		for lpn := 0; lpn < 4; lpn++ {
			st.Read(lpn, cb)
		}
		c.Run()
	}); n != 0 {
		t.Fatalf("500 read hit cycles allocate %d objects, want 0", n)
	}
	if s := ca.Stats(); s.Misses > 4 {
		t.Fatalf("hit loop missed (%d misses) — not measuring the hit path", s.Misses)
	}
}

// TestMissFillAllocFree: the full miss path — CLOCK eviction of a clean
// frame, the volume read down to NAND, the install of the delivered
// image as the frame's view and its DRAM charge — allocates nothing in
// steady state.
func TestMissFillAllocFree(t *testing.T) {
	c, v, ca := testCache(t, 1, DefaultConfig(4))
	const pages = 8 // twice the frames, read in turn: every read misses
	seedPages(t, c, v, pages)
	st, err := ca.NewStream("t", 0, sched.Interactive)
	if err != nil {
		t.Fatal(err)
	}
	var sink byte
	cb := func(data []byte, err error) {
		if err != nil {
			t.Errorf("read: %v", err)
		}
		sink ^= data[0]
	}
	cycle := func() {
		for lpn := 0; lpn < pages; lpn++ {
			st.Read(lpn, cb)
			c.Run()
		}
	}
	for rep := 0; rep < 4; rep++ {
		cycle()
	}
	base := ca.Stats()
	if n := alloctest.Mallocs(200, cycle); n != 0 {
		t.Fatalf("200 miss-fill cycles make %d allocations, want 0", n)
	}
	if d := ca.Stats().Delta(base); d.Hits != 0 || d.Evictions != d.Misses {
		t.Fatalf("hits %d, misses %d, evictions %d: not measuring miss → fill → evict", d.Hits, d.Misses, d.Evictions)
	}
}

// TestAbortedFillAllocFree: a miss whose fill an invalidation poisons
// in flight — the volume read, the refused install, abortFill's release
// of the reserved frame — allocates nothing in steady state.
func TestAbortedFillAllocFree(t *testing.T) {
	c, v, ca := testCache(t, 1, DefaultConfig(4))
	const pages = 8
	seedPages(t, c, v, pages)
	st, err := ca.NewStream("t", 0, sched.Interactive)
	if err != nil {
		t.Fatal(err)
	}
	nc := ca.nodes[0]
	var sink byte
	cb := func(data []byte, err error) {
		if err != nil {
			t.Errorf("read: %v", err)
		}
		sink ^= data[0]
	}
	cycle := func() {
		for lpn := 0; lpn < pages; lpn++ {
			st.Read(lpn, cb)
			nc.applyInv(int64(lpn)) // a remote flush lands while the fill is in flight
			c.Run()
		}
	}
	for range indexChurn / pages {
		cycle()
	}
	base := ca.Stats()
	if n := alloctest.Mallocs(200, cycle); n != 0 {
		t.Fatalf("200 cycles of aborted fills make %d allocations, want 0", n)
	}
	d := ca.Stats().Delta(base)
	if d.Misses == 0 || d.FillsPoisoned != d.Misses || len(nc.free) != len(nc.entries) {
		t.Fatalf("misses %d, fills poisoned %d, %d frames free: not measuring fills that abort",
			d.Misses, d.FillsPoisoned, len(nc.free))
	}
}

// TestInvalidationSendAllocFree: a cross-node invalidation broadcast —
// pooled message, fabric send, delivery, applyInv on the remote
// nodes — allocates nothing once warm.
func TestInvalidationSendAllocFree(t *testing.T) {
	c, _, ca := testCache(t, 4, DefaultConfig(16))
	for rep := 0; rep < 4; rep++ {
		ca.broadcastInv(0, 7)
		c.Run()
	}
	if n := alloctest.Mallocs(500, func() {
		ca.broadcastInv(0, 7)
		c.Run()
	}); n != 0 {
		t.Fatalf("500 invalidation broadcasts allocate %d objects, want 0", n)
	}
	if ca.Stats().InvalidationsSent == 0 {
		t.Fatal("no invalidations sent")
	}
}
