// Cold-data demotion below the flash volume: pages that go cold in
// the access stream migrate out of flash onto the paper's comparator
// M.2 SSD (internal/altstore's envelope), and promote back through the
// DRAM cache on re-reference. This gives the cache tier the full
// DRAM → flash → alt-store gradient the BlueDBM cost argument (§7,
// Figure 21) reasons about.
//
// The scan is access-driven, never timer-driven: the engine's Run()
// drains every event, so a self-rearming sweep timer would keep the
// simulation alive forever. Instead every scanEvery-th cache access
// examines a small batch of pages for coldness.
package cache

import (
	"fmt"

	"repro/internal/altstore"
	"repro/internal/sim"
)

const (
	// coldGap is how many cache accesses a page must go untouched
	// before it is demotion-eligible.
	coldGap = 4096
	// scanEvery runs one coldness scan batch per this many cache
	// accesses.
	scanEvery = 256
	// scanPages is how many pages one scan examines.
	scanPages = 32
	// tierInflight bounds concurrent demotion migrations.
	tierInflight = 4
)

// tier is the demotion layer. Cold paths (scan, demote, promote) may
// allocate; only touch and has sit on the cache hot path.
type tier struct {
	c *Cache

	devs  []*altstore.SSD // one device per node, holding that node's pages
	store map[int][]byte  // demoted page contents (never ranged over)

	touchSeq []int64 // touchSeq[lpn]: seq of the last access, 0 = never
	seq      int64
	scanHand int
	inflight int

	demotions  int64
	aborts     int64
	promotions int64
	tierReads  int64
}

func newTier(c *Cache) (*tier, error) {
	t := &tier{
		c:        c,
		store:    make(map[int][]byte),
		touchSeq: make([]int64, c.pages),
	}
	for n := 0; n < c.cluster.Nodes(); n++ {
		dev, err := altstore.NewSSD(c.cluster.Eng, fmt.Sprintf("alt%d", n), altstore.DefaultSSD())
		if err != nil {
			return nil, err
		}
		t.devs = append(t.devs, dev)
	}
	return t, nil
}

// touch records an access and, every scanEvery accesses, runs one
// coldness scan batch. Called at the top of every cache read/write,
// so it must stay allocation-free itself (the scan it occasionally
// triggers is a cold path).
//
//simlint:hotpath
func (t *tier) touch(lpn int) {
	t.seq++
	t.touchSeq[lpn] = t.seq
	if t.seq%scanEvery == 0 {
		//simlint:allow hotpath (cold edge: one scan batch per scanEvery accesses; the scan itself is a documented cold path)
		t.scanBatch()
	}
}

// has reports whether lpn currently lives in the demotion tier.
//
//simlint:hotpath
func (t *tier) has(lpn int) bool {
	_, ok := t.store[lpn]
	return ok
}

// release drops the tier's copy of lpn: the flash (or cache) copy just
// became authoritative again via a completed write.
//
//simlint:hotpath
func (t *tier) release(lpn int) {
	delete(t.store, lpn)
}

// scanBatch examines the next scanPages pages for demotion
// candidates: touched at least once, cold for coldGap accesses, not
// already demoted, and not resident in any node's DRAM cache.
func (t *tier) scanBatch() {
	c := t.c
	for i := 0; i < scanPages; i++ {
		lpn := t.scanHand
		t.scanHand++
		if t.scanHand == c.pages {
			t.scanHand = 0
		}
		if t.inflight >= tierInflight {
			return
		}
		last := t.touchSeq[lpn]
		if last == 0 || t.seq-last < coldGap {
			continue
		}
		if _, demoted := t.store[lpn]; demoted {
			continue
		}
		resident := false
		for _, nc := range c.nodes {
			if _, ok := nc.index[int64(lpn)]; ok {
				resident = true
				break
			}
		}
		if resident {
			continue
		}
		t.demote(lpn)
	}
}

// demote migrates one cold page: Background read from flash, write to
// the owner node's alt device, then trim the flash mapping. Any touch
// of the page while the migration is in flight aborts it (the page is
// evidently not cold).
func (t *tier) demote(lpn int) {
	c := t.c
	t.inflight++
	snap := t.touchSeq[lpn]
	c.v.ReadBackground(lpn, func(data []byte, err error) {
		if err != nil || t.touchSeq[lpn] != snap {
			t.inflight--
			t.aborts++
			return
		}
		t.store[lpn] = data // an immutable image: kept as delivered
		t.devs[c.ownerNode(lpn)].Write(c.ps, false, func(err error) {
			if err != nil || t.touchSeq[lpn] != snap {
				delete(t.store, lpn)
				t.inflight--
				t.aborts++
				return
			}
			// The alt copy is durable; release the flash page.
			_ = c.v.TrimBackground(lpn)
			t.demotions++
			t.inflight--
		})
	})
}

// read serves a cache miss whose page lives in the tier: device
// envelope, plus fabric round-trip latency when the requesting node is
// not the device's owner. The page promotes back through the
// requester's DRAM cache as dirty, so the flush pump rewrites it to
// flash and release() then drops the tier copy.
func (t *tier) read(st *Stream, lpn int, cb func([]byte, error)) {
	c := t.c
	nc := st.nc
	t.tierReads++
	owner := c.ownerNode(lpn)
	t.devs[owner].Read(c.ps, false, func(err error) {
		if err != nil {
			cb(nil, err)
			return
		}
		data := t.store[lpn]
		if data == nil {
			// Released while the device read was in flight: flash is
			// authoritative again, fall back to a volume fill.
			nc.fill(st, int64(lpn), cb)
			return
		}
		deliver := func() {
			cb(data, nil)
			t.promote(nc, lpn, data)
		}
		if nc.node != owner {
			hops := c.cluster.Hops(nc.node, owner)
			c.cluster.Eng.After(sim.Time(2*hops)*c.cluster.Params.Net.HopLatency, deliver)
		} else {
			deliver()
		}
	})
}

// promote installs a tier-read page into the requester's cache as a
// dirty, tier-backed frame: the flush pump writes it back to flash
// and only then drops the tier copy, so the page is never ownerless.
// The frame is a view of the tier's image; a later write goes to the
// slab.
func (t *tier) promote(nc *nodeCache, lpn int, data []byte) {
	key := int64(lpn)
	if _, ok := nc.index[key]; ok {
		return
	}
	slot := nc.takeSlot()
	if slot < 0 {
		return
	}
	e := &nc.entries[slot]
	e.lpn = key
	e.state = stDirty
	e.ref = true
	e.poisoned, e.redirty = false, false
	e.tiered = true
	e.pins = 0
	nc.view[slot] = data[:nc.c.ps:nc.c.ps]
	nc.index[key] = slot
	nc.used++
	nc.dirty++
	t.promotions++
	nc.cpu.ReadDRAM(nc.c.ps, nil)
	nc.pumpFlush()
	nc.pushUrgency()
}
