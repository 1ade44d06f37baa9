package volume

import (
	"bytes"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/core/coretest"
	"repro/internal/ftl"
	"repro/internal/nand"
	"repro/internal/reclaim"
	"repro/internal/sched"
	"repro/internal/sim"
)

// The volume is a public entry: Stream.Write snapshots, and from that
// snapshot down one page image travels to the cell — through the FTL,
// the per-tag sequencer, the scheduler's admission queue (backpressure
// included) and the host interface. A GC move and a rebuild copy
// re-program the image their read returned — the stored image itself —
// also when the scheduler fanned that read out to a host reader too.
// The clusters here run under the image guard.

func ownershipVolume(t testing.TB, scfg sched.Config) (*core.Cluster, *sched.Scheduler, *Volume) {
	t.Helper()
	p := core.DefaultParams(1)
	p.Geometry.BlocksPerChip = 8
	p.Geometry.PagesPerBlock = 8
	c := coretest.NewCluster(t, p)
	s, err := sched.New(c, scfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.FTL = ftl.Config{OverProvision: 0.25, GCLowWater: 2, GCPipeline: 4}
	v, err := New(c, s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c, s, v
}

func ownPage(size, seed int) []byte {
	b := make([]byte, size)
	for i := range b {
		b[i] = byte(seed ^ (i * 11))
	}
	return b
}

// churnVolume seeds every logical page and overwrites `rounds` volumes'
// worth at random with `depth` writes in flight (never two to one page:
// racing writes to a page have no defined winner), returning the last
// version of each page. Every write reuses ONE scratch buffer, filled
// just before the call and scribbled on right after it and again in the
// callback — the way bench/gen.go drives the stack.
func churnVolume(t testing.TB, c *core.Cluster, st *Stream, rounds, depth int) []int {
	t.Helper()
	v := st.v
	pages, ps := v.Pages(), v.PageSize()
	version := make([]int, pages)
	busy := make([]bool, pages)
	scratch := make([]byte, ps)
	rng := sim.NewRNG(5)
	total, issued := pages*(1+rounds), 0
	var issue func()
	issue = func() {
		if issued >= total {
			return
		}
		lpn := issued
		for issued >= pages && (lpn >= pages || busy[lpn]) {
			lpn = rng.Intn(pages)
		}
		issued++
		busy[lpn] = true
		version[lpn]++
		copy(scratch, ownPage(ps, lpn*131+version[lpn]))
		st.Write(lpn, scratch, func(err error) {
			if err != nil {
				t.Errorf("write lpn %d: %v", lpn, err)
			}
			for i := range scratch {
				scratch[i] = 0xee
			}
			busy[lpn] = false
			issue()
		})
		for i := range scratch {
			scratch[i] = 0xff
		}
	}
	for i := 0; i < depth; i++ {
		issue()
	}
	c.Run()
	return version
}

func checkVolume(t testing.TB, c *core.Cluster, st *Stream, version []int) {
	t.Helper()
	ps := st.v.PageSize()
	for lpn, ver := range version {
		lpn, ver := lpn, ver
		st.Read(lpn, func(d []byte, err error) {
			if err != nil || !bytes.Equal(d, ownPage(ps, lpn*131+ver)) {
				t.Errorf("lpn %d (version %d): err %v, wrong data", lpn, ver, err)
			}
		})
	}
	c.Run()
}

// TestStreamWriteSnapshotsUnderBackpressure: with an admission queue
// far shallower than the write window, writes and GC moves wait in the
// card's sequencers and are refused and offered again — the same image
// each time — while the caller keeps scribbling on its one scratch
// buffer. Every page must still read back right.
func TestStreamWriteSnapshotsUnderBackpressure(t *testing.T) {
	scfg := sched.DefaultConfig()
	scfg.QueueDepth = 4
	c, s, v := ownershipVolume(t, scfg)
	st, err := v.NewStream("w", sched.Batch)
	if err != nil {
		t.Fatal(err)
	}
	version := churnVolume(t, c, st, 3, 32)
	if v.rt.Backpressure == 0 || s.Snapshot().Rejected == 0 {
		t.Fatal("test premise: the churn should have met backpressure")
	}
	if v.Stats().GCMoves == 0 {
		t.Fatal("test premise: the churn should have made the collector move pages")
	}
	checkVolume(t, c, st, version)
}

// pageAddr resolves a ppn of cd's FTL.
func (cd *card) pageAddr(ppn int) core.PageAddr {
	return core.PageAddr{Node: cd.node, Card: cd.idx, Addr: cd.v.c.Params.Geometry.AddrOf(ppn)}
}

// hostReadsBesideGC sits between a card's FTL and its port: beside
// every GC read it admits a host read of the same flash page in the
// same instant, before or after it, so the scheduler coalesces the two
// — the GC read as the lead or as the follower — and hands both one
// buffer. It keeps what the host reader received.
type hostReadsBesideGC struct {
	*sched.Port
	cd      *card
	host    *sched.Stream // an Interactive stream at the card's node
	gcLeads bool
	held    *[][]byte
}

func (b hostReadsBesideGC) Read(ppn int, tag uint8, cb func([]byte, error)) {
	if tag != reclaim.TagMove {
		b.Port.Read(ppn, tag, cb)
		return
	}
	host := func() {
		if err := b.host.Read(b.cd.pageAddr(ppn), func(d []byte, err error) {
			if err == nil {
				*b.held = append(*b.held, d)
			}
		}); err != nil {
			panic(err)
		}
	}
	if b.gcLeads {
		b.Port.Read(ppn, tag, cb)
		host()
	} else {
		host()
		b.Port.Read(ppn, tag, cb)
	}
}

// TestGCReadSharedWithHostReaderMovesTheImage: a GC read coalesced with
// a host read of the same page — in either order — hands both the
// stored image, unclipped, and the move programs that very buffer while
// the host reader still holds it. Nobody writes to it, so the guard
// stays quiet and every page reads back right.
func TestGCReadSharedWithHostReaderMovesTheImage(t *testing.T) {
	for _, gcLeads := range []bool{true, false} {
		name := "GC read follows the host read"
		if gcLeads {
			name = "GC read leads"
		}
		t.Run(name, func(t *testing.T) {
			c, s, v := ownershipVolume(t, sched.DefaultConfig())
			var held [][]byte
			for _, cd := range v.cards {
				host, err := s.NewStream("host", cd.node, sched.Interactive)
				if err != nil {
					t.Fatal(err)
				}
				cd.f.Log.Port = hostReadsBesideGC{cd.port, cd, host, gcLeads, &held}
			}
			st, err := v.NewStream("w", sched.Batch)
			if err != nil {
				t.Fatal(err)
			}
			version := churnVolume(t, c, st, 3, 8)
			moves := v.Stats().GCMoves
			if moves == 0 || int64(len(held)) < moves {
				t.Fatalf("%d GC moves, %d host reads beside them", moves, len(held))
			}
			if co := s.Snapshot().Coalesced; co < moves {
				t.Fatalf("test premise: %d GC moves but only %d coalesced reads", moves, co)
			}
			geo := c.Params.Geometry
			heldBufs := make(map[*byte]bool, len(held))
			for _, d := range held {
				if !geo.IsPageImage(d) {
					t.Fatal("a host reader sharing its result with a GC read got it clipped")
				}
				heldBufs[&d[0]] = true
			}
			shared := 0
			for ci := 0; ci < c.Params.CardsPerNode; ci++ {
				card := c.Node(0).Card(ci)
				for idx := 0; idx < geo.TotalPages(); idx++ {
					if stored := card.Peek(card.Geometry().AddrOf(idx)); stored != nil && heldBufs[&stored[0]] {
						shared++
					}
				}
			}
			if shared == 0 {
				t.Fatal("no stored page is a buffer a host reader holds: the moves copied")
			}
			checkVolume(t, c, st, version)
		})
	}
}

// TestWritesAllocateOnePagePerProgram extends flashserver's
// TestPageOpsAllocateOnePage to the top of the stack: under
// steady-state GC a logical write through the volume, the scheduler and
// the host interface costs one page-sized buffer — the write's image —
// and small change. The programs the collector adds cost no page: a
// move programs back the image its read delivered.
func TestWritesAllocateOnePagePerProgram(t *testing.T) {
	c, _, v := ownershipVolume(t, sched.DefaultConfig())
	st, err := v.NewStream("w", sched.Batch)
	if err != nil {
		t.Fatal(err)
	}
	churnVolume(t, c, st, 2, 8) // into steady-state GC, pools warm
	pages, ps := v.Pages(), v.PageSize()
	buf := ownPage(ps, 1)
	rng := sim.NewRNG(9)
	ack := func(err error) {
		if err != nil {
			t.Error(err)
		}
	}
	before := v.Stats()
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	for i := 0; i < 4*pages; i++ {
		st.Write(rng.Intn(pages), buf, ack)
		if i%8 == 7 {
			c.Run()
		}
	}
	c.Run()
	runtime.ReadMemStats(&m1)
	d := v.Stats().Delta(before)
	if d.GCMoves == 0 || d.FlashPrograms != d.HostWrites+d.GCMoves {
		t.Fatalf("window: %d host writes, %d moves, %d programs", d.HostWrites, d.GCMoves, d.FlashPrograms)
	}
	page := float64(c.Params.Geometry.PageSize)
	got := float64(m1.TotalAlloc-m0.TotalAlloc) / float64(d.HostWrites)
	perWrite := float64(d.FlashPrograms) / float64(d.HostWrites)
	if budget := 1.05 * page; got >= budget {
		t.Errorf("a logical write (%.2f programs) allocates %.0f B, budget %.0f: more than its one image", perWrite, got, budget)
	}
}

// rebuildSpy sits between a card's FTL and its port and keeps every
// buffer a rebuild read delivered and every image a rebuild program
// handed down.
type rebuildSpy struct {
	*sched.Port
	cd     *card
	reads  map[*byte]bool
	writes *[]rebuildWrite
}

type rebuildWrite struct {
	cd  *card
	a   nand.Addr
	img []byte
}

func (b rebuildSpy) Read(ppn int, tag uint8, cb func([]byte, error)) {
	b.Port.Read(ppn, tag, func(d []byte, err error) {
		if ftl.IOTag(tag) == ftl.TagRebuild && err == nil {
			b.reads[&d[0]] = true
		}
		cb(d, err)
	})
}

func (b rebuildSpy) Program(ppn int, tag uint8, img []byte, cb func(error)) {
	if ftl.IOTag(tag) == ftl.TagRebuild {
		*b.writes = append(*b.writes, rebuildWrite{b.cd, b.cd.pageAddr(ppn).Addr, img})
	}
	b.Port.Program(ppn, tag, img, cb)
}

// TestRebuildCopyStoresTheBufferItRead: a rebuild copy is a move
// between cards, and like a GC move it allocates no page — the image
// the survivor's card stores is what its read delivers, what is handed
// to the replacement card's program, and what that card ends up
// storing: one buffer on two cards.
func TestRebuildCopyStoresTheBufferItRead(t *testing.T) {
	p := core.DefaultParams(2)
	p.Geometry.BlocksPerChip = 8
	p.Geometry.PagesPerBlock = 8
	c := coretest.NewCluster(t, p)
	s, err := sched.New(c, sched.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Mirror = true
	v, err := New(c, s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	reads := make(map[*byte]bool)
	var writes []rebuildWrite
	for _, cd := range v.cards {
		cd.f.Log.Port = rebuildSpy{cd.port, cd, reads, &writes}
	}
	st, err := v.NewStream("w", sched.Interactive)
	if err != nil {
		t.Fatal(err)
	}
	const pages = 48
	for lpn := 0; lpn < pages; lpn++ {
		st.Write(lpn, ownPage(v.PageSize(), lpn), func(err error) {
			if err != nil {
				t.Errorf("write: %v", err)
			}
		})
	}
	c.Run()

	if err := v.KillCard(0); err != nil {
		t.Fatal(err)
	}
	if err := v.ReplaceCard(0); err != nil {
		t.Fatal(err)
	}
	// ReplaceCard mounted a fresh FTL straight over the card's port: put
	// the spy back under it.
	v.cards[0].f.Log.Port = rebuildSpy{v.cards[0].port, v.cards[0], reads, &writes}
	rebuilt := false
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	if err := v.StartRebuild(0, func() { rebuilt = true }); err != nil {
		t.Fatal(err)
	}
	c.Run()
	runtime.ReadMemStats(&m1)
	if !rebuilt {
		t.Fatal("rebuild never completed")
	}
	// The fresh FTL's tables and the cold pools of 48 copies are in the
	// figure (a little over 2 KB each); a page per copy is not.
	if perCopy := float64(m1.TotalAlloc-m0.TotalAlloc) / float64(len(writes)); perCopy >= float64(p.Geometry.PageSize)/2 {
		t.Errorf("a rebuild copy allocates %.0f B: it pays for a page", perCopy)
	}
	if len(writes) == 0 || int64(len(writes)) != v.Stats().PagesRebuilt {
		t.Fatalf("spy saw %d rebuild programs, the volume counts %d pages rebuilt", len(writes), v.Stats().PagesRebuilt)
	}
	for _, w := range writes {
		if !reads[&w.img[0]] {
			t.Fatalf("rebuild program at %v hands down a buffer no rebuild read delivered: the copy copied", w.a)
		}
		stored := c.Node(w.cd.node).Card(w.cd.idx).Peek(w.a)
		if stored == nil || &stored[0] != &w.img[0] {
			t.Fatalf("the card stores a copy of the rebuilt page at %v", w.a)
		}
	}
	for lpn := 0; lpn < pages; lpn++ {
		want := ownPage(v.PageSize(), lpn)
		st.Read(lpn, func(d []byte, err error) {
			if err != nil || !bytes.Equal(d, want) {
				t.Errorf("lpn %d after rebuild: err %v, wrong data", lpn, err)
			}
		})
	}
	c.Run()
}
