package sched_test

import (
	"testing"

	"repro/internal/alloctest"
	"repro/internal/core"
	"repro/internal/core/coretest"
	"repro/internal/nand"
	"repro/internal/reclaim"
	"repro/internal/sched"
)

// portRig is a two-node cluster and a port over card 0 of each node,
// laid node-major: ppn / TotalPages is the node, the rest a page of its
// card 0 (nand.Geometry.AddrOf), so the pages of a unit are one block's
// in order and units below BlocksPerChip sit on one chip. Its flash
// neither flips bits nor wears out, so one block takes any number of
// program/erase cycles.
func portRig(tb testing.TB, cfg sched.Config) (*core.Cluster, *sched.Scheduler, *sched.Port, func(node, unit, page int) int) {
	tb.Helper()
	p := core.DefaultParams(2)
	p.Geometry.BlocksPerChip = 16
	p.Reliability = nand.Reliability{}
	c := coretest.NewCluster(tb, p)
	s, err := sched.New(c, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	geo := c.Params.Geometry
	total := geo.TotalPages()
	port := s.NewRetrier(0).NewPort(func(ppn int) core.PageAddr {
		return core.PageAddr{Node: ppn / total, Addr: geo.AddrOf(ppn % total)}
	})
	ppn := func(node, unit, page int) int { return node*total + unit*geo.PagesPerBlock + page }
	return c, s, port, ppn
}

// classOps returns the ops each class has completed, by class name.
func classOps(s *sched.Scheduler) map[string]int64 {
	ops := map[string]int64{}
	for _, cs := range s.Snapshot().Classes {
		ops[cs.Class] = cs.Ops
	}
	return ops
}

// TestPortAdmitsByPageAndTag: a Port is the one place a page log's tag
// becomes a class and its programs an ordered lane. Tenant tags 0–2
// ride their own class; the log's and its layer's own tags (the FTL's
// flush and rebuild, reclaim.TagMove) and every erase ride Background;
// each op is admitted at the node that owns its page. Under
// backpressure one tag's programs at a node stay in issue order, while
// another tag's programs at that node — of the same class — pass the
// stalled one.
func TestPortAdmitsByPageAndTag(t *testing.T) {
	t.Run("class and node", func(t *testing.T) {
		c, s, port, ppn := portRig(t, sched.DefaultConfig())
		img := c.Params.Geometry.PageImage(pagePattern(c, 3))
		for i, row := range []struct {
			tag   uint8
			class string
		}{
			{0, "realtime"}, {1, "interactive"}, {2, "batch"},
			{0xFD, "background"}, {0xFE, "background"}, {reclaim.TagMove, "background"},
		} {
			node, pg := i%2, ppn(i%2, 10+i, 0)
			for _, op := range []struct {
				name  string
				class string
				issue func(cb func(error))
			}{
				{"program", row.class, func(cb func(error)) { port.Program(pg, row.tag, img, cb) }},
				{"read", row.class, func(cb func(error)) { port.Read(pg, row.tag, func(_ []byte, err error) { cb(err) }) }},
				{"erase", "background", func(cb func(error)) { port.Erase(pg, cb) }},
			} {
				before := classOps(s)
				op.issue(func(err error) {
					if err != nil {
						t.Errorf("tag %#x %s: %v", row.tag, op.name, err)
					}
				})
				if s.QueueLen(node) != 1 || s.QueueLen(1-node) != 0 {
					t.Errorf("tag %#x %s of a page on node %d: queues %d and %d", row.tag, op.name, node, s.QueueLen(0), s.QueueLen(1))
				}
				c.Run()
				for class, n := range classOps(s) {
					want := before[class]
					if class == op.class {
						want++
					}
					if n != want {
						t.Errorf("tag %#x %s: class %s completed %d ops, want %d", row.tag, op.name, class, n-before[class], want-before[class])
					}
				}
			}
		}
	})

	t.Run("program order", func(t *testing.T) {
		cfg := sched.DefaultConfig()
		cfg.QueueDepth = 2
		cfg.GCDefer = false
		c, _, port, ppn := portRig(t, cfg)
		geo := c.Params.Geometry
		var order []string
		program := func(name string, pg int, tag uint8) {
			port.Program(pg, tag, geo.PageImage(pagePattern(c, byte(len(name)))), func(err error) {
				if err != nil {
					t.Errorf("%s: %v", name, err)
				}
				order = append(order, name)
			})
		}
		// Two erases on another chip fill node 0's queue, so the first
		// rebuild program is refused and its lane stalls; the flush
		// program comes once the queue has drained, before the stalled
		// lane retries. All three programs are on one chip, so they
		// complete in the order they were admitted.
		port.Erase(ppn(0, geo.BlocksPerChip+2, 0), func(error) {})
		port.Erase(ppn(0, geo.BlocksPerChip+3, 0), func(error) {})
		program("rebuild 0", ppn(0, 4, 0), 0xFE)
		program("rebuild 1", ppn(0, 4, 1), 0xFE)
		c.Eng.After(1000, func() { program("flush", ppn(0, 5, 0), 0xFD) })
		c.Run()
		if want := []string{"flush", "rebuild 0", "rebuild 1"}; len(order) != 3 || order[0] != want[0] || order[1] != want[1] || order[2] != want[2] {
			t.Fatalf("programs completed %q, want %q", order, want)
		}
	})
}

// TestPortAllocatesNothing: a warm page op through a Port — a program
// that adopts its image, a read, an erase — allocates nothing: the
// port resolves the page, picks the class and the lane, and hands the
// op to the retrier's pooled records and the lane's sequencer.
func TestPortAllocatesNothing(t *testing.T) {
	c, _, port, ppn := portRig(t, sched.DefaultConfig())
	img := c.Params.Geometry.PageImage(pagePattern(c, 5))
	ack := func(err error) {
		if err != nil {
			t.Error(err)
		}
	}
	got := func(_ []byte, err error) { ack(err) }
	pg := ppn(1, 7, 0)
	cycle := func() {
		port.Program(pg, 1, img, ack)
		c.Run()
		port.Read(pg, reclaim.TagMove, got)
		c.Run()
		port.Erase(pg, ack)
		c.Run()
	}
	// Pools and rings reach their size.
	for i := 0; i < 8; i++ {
		cycle()
	}
	if n := alloctest.Mallocs(100, cycle); n != 0 {
		t.Fatalf("100 programs, reads and erases through a port make %d allocations, want 0", n)
	}
}

// TestWarmWindowAllocatesNothing: a measured window costs the
// scheduler nothing once warm. Every class's latency recorder is a
// fixed array of buckets that ResetStats zeroes, so a window of reads
// in every class after it allocates nothing.
func TestWarmWindowAllocatesNothing(t *testing.T) {
	c, s, port, ppn := portRig(t, sched.DefaultConfig())
	pg := ppn(1, 7, 0)
	port.Program(pg, 1, c.Params.Geometry.PageImage(pagePattern(c, 9)), func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	})
	c.Run()
	got := func(_ []byte, err error) {
		if err != nil {
			t.Error(err)
		}
	}
	// Tenant tags 0-2 read on their own classes, TagMove on
	// Background, and an Accel stream on Accel.
	acc, err := s.NewStream("engine", 1, sched.Accel)
	if err != nil {
		t.Fatal(err)
	}
	geo := c.Params.Geometry
	addr := core.PageAddr{Node: 1, Addr: geo.AddrOf(pg % geo.TotalPages())}
	tags := []uint8{0, 1, 2, reclaim.TagMove}
	window := func() {
		for i := 0; i < 64; i++ {
			if k := i % (len(tags) + 1); k < len(tags) {
				port.Read(pg, tags[k], got)
			} else if err := acc.Read(addr, got); err != nil {
				t.Fatal(err)
			}
			c.Run()
		}
	}
	window()
	if n := alloctest.Mallocs(20, func() {
		s.ResetStats()
		window()
	}); n != 0 {
		t.Fatalf("20 runs of ResetStats and a warm window of 64 reads make %d allocations, want 0", n)
	}
	for _, cs := range s.Snapshot().Classes {
		if cs.Ops == 0 {
			t.Errorf("class %s saw no reads; the window does not warm it", cs.Class)
		}
	}
}

// BenchmarkPort is the cost of one program, read and erase of a page
// through a Port, one op at a time, down to the card: ns/op is host
// time, B/op and allocs/op the heap traffic (0 expected: the image is
// made once, outside the loop). Run with -benchmem.
func BenchmarkPort(b *testing.B) {
	c, _, port, ppn := portRig(b, sched.DefaultConfig())
	img := c.Params.Geometry.PageImage(make([]byte, c.Params.PageSize()))
	ack := func(err error) {
		if err != nil {
			b.Fatal(err)
		}
	}
	got := func(_ []byte, err error) { ack(err) }
	pg := ppn(1, 7, 0)
	cycle := func() {
		port.Program(pg, 1, img, ack)
		c.Run()
		port.Read(pg, 1, got)
		c.Run()
		port.Erase(pg, ack)
		c.Run()
	}
	for i := 0; i < 8; i++ { // pools and rings reach their size
		cycle()
	}
	b.ReportAllocs()
	fired := c.Eng.Fired()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cycle()
	}
	b.StopTimer()
	b.ReportMetric(float64(c.Eng.Fired()-fired)/float64(b.N), "events/op")
}
