package sched_test

import (
	"bytes"
	"testing"

	"repro/internal/core"
	"repro/internal/core/coretest"
	"repro/internal/sched"
)

// Writes pass one page image from admission to the cell: Stream.Write
// snapshots into it, WriteImage adopts it, a refused
// admission hands it back, and a Sequencer offers the same one again.
// Reads deliver the image the card stores to one requester or to
// several: images are immutable, so sharing needs no
// signal. The clusters here run under the image guard.

// freePage returns the idx-th page of node 0's first erased block row
// past the seeded region: programmable in idx order.
func freePage(c *core.Cluster, idx int) core.PageAddr {
	g := c.Params.Geometry
	blockSpan := g.Buses * g.ChipsPerBus * c.Params.CardsPerNode * g.PagesPerBlock
	return core.LinearPage(c.Params, 0, blockSpan+idx)
}

func peek(c *core.Cluster, a core.PageAddr) []byte {
	return c.Node(a.Node).Card(a.Card).Peek(a.Addr)
}

func pagePattern(c *core.Cluster, seed byte) []byte {
	b := make([]byte, c.Params.PageSize())
	for i := range b {
		b[i] = seed + byte(i*7)
	}
	return b
}

func readBack(t *testing.T, c *core.Cluster, st *sched.Stream, a core.PageAddr) []byte {
	t.Helper()
	var got []byte
	if err := st.Read(a, func(d []byte, err error) {
		if err != nil {
			t.Errorf("read %v: %v", a, err)
		}
		got = d
	}); err != nil {
		t.Fatal(err)
	}
	c.Run()
	return got
}

// TestPublicWritesSnapshot: Stream.Write copies the caller's buffer
// before it returns, whatever its shape — here it has the capacity of a
// page image — so the caller may scribble on all of it at once, and
// again from its callback.
func TestPublicWritesSnapshot(t *testing.T) {
	c := testCluster(t, 1, 16)
	s, err := sched.New(c, sched.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	st, _ := s.NewStream("w", 0, sched.Interactive)
	a, want := freePage(c, 0), pagePattern(c, 0x30)
	buf := c.Params.Geometry.PageImage(want) // looks like an image; it is still the caller's
	scribble := func() {
		b := buf[:cap(buf)]
		for j := range b {
			b[j] = 0xff
		}
	}
	if err := st.Write(a, buf, func(err error) {
		if err != nil {
			t.Error(err)
		}
		scribble()
	}); err != nil {
		t.Fatal(err)
	}
	scribble()
	c.Run()
	if stored := peek(c, a); len(stored) == 0 || &stored[0] == &buf[0] {
		t.Fatal("flash stores the caller's buffer")
	}
	if got := readBack(t, c, st, a); !bytes.Equal(got, want) {
		t.Fatal("the caller's scribbling reached flash")
	}
}

// TestWriteImageAdoptsAndBackpressureReturns: WriteImage hands the
// image down by reference — the card stores that very buffer — and an
// admission refused with ErrBackpressure keeps nothing, so the same
// image can be submitted again.
func TestWriteImageAdoptsAndBackpressureReturns(t *testing.T) {
	c := testCluster(t, 1, 16)
	cfg := sched.DefaultConfig()
	cfg.QueueDepth = 1
	s, err := sched.New(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	st, _ := s.NewStream("w", 0, sched.Batch)
	geo := c.Params.Geometry
	want0, want1 := pagePattern(c, 1), pagePattern(c, 2)
	img0, img1 := geo.PageImage(want0), geo.PageImage(want1)
	ack := func(err error) {
		if err != nil {
			t.Error(err)
		}
	}
	if err := st.WriteImage(freePage(c, 0), img0, ack); err != nil {
		t.Fatal(err)
	}
	// The queue holds one request: the second admission is refused.
	if err := st.WriteImage(freePage(c, 1), img1, ack); err != sched.ErrBackpressure {
		t.Fatalf("second admission: %v, want ErrBackpressure", err)
	}
	c.Run()
	if !geo.IsPageImage(img1) || !bytes.Equal(img1, want1) {
		t.Fatal("the refused admission damaged the image")
	}
	if err := st.WriteImage(freePage(c, 1), img1, ack); err != nil {
		t.Fatal(err)
	}
	c.Run()
	for i, img := range [][]byte{img0, img1} {
		if stored := peek(c, freePage(c, i)); len(stored) == 0 || &stored[0] != &img[0] {
			t.Fatalf("page %d: the card does not store the image WriteImage was given", i)
		}
	}
	if got := readBack(t, c, st, freePage(c, 1)); !bytes.Equal(got, want1) {
		t.Fatal("re-submitted image reads back wrong")
	}
}

// TestSequencerKeepsOrderAndImages: with an admission queue far
// shallower than the burst, a Sequencer absorbs the backpressure,
// admits strictly in issue order — the block programs in page order, so
// any overtaking would fail with nand.ErrOutOfOrder — and offers each
// refused image again: every page ends up stored in the buffer it was
// issued with. Reads and erases retry on their own.
func TestSequencerKeepsOrderAndImages(t *testing.T) {
	c := testCluster(t, 1, 16)
	cfg := sched.DefaultConfig()
	cfg.QueueDepth = 2
	s, err := sched.New(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	st, _ := s.NewStream("w", 0, sched.Batch)
	rt := s.NewRetrier(0)
	sq := rt.NewSequencer()
	geo := c.Params.Geometry
	// Pages of ONE block, in page order: dense indices a block row apart.
	row := geo.Buses * geo.ChipsPerBus * c.Params.CardsPerNode
	const n = 12
	var imgs [n][]byte
	acked := 0
	for i := 0; i < n; i++ {
		imgs[i] = geo.PageImage(pagePattern(c, byte(i)))
		i := i
		sq.WriteImage(st, freePage(c, i*row), imgs[i], func(err error) {
			if err != nil {
				t.Errorf("write %d: %v", i, err)
			}
			if acked != i {
				t.Errorf("write %d acknowledged after %d others", i, acked)
			}
			acked++
		})
	}
	c.Run()
	if acked != n {
		t.Fatalf("%d of %d writes acknowledged", acked, n)
	}
	if rt.Backpressure == 0 {
		t.Fatal("test premise: the burst should have met backpressure")
	}
	if rejected := s.Snapshot().Rejected; rejected != rt.Backpressure {
		t.Fatalf("retrier counts %d refusals, the scheduler %d", rt.Backpressure, rejected)
	}
	for i := range imgs {
		if stored := peek(c, freePage(c, i*row)); len(stored) == 0 || &stored[0] != &imgs[i][0] {
			t.Fatalf("page %d: the card does not store the image it was issued with", i)
		}
	}

	// Reads and an erase through the same shallow queue.
	before := rt.Backpressure
	reads := 0
	for i := 0; i < n; i++ {
		i := i
		rt.Read(st, freePage(c, i*row), func(d []byte, err error) {
			if err != nil || !bytes.Equal(d, pagePattern(c, byte(i))) {
				t.Errorf("read %d: err %v", i, err)
			}
			reads++
		})
	}
	c.Run()
	erased := false
	rt.Erase(st, freePage(c, 0), func(err error) {
		if err != nil {
			t.Error(err)
		}
		erased = true
	})
	c.Run()
	if reads != n || !erased || rt.Backpressure == before {
		t.Fatalf("reads %d of %d, erased %v, refusals absorbed %d", reads, n, erased, rt.Backpressure-before)
	}
	if stored := peek(c, freePage(c, 0)); stored != nil {
		t.Fatal("the erase did not reach the block")
	}
}

// TestCoalescedReadSharesTheUnclippedImage: a read fanned out to
// coalesced followers hands lead and followers the one buffer a lone
// read would get — the image the card stores, the whole page — so any
// of them may program it back as it stands.
func TestCoalescedReadSharesTheUnclippedImage(t *testing.T) {
	c := testCluster(t, 1, 16)
	s, err := sched.New(c, sched.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	st, _ := s.NewStream("r", 0, sched.Interactive)
	var results [][]byte
	collect := func(d []byte, err error) {
		if err != nil {
			t.Error(err)
		}
		results = append(results, d)
	}
	a := core.LinearPage(c.Params, 0, 3)
	for i := 0; i < 3; i++ {
		if err := st.Read(a, collect); err != nil {
			t.Fatal(err)
		}
	}
	c.Run()
	results = append(results, readBack(t, c, st, a)) // and a lone read
	if s.Snapshot().Coalesced != 2 || len(results) != 4 {
		t.Fatalf("coalesced %d, results %d", s.Snapshot().Coalesced, len(results))
	}
	stored := peek(c, a)
	for i, d := range results {
		if &d[0] != &stored[0] || len(d) != len(stored) || !c.Params.Geometry.IsPageImage(d) {
			t.Fatalf("reader %d got len %d cap %d: not the stored image", i, len(d), cap(d))
		}
	}
}

// TestFlashOpsAllocateOnePage extends flashserver's
// TestPageOpsAllocateOnePage through the scheduler and the host
// interface: admitted alone — its own doorbell, so nothing is amortized
// — a program allocates its image and a read nothing: the request, the
// doorbell batch and every continuation ride pooled records, and a
// clean read delivers the stored image.
func TestFlashOpsAllocateOnePage(t *testing.T) {
	c := testCluster(t, 1, 64)
	s, err := sched.New(c, sched.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	st, _ := s.NewStream("a", 0, sched.Interactive)
	geo := c.Params.Geometry
	page := pagePattern(c, 9)
	ack := func(err error) {
		if err != nil {
			t.Error(err)
		}
	}
	got := func(d []byte, err error) {
		if err != nil || len(d) != geo.PageSize {
			t.Errorf("read: %d bytes, err %v", len(d), err)
		}
	}
	row := geo.Buses * geo.ChipsPerBus * c.Params.CardsPerNode
	next := 0
	write := func() {
		if err := st.WriteImage(freePage(c, next*row), geo.PageImage(page), ack); err != nil {
			t.Fatal(err)
		}
		next++
		c.Run()
	}
	i := 0
	read := func() {
		if err := st.Read(core.LinearPage(c.Params, 0, i%64), got); err != nil {
			t.Fatal(err)
		}
		i++
		c.Run()
	}
	// Pools and rings reach their size: a few programs, and a read of
	// every page the measured reads visit, so every bus's burst and
	// submission queues have grown.
	for k := 0; k < 8; k++ {
		write()
	}
	for k := 0; k < 64; k++ {
		read()
	}
	if n := coretest.Mallocs(20, write); n != 20 {
		t.Errorf("20 programs through sched make %d allocations, want 20 (their images)", n)
	}
	if n := coretest.Mallocs(64, read); n != 0 {
		t.Errorf("64 reads through sched make %d allocations, want 0", n)
	}
}

// TestPromotedLeadAllocatesNothing: a realtime read that coalesces onto
// a queued batch read of its page promotes the lead into its own class
// (nodeQueue.promote) and rides it, and the pair allocates nothing:
// the follower joins the lead's recycled follower list, the lead moves
// between class rings in place.
func TestPromotedLeadAllocatesNothing(t *testing.T) {
	c := testCluster(t, 1, 64)
	s, err := sched.New(c, sched.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	batch, _ := s.NewStream("batch", 0, sched.Batch)
	rt, _ := s.NewStream("rt", 0, sched.Realtime)
	got := func(d []byte, err error) {
		if err != nil || len(d) != c.Params.Geometry.PageSize {
			t.Errorf("read: %d bytes, err %v", len(d), err)
		}
	}
	i := 0
	pair := func() {
		a := core.LinearPage(c.Params, 0, i%64)
		i++
		if err := batch.Read(a, got); err != nil {
			t.Fatal(err)
		}
		if err := rt.Read(a, got); err != nil {
			t.Fatal(err)
		}
		c.Run()
	}
	for k := 0; k < 64; k++ {
		pair()
	}
	base, i0 := s.Snapshot(), i
	if n := coretest.Mallocs(64, pair); n != 0 {
		t.Errorf("64 coalesced pairs that promote their lead make %d allocations, want 0", n)
	}
	if d, n := s.Snapshot().Coalesced-base.Coalesced, i-i0; d != int64(n) {
		t.Fatalf("%d of %d realtime reads coalesced: the window does not promote", d, n)
	}
}
