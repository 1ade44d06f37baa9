package core

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"repro/internal/alloctest"
	"repro/internal/fabric"
	"repro/internal/flashctl"
	"repro/internal/nand"
	"repro/internal/sim"
)

func testParams(nodes int) Params {
	p := DefaultParams(nodes)
	// Shrink flash so cluster tests stay fast.
	p.Geometry.BlocksPerChip = 8
	p.Geometry.PagesPerBlock = 16
	p.Reliability.GuardImages = true
	return p
}

// mkCluster builds a small cluster under the image guard; when the test
// ends no stored image may have been written to.
func mkCluster(t *testing.T, nodes int) *Cluster {
	t.Helper()
	c, err := NewCluster(testParams(nodes))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		for i := range c.Nodes() {
			for j := range c.Params.CardsPerNode {
				if err := c.Node(i).Card(j).CheckImages(); err != nil {
					t.Error(err)
				}
			}
		}
	})
	return c
}

func fill(seed byte, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = seed ^ byte(i*11)
	}
	return b
}

// hostWrite writes data to page a from node n's host: one doorbell of
// one request, carrying a page image of data.
func hostWrite(n *Node, a PageAddr, data []byte, cb func(err error)) {
	img := n.cluster.Params.Geometry.PageImage(data)
	n.SubmitHostBatch([]HostReq{{Addr: a, Write: true, Data: img, Done: func(_ []byte, err error) { cb(err) }}}, nil)
}

func TestLocalWriteRead(t *testing.T) {
	c := mkCluster(t, 2)
	n0 := c.Node(0)
	a := LinearPage(c.Params, 0, 0)
	data := fill(1, c.Params.PageSize())
	var werr error
	n0.writeLocal(a.Card, a.Addr, data, func(err error) { werr = err })
	c.Run()
	if werr != nil {
		t.Fatal(werr)
	}
	var got []byte
	n0.ISPReadDirect(a, func(d []byte, err error) {
		if err != nil {
			t.Error(err)
		}
		got = d
	})
	c.Run()
	if !bytes.Equal(got, data) {
		t.Fatal("local read mismatch")
	}
}

func TestISPRemoteRead(t *testing.T) {
	c := mkCluster(t, 4)
	// Write on node 2, read from node 0's ISP over the network.
	a := LinearPage(c.Params, 2, 5)
	data := fill(7, c.Params.PageSize())
	var werr error
	c.Node(2).writeLocal(a.Card, a.Addr, data, func(err error) { werr = err })
	c.Run()
	if werr != nil {
		t.Fatal(werr)
	}
	var got []byte
	start := c.Eng.Now()
	c.Node(0).ISPReadDirect(a, func(d []byte, err error) {
		if err != nil {
			t.Error(err)
		}
		got = d
	})
	c.Run()
	if !bytes.Equal(got, data) {
		t.Fatal("remote ISP read mismatch")
	}
	lat := c.Eng.Now() - start
	// ~50us flash + transfer + 2 hops: must be well under host paths.
	if lat < 50*sim.Microsecond || lat > 200*sim.Microsecond {
		t.Fatalf("ISP-F latency %v out of plausible range", lat)
	}
}

// TestRemoteReadAllocatesOnlyItsPage: a remote operation's descriptor,
// the server's flash continuation and the response ride one pooled
// record, and the page that comes back is the image the far card stores
// (a clean read copies nothing), so a warm remote read allocates
// nothing at all, and the record is back in the cluster's pool when the
// completion has run.
func TestRemoteReadAllocatesOnlyItsPage(t *testing.T) {
	c := mkCluster(t, 4)
	a := LinearPage(c.Params, 2, 5)
	data := fill(3, c.Params.PageSize())
	c.Node(2).writeLocal(a.Card, a.Addr, data, func(err error) {
		if err != nil {
			t.Error(err)
		}
	})
	c.Run()
	reads := 0
	done := func(d []byte, err error) {
		if err != nil || !bytes.Equal(d, data) {
			t.Errorf("remote read: %d bytes, err %v", len(d), err)
		}
		reads++
	}
	read := func() {
		c.Node(0).ISPReadDirect(a, done)
		c.Run()
	}
	for i := 0; i < 4; i++ {
		read() // warm the pools along the path
	}
	if n := alloctest.Mallocs(200, read); n != 0 {
		t.Fatalf("200 warm remote reads allocate %d objects, want 0", n)
	}
	if reads == 0 {
		t.Fatal("no read completed")
	}
	if err := c.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestAccessPathLatencyOrdering(t *testing.T) {
	// Figure 12's central claim: ISP-F < H-F < H-RH-F, and H-D has no
	// storage latency component.
	c := mkCluster(t, 4)
	a := LinearPage(c.Params, 1, 0)
	var werr error
	c.Node(1).writeLocal(a.Card, a.Addr, fill(3, c.Params.PageSize()), func(err error) { werr = err })
	c.Run()
	if werr != nil {
		t.Fatal(werr)
	}

	measure := func(path AccessPath, isp bool) sim.Time { // isp: the in-store ISP-F read, which takes no path
		start := c.Eng.Now()
		var end sim.Time
		if isp {
			c.Node(0).ISPReadDirect(a, func([]byte, error) { end = c.Eng.Now() })
		} else {
			c.Node(0).HostRead(a, path, nil, func(_ []byte, err error) {
				if err != nil {
					t.Error(err)
				}
				end = c.Eng.Now()
			})
		}
		c.Run()
		return end - start
	}

	ispf := measure(PathHF, true)
	hf := measure(PathHF, false)
	hrhf := measure(PathHRHF, false)
	hd := measure(PathHD, false)

	if !(ispf < hf && hf < hrhf) {
		t.Fatalf("latency ordering violated: ISP-F=%v H-F=%v H-RH-F=%v", ispf, hf, hrhf)
	}
	if hd >= hf {
		t.Fatalf("H-D (%v) should beat H-F (%v): no flash latency", hd, hf)
	}
}

// TestDRAMReadDeliversTheStoredPage: the H-D path serves the page the
// card stores as a read-only view, like a clean flash read, and a
// zeroed page where nothing is stored.
func TestDRAMReadDeliversTheStoredPage(t *testing.T) {
	c := mkCluster(t, 2)
	ps := c.Params.PageSize()
	written, blank := LinearPage(c.Params, 1, 0), LinearPage(c.Params, 1, 1)
	c.Node(1).writeLocal(written.Card, written.Addr, fill(9, ps), func(error) {})
	c.Run()
	read := func(a PageAddr) (got []byte) {
		c.Node(0).HostRead(a, PathHD, nil, func(d []byte, err error) {
			if err != nil {
				t.Error(err)
			}
			got = d
		})
		c.Run()
		return got
	}
	stored := c.Node(1).Card(written.Card).Peek(written.Addr)
	if got := read(written); len(got) != ps || &got[0] != &stored[0] {
		t.Fatalf("H-D read of a stored page: %d bytes, not a view of the stored image", len(got))
	}
	if got := read(blank); !bytes.Equal(got, make([]byte, ps)) {
		t.Fatalf("H-D read of an unwritten page: %d bytes, want a zeroed page", len(got))
	}
}

func TestHostWriteRoundTrip(t *testing.T) {
	c := mkCluster(t, 2)
	local := LinearPage(c.Params, 0, 1)
	remote := LinearPage(c.Params, 1, 1)
	data := fill(5, c.Params.PageSize())
	for _, a := range []PageAddr{local, remote} {
		var werr error
		hostWrite(c.Node(0), a, data, func(err error) { werr = err })
		c.Run()
		if werr != nil {
			t.Fatalf("host write %v: %v", a, werr)
		}
		var got []byte
		c.Node(a.Node).ISPReadDirect(a, func(d []byte, err error) { got = d })
		c.Run()
		if !bytes.Equal(got, data) {
			t.Fatalf("host write %v: data mismatch", a)
		}
	}
}

func TestSeedLinear(t *testing.T) {
	c := mkCluster(t, 2)
	const pages = 100
	if err := c.SeedLinear(1, pages, func(idx int, page []byte) {
		page[0] = byte(idx)
		page[1] = byte(idx >> 8)
	}); err != nil {
		t.Fatal(err)
	}
	// Spot-check via ISP reads from the other node.
	for _, idx := range []int{0, 17, 63, 99} {
		a := LinearPage(c.Params, 1, idx)
		var got []byte
		c.Node(0).ISPReadDirect(a, func(d []byte, err error) {
			if err != nil {
				t.Errorf("idx %d: %v", idx, err)
			}
			got = d
		})
		c.Run()
		if got == nil || got[0] != byte(idx) || got[1] != byte(idx>>8) {
			t.Fatalf("idx %d: wrong seeded content", idx)
		}
	}
}

// TestSeededPagesCostTheirPages: a seeded page is one page image held
// by the card, PageSize bytes with nothing behind it, so seeding N
// pages grows the live heap by N pages and (almost) nothing more.
func TestSeededPagesCostTheirPages(t *testing.T) {
	c := mkCluster(t, 1)
	const pages = 1024
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if err := c.SeedLinear(0, pages, nil); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	grew, budget := float64(after.HeapAlloc)-float64(before.HeapAlloc), 1.02*pages*float64(c.Params.PageSize())
	if grew > budget {
		t.Fatalf("seeding %d pages grew the live heap by %.0f B, budget %.0f (%.0f B a page)", pages, grew, budget, grew/pages)
	}
}

func TestLinearPageBijective(t *testing.T) {
	p := testParams(1)
	seen := map[PageAddr]bool{}
	n := PagesPerNode(p)
	for i := 0; i < n; i++ {
		a := LinearPage(p, 0, i)
		if !a.Valid(p) {
			t.Fatalf("index %d -> invalid address %v", i, a)
		}
		if seen[a] {
			t.Fatalf("index %d -> duplicate address %v", i, a)
		}
		seen[a] = true
	}
}

func TestLinearPageSequentialProgramOrder(t *testing.T) {
	// Writing dense indices in order must satisfy NAND's in-order page
	// programming rule on every block.
	c := mkCluster(t, 1)
	pages := PagesPerNode(c.Params) / 4
	if err := c.SeedLinear(0, pages, nil); err != nil {
		t.Fatalf("sequential seeding violated NAND ordering: %v", err)
	}
}

func TestHopsMatrix(t *testing.T) {
	p := testParams(5)
	p.Topology = fabric.Ring(5, 1)
	c, err := NewCluster(p)
	if err != nil {
		t.Fatal(err)
	}
	if c.Hops(0, 0) != 0 || c.Hops(0, 1) != 1 || c.Hops(0, 2) != 2 {
		t.Fatalf("ring distances wrong: %d %d %d", c.Hops(0, 0), c.Hops(0, 1), c.Hops(0, 2))
	}
	if c.Hops(0, 3) != 2 || c.Hops(0, 4) != 1 {
		t.Fatalf("ring wrap distances wrong: %d %d", c.Hops(0, 3), c.Hops(0, 4))
	}
}

func TestParamsValidation(t *testing.T) {
	p := testParams(0)
	if _, err := NewCluster(p); err == nil {
		t.Fatal("zero nodes accepted")
	}
	p = testParams(3)
	p.Topology = fabric.Ring(4, 1)
	if _, err := NewCluster(p); err == nil {
		t.Fatal("topology/cluster size mismatch accepted")
	}
}

func TestSingleNodeCluster(t *testing.T) {
	c := mkCluster(t, 1)
	a := LinearPage(c.Params, 0, 0)
	data := fill(8, c.Params.PageSize())
	var werr error
	hostWrite(c.Node(0), a, data, func(err error) { werr = err })
	c.Run()
	if werr != nil {
		t.Fatal(werr)
	}
	var got []byte
	c.Node(0).HostRead(a, PathHF, nil, func(d []byte, err error) {
		if err != nil {
			t.Error(err)
		}
		got = d
	})
	c.Run()
	if !bytes.Equal(got, data) {
		t.Fatal("single-node host round trip failed")
	}
}

// TestWriteBufferOwnership pins who owns a write's page buffer, and
// until when. The device-side write (writeLocal, SeedLinear's loop)
// snapshots inside the flash server before
// returning, so the caller may overwrite its buffer at once. A host
// write adopts a page image instead (TestSubmitHostBatchAdoptsImages).
func TestWriteBufferOwnership(t *testing.T) {
	c := mkCluster(t, 2)
	n0 := c.Node(0)
	ps := c.Params.PageSize()
	ack := func(err error) {
		if err != nil {
			t.Error(err)
		}
	}
	readBack := func(a PageAddr) []byte {
		var got []byte
		c.Node(a.Node).ISPReadDirect(a, func(d []byte, err error) {
			if err != nil {
				t.Error(err)
			}
			got = d
		})
		c.Run()
		return got
	}
	scribble := func(b []byte) {
		for i := range b {
			b[i] = 0xff
		}
	}

	// The caller's buffer has the capacity of a page image: the public
	// entries must copy it all the same, never adopt it.
	buf := make([]byte, ps, 2*ps)
	dev := LinearPage(c.Params, 0, 0)
	copy(buf, fill(1, ps))
	n0.writeLocal(dev.Card, dev.Addr, buf, ack)
	scribble(buf) // immediately after the call returns
	c.Run()
	if !bytes.Equal(readBack(dev), fill(1, ps)) {
		t.Fatal("writeLocal: bytes written to the caller's buffer after the call reached flash")
	}
}

// TestSubmitHostBatchAdoptsImages: the batch path is below the
// snapshotting entries. A write request carries a page image that the
// node hands down by reference — the card ends up storing that very
// buffer — and a buffer of the wrong length fails with
// flashctl.ErrDataSize instead of being copied or adopted. A
// page-length buffer is an image by its shape; a holder that writes to
// it after handing it down fails its program under the guard, naming
// the page.
func TestSubmitHostBatchAdoptsImages(t *testing.T) {
	c := mkCluster(t, 1)
	n0 := c.Node(0)
	geo := c.Params.Geometry
	want := fill(7, geo.PageSize)
	img := geo.PageImage(want)
	good, bad := LinearPage(c.Params, 0, 0), LinearPage(c.Params, 0, 1)
	var goodErr, badErr error = errors.New("never completed"), nil
	n0.SubmitHostBatch([]HostReq{
		{Addr: good, Write: true, Data: img, Done: func(_ []byte, err error) { goodErr = err }},
		{Addr: bad, Write: true, Data: fill(8, geo.StoredPageSize()), Done: func(_ []byte, err error) { badErr = err }},
	}, nil)
	c.Run()
	if goodErr != nil {
		t.Fatal(goodErr)
	}
	if !errors.Is(badErr, flashctl.ErrDataSize) {
		t.Fatalf("a buffer longer than a page: %v, want ErrDataSize", badErr)
	}
	if stored := n0.Card(good.Card).Peek(good.Addr); len(stored) == 0 || &stored[0] != &img[0] {
		t.Fatal("the card does not store the image the batch carried")
	}
	if n0.Card(bad.Card).Peek(bad.Addr) != nil {
		t.Fatal("a rejected write reached the card")
	}
	if err := c.Check(); err != nil {
		t.Fatalf("the failed write's records must have gone back too: %v", err)
	}
	var got []byte
	n0.ISPReadDirect(good, func(d []byte, err error) {
		if err != nil {
			t.Error(err)
		}
		got = d
	})
	c.Run()
	if !bytes.Equal(got, want) {
		t.Fatal("adopted image reads back wrong")
	}

	// A warm doorbell of reads allocates nothing: the batch (which
	// copies the caller's slice into its own) and each request ride
	// pooled records, and the pages are the stored image.
	done := func(_ []byte, err error) {
		if err != nil {
			t.Error(err)
		}
	}
	reads := []HostReq{{Addr: good, Done: done}, {Addr: good, Done: done}}
	ring := func() {
		n0.SubmitHostBatch(reads, nil)
		c.Run()
	}
	ring()
	if n := alloctest.Mallocs(50, ring); n != 0 {
		t.Fatalf("50 warm doorbells of two reads allocate %d objects, want 0", n)
	}
	if err := c.Check(); err != nil {
		t.Fatal(err)
	}

	late := geo.PageImage(fill(9, geo.PageSize))
	n0.SubmitHostBatch([]HostReq{{Addr: bad, Write: true, Data: late, Done: func(_ []byte, err error) {
		t.Errorf("the write of an image written to after hand-off was acknowledged: %v", err)
	}}}, nil)
	c.Eng.RunUntil(c.Eng.Now() + c.Params.FlashTiming.Program/2) // the card is programming it
	late[100] ^= 0x10
	defer func() {
		msg := fmt.Sprint(recover())
		if !strings.Contains(msg, bad.Addr.String()) || !strings.Contains(msg, "found by program") {
			t.Fatalf("program of an image written to after hand-off: %q; want a failure naming %v and the program", msg, bad.Addr)
		}
		late[100] ^= 0x10 // as adopted again, for the drain's CheckImages
	}()
	c.Run()
}

// TestCheckNamesABusyChip: the drain check walks every card's chips,
// so a cluster stopped with a program on a chip fails Check naming the
// card and the chip, beside the events still pending, and passes once
// the program has run.
func TestCheckNamesABusyChip(t *testing.T) {
	c := mkCluster(t, 2)
	geo := c.Params.Geometry
	c.Node(1).Card(0).ProgramPage(nand.Addr{Bus: 2}, geo.PageImage(fill(3, geo.PageSize)), func(err error) {
		if err != nil {
			t.Error(err)
		}
	})
	err := c.Check()
	if err == nil || !strings.Contains(err.Error(), "events pending") || !strings.Contains(err.Error(), "n1/card0: chip b2.c0") {
		t.Fatalf("Check with a chip programming: %v, want the pending events and the chip named", err)
	}
	c.Run()
	if err := c.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestRemoteRequestIsReadOrWrite: only reads and writes cross the
// fabric. An erase or a Background request for another node's card
// fails with ErrNotLocal before it moves anything, and the far page it
// named is still there; the same erase of a local card goes through.
func TestRemoteRequestIsReadOrWrite(t *testing.T) {
	c := mkCluster(t, 2)
	n0, n1 := c.Node(0), c.Node(1)
	geo := c.Params.Geometry
	far, near := LinearPage(c.Params, 1, 0), LinearPage(c.Params, 0, 0)
	want := fill(3, geo.PageSize)
	for _, a := range []PageAddr{far, near} {
		hostWrite(n0, a, want, func(err error) {
			if err != nil {
				t.Error(err)
			}
		})
	}
	c.Run()

	errs := make([]error, 4)
	done := func(i int) func([]byte, error) {
		errs[i] = errors.New("never completed")
		return func(_ []byte, err error) { errs[i] = err }
	}
	n0.SubmitHostBatch([]HostReq{
		{Addr: far, Erase: true, Done: done(0)},
		{Addr: far, Background: true, Done: done(1)},
		{Addr: far, Write: true, Background: true, Data: geo.PageImage(want), Done: done(2)},
		{Addr: near, Erase: true, Background: true, Done: done(3)},
	}, nil)
	c.Run()
	for i, what := range []string{"erase", "background read", "background write"} {
		if !errors.Is(errs[i], ErrNotLocal) {
			t.Errorf("a remote %s: err = %v, want ErrNotLocal", what, errs[i])
		}
	}
	if errs[3] != nil {
		t.Errorf("a local background erase: %v", errs[3])
	}
	if stored := n1.Card(far.Card).Peek(far.Addr); !bytes.Equal(stored, want) {
		t.Error("the far page is gone after its refused erase")
	}
	if n0.Card(near.Card).Peek(near.Addr) != nil {
		t.Error("the local erase did not erase")
	}
	if err := c.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestCheckNamesALeakedRecord: a pooled record taken and not returned
// fails the drain check, and the error names the pool it belongs to —
// the cluster's own pools and a layer's registered check alike.
func TestCheckNamesALeakedRecord(t *testing.T) {
	for _, tc := range []struct {
		pool string
		leak func(c *Cluster)
	}{
		{"core remote ops", func(c *Cluster) { c.remoteOps.Get() }},
		{"core host ops", func(c *Cluster) { c.Node(1).hostOps.Get() }},
		{"core host batches", func(c *Cluster) { c.Node(0).hostBatches.Get() }},
		{"a layer's pool", func(c *Cluster) {
			p := sim.Pool[int]{New: func() *int { return new(int) }}
			c.OnCheck(func() error { return p.Drained("a layer's pool") })
			p.Get()
		}},
	} {
		c := mkCluster(t, 2)
		if err := c.Check(); err != nil {
			t.Fatalf("a fresh cluster fails its drain check: %v", err)
		}
		tc.leak(c)
		if err := c.Check(); err == nil || !strings.Contains(err.Error(), tc.pool+": 1 pooled records out") {
			t.Errorf("one %s record leaked: Check = %v, want an error naming the pool", tc.pool, err)
		}
	}
}

// TestReadOfANodeOutsideTheCluster: a device read and a host read of a
// page on node Nodes() fail with fabric.ErrNoRoute when the request is
// sent, and the refused send returns its remote-op record: the drain
// check holds after each read.
func TestReadOfANodeOutsideTheCluster(t *testing.T) {
	c := mkCluster(t, 2)
	a := LinearPage(c.Params, 0, 0)
	a.Node = c.Nodes()
	expect := func(what string, read func(cb func([]byte, error))) {
		t.Helper()
		err := errors.New("never completed")
		read(func(_ []byte, e error) { err = e })
		c.Run()
		if !errors.Is(err, fabric.ErrNoRoute) {
			t.Errorf("%s of a page on node %d of %d: err = %v, want ErrNoRoute", what, a.Node, c.Nodes(), err)
		}
		if err := c.Check(); err != nil {
			t.Errorf("after a refused %s: %v", what, err)
		}
	}
	expect("ISPReadDirect", func(cb func([]byte, error)) { c.Node(0).ISPReadDirect(a, cb) })
	for _, path := range []AccessPath{PathHF, PathHRHF, PathHD} {
		expect(fmt.Sprintf("HostRead over %v", path), func(cb func([]byte, error)) { c.Node(0).HostRead(a, path, nil, cb) })
	}
}

// TestEmptyHostBatch: a doorbell of no requests is no doorbell. It
// takes no batch record, so the drain check holds, and it charges the
// submission thread nothing.
func TestEmptyHostBatch(t *testing.T) {
	c := mkCluster(t, 2)
	issued := false
	c.Node(0).SubmitHostBatch(nil, func() { issued = true })
	c.Node(0).SubmitHostBatch([]HostReq{}, func() { issued = true })
	c.Run()
	if issued {
		t.Error("an empty batch reached the submission thread")
	}
	if now := c.Eng.Now(); now != 0 {
		t.Errorf("an empty batch took %v of virtual time", now)
	}
	if err := c.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestAdmittedReadsPassAnEraseOnAnotherChip: an admitted read waits at
// its own chip only. With one chip of card 0 held by a 3 ms erase and
// admitted reads of that chip queued first, admitted reads of every
// other chip of the card — local, and served for a remote node — finish
// in a read's time, not behind the erase; the held chip's reads finish
// after it.
func TestAdmittedReadsPassAnEraseOnAnotherChip(t *testing.T) {
	c := mkCluster(t, 2)
	g := c.Params.Geometry
	for node := range 2 {
		if err := c.SeedLinear(node, g.Buses*g.ChipsPerBus*c.Params.CardsPerNode*g.PagesPerBlock, func(idx int, page []byte) { copy(page, fill(byte(idx), len(page))) }); err != nil {
			t.Fatal(err)
		}
	}
	c.Run()
	n0, n1 := c.Node(0), c.Node(1)
	held := PageAddr{Node: 0, Card: 0}
	erase := c.Params.FlashTiming.Erase
	start := c.Eng.Now()
	var eraseErr error
	n0.NewIface(0, "gc").Erase(nand.Addr{Block: g.BlocksPerChip - 1}, func(err error) { eraseErr = err })
	type result struct {
		a   PageAddr
		lat sim.Time
		err error
	}
	var got []result
	read := func(from *Node, a PageAddr) {
		from.ISPReadAdmitted(a, func(_ []byte, err error) { got = append(got, result{a, c.Eng.Now() - start, err}) })
	}
	// The held chip's reads first, one for each lane of the old
	// round-robin, then one read of every other chip, local and remote.
	for p := range 2 * ISPReadLanes {
		a := held
		a.Addr.Page = p
		read(n0, a)
	}
	for bus := 1; bus < g.Buses; bus++ {
		a := held
		a.Addr.Bus = bus
		read(n0, a)
		a.Addr.Page = 1
		read(n1, a)
	}
	c.Run()
	if eraseErr != nil {
		t.Fatal(eraseErr)
	}
	if want := 2*ISPReadLanes + 2*(g.Buses-1); len(got) != want {
		t.Fatalf("%d of %d reads completed", len(got), want)
	}
	for _, r := range got {
		switch {
		case r.err != nil:
			t.Errorf("read %v: %v", r.a, r.err)
		case r.a.Addr.Bus == 0 && r.lat < erase:
			t.Errorf("read %v of the erasing chip finished after %v, before the %v erase", r.a, r.lat, erase)
		case r.a.Addr.Bus != 0 && r.lat > erase/10:
			t.Errorf("read %v of an idle chip finished after %v: it waited behind the erase of another chip", r.a, r.lat)
		}
	}
}

// TestHostReadsPassAProgramOnAnotherChip: host reads have their own
// in-order interface per card, apart from host programs and erases. A
// read of one chip issued after a program of another finishes in a
// read's time, not behind the program; a read of the page being
// programmed still waits for it at the chip, and returns the new bytes;
// and the host's programs and erases still ack in request order (NAND
// programs a block in page order).
func TestHostReadsPassAProgramOnAnotherChip(t *testing.T) {
	c := mkCluster(t, 1)
	g, ft := c.Params.Geometry, c.Params.FlashTiming
	if err := c.SeedLinear(0, g.Buses*g.ChipsPerBus*c.Params.CardsPerNode*g.PagesPerBlock, func(idx int, page []byte) { copy(page, fill(byte(idx), len(page))) }); err != nil {
		t.Fatal(err)
	}
	c.Run()
	n := c.Node(0)
	at := func(bus, block, page int) PageAddr {
		return PageAddr{Addr: nand.Addr{Bus: bus, Block: block, Page: page}}
	}
	want := fill(0xa5, c.Params.PageSize())
	var writeDone sim.Time
	n.SubmitHostBatch([]HostReq{{Addr: at(0, 1, 0), Write: true, Data: g.PageImage(want), Done: func(_ []byte, err error) {
		if err != nil {
			t.Errorf("write: %v", err)
		}
		writeDone = c.Eng.Now()
	}}}, nil)
	// The second doorbell rings after the first on the node's serial
	// submission thread, so its reads reach the device after the write.
	// The read of the programmed page goes last: it waits at its chip,
	// and the reads behind it on the in-order interface would too.
	var readsDone []sim.Time
	var programmed []byte
	var reads []HostReq
	for bus := 1; bus <= 4; bus++ {
		reads = append(reads, HostReq{Addr: at(bus, 0, 0), Done: func(_ []byte, err error) {
			if err != nil {
				t.Errorf("read of bus %d: %v", bus, err)
			}
			readsDone = append(readsDone, c.Eng.Now())
		}})
	}
	reads = append(reads, HostReq{Addr: at(0, 1, 0), Done: func(data []byte, err error) {
		if err != nil {
			t.Errorf("read of the programmed page: %v", err)
		}
		programmed = data
	}})
	n.SubmitHostBatch(reads, nil)
	c.Run()
	if len(readsDone) != 4 || writeDone == 0 {
		t.Fatalf("%d of 4 reads and write done at %v", len(readsDone), writeDone)
	}
	for i, done := range readsDone {
		if done > writeDone-ft.Program/2 {
			t.Errorf("read %d of another chip finished at %v, the write at %v: it waited behind the %v program", i, done, writeDone, ft.Program)
		}
	}
	if !bytes.Equal(programmed, want) {
		t.Error("a read issued after a program of its page did not return the programmed bytes")
	}

	// An erase, then two programs of other chips: in request order,
	// although the erase takes longest.
	var acks []int
	var order []HostReq
	for i, a := range []PageAddr{at(2, 1, 0), at(3, 1, 0), at(4, 1, 0)} {
		r := HostReq{Addr: a, Done: func(_ []byte, err error) {
			if err != nil {
				t.Errorf("request %d: %v", i, err)
			}
			acks = append(acks, i)
		}}
		if i == 0 {
			r.Erase = true
		} else {
			r.Write, r.Data = true, g.PageImage(fill(byte(i), c.Params.PageSize()))
		}
		order = append(order, r)
	}
	n.SubmitHostBatch(order, nil)
	c.Run()
	if fmt.Sprint(acks) != "[0 1 2]" {
		t.Errorf("an erase and two programs acked in order %v, want [0 1 2]", acks)
	}
}
