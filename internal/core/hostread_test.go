package core

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/alloctest"
	"repro/internal/nand"
	"repro/internal/sim"
)

// refHostRead is the closure chain HostRead was before it became a
// doorbell batch of one, kept as the reference model the batch path
// must reproduce instant for instant: the host software as pure
// latency, the doorbell, the read — the local flash, or the remote
// flash directly, through the far host or from its DRAM — then the
// page up into a host read buffer and the completion interrupt. tr
// gets the old decomposition, which is right for remote pages only.
func refHostRead(n *Node, a PageAddr, path AccessPath, tr *Trace, cb func(data []byte, err error)) {
	start := n.cluster.Eng.Now()
	h := n.Host.Config()
	net := n.cluster.Net.Config()
	hops := n.cluster.Hops(n.id, a.Node)

	finish := func(data []byte, err error) {
		if tr != nil {
			tr.Total = n.cluster.Eng.Now() - start
			tr.Network = sim.Time(2*hops) * net.HopLatency
			if path != PathHD {
				tr.Storage = n.cluster.Params.FlashTiming.ReadPage
			} else {
				tr.Storage = n.cluster.Params.DRAMLatency
			}
			switch path {
			case PathHRHF:
				tr.Software += h.InterruptLatency + h.SoftwareOverhead + h.RPCLatency
			case PathHD:
				tr.Software += h.InterruptLatency + h.LightSoftware + h.RPCLatency
			}
			rest := tr.Total - tr.Network - tr.Storage - tr.Software
			if rest < 0 {
				rest = 0
			}
			tr.Transfer = rest
		}
		cb(data, err)
	}

	issue := n.Host.ChargeSoftware
	issueCost := h.SoftwareOverhead
	if path == PathHD {
		issue = n.Host.ChargeLightSoftware
		issueCost = h.LightSoftware
	}
	issue(func() {
		if tr != nil {
			tr.Software += issueCost + h.RPCLatency
		}
		n.Host.RPC(func() {
			deliver := func(data []byte, err error) {
				if err != nil {
					finish(nil, err)
					return
				}
				n.Host.PageUp(len(data), func() {
					if tr != nil {
						tr.Software += h.InterruptLatency
					}
					finish(data, nil)
				})
			}
			switch {
			case a.Node == n.id:
				n.hostIfaces[a.Card].ReadPhysical(a.Addr, deliver)
			case path == PathHD:
				n.remoteReq(reqMsg{card: a.Card, addr: a.Addr, dram: true, viaHost: true}, a.Node, deliver)
			case path == PathHRHF:
				n.remoteReq(reqMsg{card: a.Card, addr: a.Addr, viaHost: true}, a.Node, deliver)
			default:
				n.remoteReq(reqMsg{card: a.Card, addr: a.Addr}, a.Node, deliver)
			}
		})
	})
}

// hostReadCases are Figure 12's three host paths, each to a page of
// the reading node (node 0) and to one two hops away (node 2).
var hostReadCases = []struct {
	path AccessPath
	node int
}{
	{PathHF, 0}, {PathHRHF, 0}, {PathHD, 0},
	{PathHF, 2}, {PathHRHF, 2}, {PathHD, 2},
}

func placement(node int) string {
	if node == 0 {
		return "local"
	}
	return "remote"
}

// hostReadPages is how many pages of every node hostReadCluster writes.
const hostReadPages = 32

// hostReadCluster is a 4-node cluster with the first hostReadPages
// pages of every node written, under the image guard for a test.
func hostReadCluster(tb testing.TB) *Cluster {
	tb.Helper()
	p := testParams(4)
	_, p.Reliability.GuardImages = tb.(*testing.T)
	c, err := NewCluster(p)
	if err != nil {
		tb.Fatal(err)
	}
	for node := 0; node < c.Nodes(); node++ {
		if err := c.SeedLinear(node, hostReadPages, func(idx int, page []byte) {
			page[0], page[1] = byte(node), byte(idx)
		}); err != nil {
			tb.Fatal(err)
		}
	}
	return c
}

// hostRead is one read of a script: node src reads a over path.
type hostRead struct {
	src  int
	a    PageAddr
	path AccessPath
}

// hostReadDone is one completion: which read, when, with what error,
// and whether the page delivered is the very image the card stores.
type hostReadDone struct {
	read   int
	at     sim.Time
	err    error
	stored bool
}

// runHostReads issues every read of the script at once through read and
// runs c to completion, returning the completions in the order they
// fired.
func runHostReads(c *Cluster, reads []hostRead, read func(n *Node, a PageAddr, path AccessPath, cb func(data []byte, err error))) []hostReadDone {
	var out []hostReadDone
	for i, r := range reads {
		read(c.Node(r.src), r.a, r.path, func(data []byte, err error) {
			stored := c.Node(r.a.Node).Card(r.a.Card).Peek(r.a.Addr)
			out = append(out, hostReadDone{read: i, at: c.Eng.Now(), err: err,
				stored: len(data) > 0 && len(stored) > 0 && &data[0] == &stored[0]})
		})
	}
	c.Run()
	return out
}

// checkHostReadTwins runs reads on twin clusters, once through HostRead
// and once through the reference model; fail (optional) is applied to
// both first. Every read must complete once, at the same instant, in
// the same order, with the same error and a page that is (or is not)
// the stored image alike.
func checkHostReadTwins(t *testing.T, reads []hostRead, fail func(c *Cluster)) []hostReadDone {
	t.Helper()
	twins := [2]*Cluster{hostReadCluster(t), hostReadCluster(t)}
	if fail != nil {
		fail(twins[0])
		fail(twins[1])
	}
	got := runHostReads(twins[0], reads, func(n *Node, a PageAddr, path AccessPath, cb func([]byte, error)) {
		n.HostRead(a, path, nil, cb)
	})
	want := runHostReads(twins[1], reads, func(n *Node, a PageAddr, path AccessPath, cb func([]byte, error)) {
		refHostRead(n, a, path, nil, cb)
	})
	if len(got) != len(reads) || len(want) != len(reads) {
		t.Fatalf("%d reads: %d completions, the reference %d", len(reads), len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.read != w.read || g.at != w.at || fmt.Sprint(g.err) != fmt.Sprint(w.err) || g.stored != w.stored {
			t.Fatalf("completion %d: read %d at %v (err %v, stored image %v), the reference read %d at %v (err %v, stored image %v)",
				i, g.read, g.at, g.err, g.stored, w.read, w.at, w.err, w.stored)
		}
	}
	for _, c := range twins {
		if err := c.Check(); err != nil {
			t.Fatal(err)
		}
	}
	return got
}

// TestHostReadMatchesReference: the doorbell batch of one delivers
// every host read exactly when, and what, the closure chain it replaced
// did — alone on every path to a local and a remote page, clean and from
// a failed card, and 64 at once over mixed paths and placements from
// two nodes, which share their read buffers and links.
func TestHostReadMatchesReference(t *testing.T) {
	for _, tc := range hostReadCases {
		a := LinearPage(testParams(4), tc.node, 5)
		read := []hostRead{{src: 0, a: a, path: tc.path}}
		t.Run(fmt.Sprintf("%v/%s", tc.path, placement(tc.node)), func(t *testing.T) {
			if d := checkHostReadTwins(t, read, nil); d[0].err != nil || !d[0].stored {
				t.Fatalf("clean read: err %v, stored image %v", d[0].err, d[0].stored)
			}
			d := checkHostReadTwins(t, read, func(c *Cluster) { c.Node(a.Node).Card(a.Card).Fail() })
			// A far host serves H-D from its DRAM buffer, which the
			// card's failure does not reach.
			want := nand.ErrDead
			if tc.path == PathHD && tc.node != 0 {
				want = nil
			}
			if !errors.Is(d[0].err, want) {
				t.Fatalf("read from a failed card: %v, want %v", d[0].err, want)
			}
		})
	}

	rng := sim.NewRNG(7)
	reads := make([]hostRead, 64)
	for i := range reads {
		reads[i] = hostRead{
			src:  rng.Intn(2),
			a:    LinearPage(testParams(4), rng.Intn(4), rng.Intn(hostReadPages)),
			path: AccessPath(rng.Intn(3)),
		}
	}
	checkHostReadTwins(t, reads, nil)
}

// TestTraceDecomposition: on every host path, to a local page and to a
// remote one, the trace's bands sum to its total with a positive
// transfer band, and its storage band is the medium that served the
// page — the far node's DRAM buffer for a remote H-D read, the flash
// otherwise. For remote pages it is the closure chain's decomposition,
// which Figure 12 plots.
func TestTraceDecomposition(t *testing.T) {
	for _, tc := range hostReadCases {
		c := hostReadCluster(t)
		a := LinearPage(c.Params, tc.node, 5)
		var tr, ref Trace
		c.Node(0).HostRead(a, tc.path, &tr, func(_ []byte, err error) {
			if err != nil {
				t.Error(err)
			}
		})
		c.Run()
		refHostRead(c.Node(0), a, tc.path, &ref, func([]byte, error) {})
		c.Run()
		storage := c.Params.FlashTiming.ReadPage
		if tc.path == PathHD && tc.node != 0 {
			storage = c.Params.DRAMLatency
		}
		sum := tr.Software + tr.Storage + tr.Transfer + tr.Network
		switch {
		case tr.Total <= 0 || sum != tr.Total:
			t.Errorf("%v %s: bands sum to %v, total %v: %+v", tc.path, placement(tc.node), sum, tr.Total, tr)
		case tr.Storage != storage:
			t.Errorf("%v %s: storage band %v, want %v", tc.path, placement(tc.node), tr.Storage, storage)
		case tr.Software <= 0 || tr.Transfer <= 0 || (tr.Network > 0) != (tc.node != 0):
			t.Errorf("%v %s: bands %+v", tc.path, placement(tc.node), tr)
		case tc.node != 0 && tr != ref:
			t.Errorf("%v remote: trace %+v, the closure chain's %+v", tc.path, tr, ref)
		}
	}
}

// TestHostReadAllocatesNothing: a warm host read without a trace rides
// the node's pooled doorbell and request records and the cluster's
// remote records, and delivers the stored image, so it allocates
// nothing on any path to any page; the closure chain allocated 7.
func TestHostReadAllocatesNothing(t *testing.T) {
	c := hostReadCluster(t)
	n := c.Node(0)
	reads := 0
	done := func(_ []byte, err error) {
		if err != nil {
			t.Error(err)
		}
		reads++
	}
	for _, tc := range hostReadCases {
		a := LinearPage(c.Params, tc.node, 5)
		read := func() {
			n.HostRead(a, tc.path, nil, done)
			c.Run()
		}
		for i := 0; i < 4; i++ {
			read() // warm the pools along the path
		}
		if allocs := alloctest.Mallocs(50, read); allocs != 0 {
			t.Errorf("%v %s: 50 warm host reads allocate %d objects, want 0", tc.path, placement(tc.node), allocs)
		}
	}
	if reads == 0 {
		t.Fatal("no read completed")
	}
	if err := c.Check(); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkHostRead is one unloaded host read on a warm 4-node cluster,
// the Figure 12 measurement: ns/op is host time, B/op and allocs/op
// the heap traffic (0 on every path), events/op the engine events.
func BenchmarkHostRead(b *testing.B) {
	for _, tc := range []struct {
		name string
		path AccessPath
		node int
	}{
		{"local-H-F", PathHF, 0},
		{"remote-H-F", PathHF, 2},
		{"remote-H-RH-F", PathHRHF, 2},
		{"remote-H-D", PathHD, 2},
	} {
		b.Run(tc.name, func(b *testing.B) {
			c := hostReadCluster(b)
			n := c.Node(0)
			a := LinearPage(c.Params, tc.node, 5)
			done := func(_ []byte, err error) {
				if err != nil {
					b.Fatal(err)
				}
			}
			for i := 0; i < 2*FlashLanes; i++ {
				n.HostRead(a, tc.path, nil, done) // warm the pools and every lane
				c.Run()
			}
			b.ReportAllocs()
			b.ResetTimer()
			fired := c.Eng.Fired()
			for i := 0; i < b.N; i++ {
				n.HostRead(a, tc.path, nil, done)
				c.Run()
			}
			b.ReportMetric(float64(c.Eng.Fired()-fired)/float64(b.N), "events/op")
		})
	}
}
