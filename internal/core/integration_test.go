package core

import (
	"bytes"
	"testing"

	"repro/internal/sim"
)

// TestGlobalAddressSpaceAllPairs is the rack-scale demonstration: on a
// 20-node ring, every node reads pages written by every other node
// through the in-store path, and the observed latencies stay within
// the "near-uniform access" envelope the paper claims (the network
// adds only a few percent on top of a flash access).
func TestGlobalAddressSpaceAllPairs(t *testing.T) {
	if testing.Short() {
		t.Skip("20-node all-pairs is slow in -short mode")
	}
	c := mkCluster(t, 20)
	// One distinctive page on each node.
	for n := 0; n < 20; n++ {
		a := LinearPage(c.Params, n, 0)
		var werr error
		c.Node(n).writeLocal(a.Card, a.Addr, fill(byte(n), c.Params.PageSize()), func(err error) { werr = err })
		c.Run()
		if werr != nil {
			t.Fatalf("node %d write: %v", n, werr)
		}
	}
	var minLat, maxLat sim.Time
	for src := 0; src < 20; src++ {
		for dst := 0; dst < 20; dst++ {
			if src == dst {
				continue
			}
			a := LinearPage(c.Params, dst, 0)
			start := c.Eng.Now()
			var got []byte
			c.Node(src).ISPReadDirect(a, func(d []byte, err error) {
				if err != nil {
					t.Fatalf("%d->%d: %v", src, dst, err)
				}
				got = d
			})
			c.Run()
			lat := c.Eng.Now() - start
			if !bytes.Equal(got, fill(byte(dst), c.Params.PageSize())) {
				t.Fatalf("%d->%d: wrong data", src, dst)
			}
			if minLat == 0 || lat < minLat {
				minLat = lat
			}
			if lat > maxLat {
				maxLat = lat
			}
		}
	}
	// Ring of 20 with 4 lanes: farthest node is 10 hops away. The paper
	// argues the network adds only ~5-10% to a flash access even then.
	spread := float64(maxLat-minLat) / float64(minLat)
	if spread > 0.25 {
		t.Fatalf("latency spread %.0f%% (min %v, max %v): not near-uniform", spread*100, minLat, maxLat)
	}
}

// ispWrite writes any page in the cluster from n: locally, or as a
// remote request over the fabric, the way a host batch writes a page
// another node owns.
func ispWrite(n *Node, a PageAddr, data []byte, cb func(err error)) {
	if a.Node == n.id {
		n.writeLocal(a.Card, a.Addr, data, cb)
		return
	}
	n.remoteReq(reqMsg{card: a.Card, addr: a.Addr, write: true, data: data}, a.Node,
		func(_ []byte, err error) { cb(err) })
}

// TestConcurrentMixedTraffic stresses the full stack: simultaneous
// local reads, remote reads, and remote writes from every node, with
// data integrity verified at the end.
func TestConcurrentMixedTraffic(t *testing.T) {
	c := mkCluster(t, 4)
	ps := c.Params.PageSize()
	// Seed a region on each node.
	for n := 0; n < 4; n++ {
		if err := c.SeedLinear(n, 32, func(idx int, page []byte) {
			page[0] = byte(n)
			page[1] = byte(idx)
		}); err != nil {
			t.Fatal(err)
		}
	}
	rng := sim.NewRNG(55)
	reads, hostReads, writes := 0, 0, 0
	wrote := map[PageAddr][]byte{}
	// Each node's write region: dense indices 32..47 land on page 2 of
	// 16 distinct (bus,chip,card) groups, so concurrent writes (whose
	// network lanes may reorder them) never violate NAND's in-order
	// programming inside one block.
	perDst := map[int]int{}
	// checkRead checks the bytes of a seeded page and counts the read.
	checkRead := func(kind string, a PageAddr, idx int, count *int) func([]byte, error) {
		return func(d []byte, err error) {
			if err != nil {
				t.Errorf("%s %v: %v", kind, a, err)
				return
			}
			if d[0] != byte(a.Node) || d[1] != byte(idx) {
				t.Errorf("%s %v: got (%d,%d) want (%d,%d)", kind, a, d[0], d[1], a.Node, idx)
			}
			*count++
		}
	}
	// Launch 200 mixed operations without draining between them.
	for i := 0; i < 200; i++ {
		src := rng.Intn(4)
		dst := rng.Intn(4)
		switch rng.Intn(4) {
		case 0, 1: // read a seeded page in store
			idx := rng.Intn(32)
			a := LinearPage(c.Params, dst, idx)
			c.Node(src).ISPReadDirect(a, checkRead("read", a, idx, &reads))
		case 2: // write a fresh page, one per chip group
			if perDst[dst] >= 16 {
				continue
			}
			idx := 32 + perDst[dst]
			perDst[dst]++
			a := LinearPage(c.Params, dst, idx)
			data := fill(byte(i), ps)
			wrote[a] = data
			ispWrite(c.Node(src), a, data, func(err error) {
				if err != nil {
					t.Errorf("write %v: %v", a, err)
				}
			})
			writes++
		case 3: // read a seeded page into host memory
			idx := rng.Intn(32)
			a := LinearPage(c.Params, dst, idx)
			c.Node(src).HostRead(a, PathHF, nil, checkRead("host read", a, idx, &hostReads))
		}
	}
	c.Run()
	if reads == 0 || hostReads == 0 || writes == 0 {
		t.Fatalf("vacuous: reads=%d hostReads=%d writes=%d", reads, hostReads, writes)
	}
	// Verify all written pages.
	for a, want := range wrote {
		var got []byte
		c.Node(a.Node).ISPReadDirect(a, func(d []byte, err error) {
			if err != nil {
				t.Errorf("verify %v: %v", a, err)
			}
			got = d
		})
		c.Run()
		if !bytes.Equal(got, want) {
			t.Errorf("verify %v: data mismatch", a)
		}
	}
}

// TestRemoteReadUnderBitErrors runs the ISP-F path against a cluster
// with live error injection: ECC must keep all remote reads correct.
func TestRemoteReadUnderBitErrors(t *testing.T) {
	p := testParams(3)
	p.Reliability.BitErrorRate = 5e-5 // ~3.7 flips per page read
	c, err := NewCluster(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.SeedLinear(1, 16, func(idx int, page []byte) {
		page[7] = byte(idx * 3)
	}); err != nil {
		t.Fatal(err)
	}
	corrected := false
	for i := 0; i < 16; i++ {
		a := LinearPage(c.Params, 1, i)
		var got []byte
		c.Node(0).ISPReadDirect(a, func(d []byte, err error) {
			if err != nil {
				t.Fatalf("read %d: %v", i, err)
			}
			got = d
		})
		c.Run()
		if got[7] != byte(i*3) {
			t.Fatalf("read %d: corrupted despite ECC", i)
		}
		_ = corrected
	}
	if c.Node(1).Controller(0).CorrectedBits.Value()+c.Node(1).Controller(1).CorrectedBits.Value() == 0 {
		t.Fatal("no corrections recorded; injection vacuous")
	}
}

// TestWriteAckOrderUnderLoad issues many writes through one host, a
// doorbell each, and checks every ack arrives exactly once (no lost or
// duplicated completions when buffers and tags churn).
func TestWriteAckOrderUnderLoad(t *testing.T) {
	c := mkCluster(t, 2)
	acks := make([]int, 0, 64)
	for i := 0; i < 64; i++ {
		i := i
		a := LinearPage(c.Params, 1, i)
		hostWrite(c.Node(0), a, fill(byte(i), c.Params.PageSize()), func(err error) {
			if err != nil {
				t.Errorf("write %d: %v", i, err)
			}
			acks = append(acks, i)
		})
	}
	c.Run()
	if len(acks) != 64 {
		t.Fatalf("acks = %d, want 64", len(acks))
	}
	seen := map[int]bool{}
	for _, v := range acks {
		if seen[v] {
			t.Fatalf("duplicate ack for %d", v)
		}
		seen[v] = true
	}
}
