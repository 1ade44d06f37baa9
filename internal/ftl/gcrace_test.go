package ftl

// Regression test for the victim-scan/metadata race: a collection
// waiting for its victim's in-flight programs to drain must not start
// its relocation scan in the window between a program's completion
// and the installation of that page's mapping — pre-fix, the scan saw
// the just-programmed page as dead, skipped it, and the victim erase
// destroyed it while l2p (updated moments later) pointed at freed
// flash. Driven through a scripted Backend so the interleaving is
// exact.

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"repro/internal/nand"
)

type scriptOp struct {
	kind string // "read", "write", "erase"
	addr nand.Addr
	tag  IOTag
	data []byte
	rcb  func([]byte, error)
	wcb  func(error)
}

// scriptBackend completes operations inline while sync is set,
// otherwise holds them in pending for the test to release one by one.
type scriptBackend struct {
	geo     nand.Geometry
	store   map[nand.Addr][]byte
	sync    bool
	pending []scriptOp
}

func newScript(geo nand.Geometry) *scriptBackend {
	return &scriptBackend{geo: geo, store: make(map[nand.Addr][]byte), sync: true}
}

func (b *scriptBackend) run(op scriptOp) {
	switch op.kind {
	case "read":
		d, ok := b.store[op.addr]
		if !ok {
			op.rcb(nil, fmt.Errorf("script: read of unwritten page %v", op.addr))
			return
		}
		op.rcb(append([]byte(nil), d...), nil)
	case "write":
		b.store[op.addr] = op.data
		op.wcb(nil)
	case "erase":
		for p := 0; p < b.geo.PagesPerBlock; p++ {
			a := op.addr
			a.Page = p
			delete(b.store, a)
		}
		op.wcb(nil)
	}
}

func (b *scriptBackend) dispatch(op scriptOp) {
	if b.sync {
		b.run(op)
		return
	}
	b.pending = append(b.pending, op)
}

func (b *scriptBackend) ReadPage(a nand.Addr, tag IOTag, cb func([]byte, error)) {
	b.dispatch(scriptOp{kind: "read", addr: a, tag: tag, rcb: cb})
}

func (b *scriptBackend) WritePage(a nand.Addr, data []byte, tag IOTag, cb func(error)) {
	b.dispatch(scriptOp{kind: "write", addr: a, tag: tag, data: append([]byte(nil), data...), wcb: cb})
}

func (b *scriptBackend) EraseBlock(a nand.Addr, tag IOTag, cb func(error)) {
	b.dispatch(scriptOp{kind: "erase", addr: a, tag: tag, wcb: cb})
}

// popWrite completes the oldest pending host write (same-tag writes
// must complete in issue order).
func (b *scriptBackend) popWrite(t *testing.T) {
	t.Helper()
	for i, op := range b.pending {
		if op.kind == "write" && op.tag != TagGC {
			b.pending = append(b.pending[:i:i], b.pending[i+1:]...)
			b.run(op)
			return
		}
	}
	t.Fatalf("no pending host write; pending: %+v", b.pending)
}

// drain completes everything FIFO until quiescent.
func (b *scriptBackend) drain() {
	for len(b.pending) > 0 {
		op := b.pending[0]
		b.pending = b.pending[1:]
		b.run(op)
	}
}

func lpnPage(geo nand.Geometry, lpn, version int) []byte {
	p := make([]byte, geo.PageSize)
	for i := range p {
		p[i] = byte(lpn*31 + version*7 + i)
	}
	return p
}

func TestGCVictimScanWaitsForProgramMetadata(t *testing.T) {
	geo := nand.Geometry{
		Buses: 1, ChipsPerBus: 1, BlocksPerChip: 6, PagesPerBlock: 4,
		PageSize: 32, OOBSize: 4,
	}
	b := newScript(geo)
	// GCPipeline > 1 matters: the relocation scan must sweep past the
	// still-pending page in its wake-up pass instead of parking on an
	// earlier valid page and revisiting later.
	f, err := NewWithBackend(b, geo, Config{
		OverProvision: 0.5, GCLowWater: 2, WearLevelEvery: 0, GCPipeline: 4,
	})
	if err != nil {
		t.Fatal(err)
	}

	write := func(lpn, version int) error {
		e := errors.New("write never completed")
		f.Write(lpn, lpnPage(geo, lpn, version), func(err error) { e = err })
		return e
	}
	// Fill the logical space: blocks 0..2 seal full-valid.
	for lpn := 0; lpn < f.LogicalPages(); lpn++ {
		if err := write(lpn, 0); err != nil {
			t.Fatalf("seed %d: %v", lpn, err)
		}
	}
	// Overwrite lpns 0 and 1 (opens block 3), then trim them: block 3
	// is now the min-valid block once sealed.
	for lpn := 0; lpn < 2; lpn++ {
		if err := write(lpn, 1); err != nil {
			t.Fatal(err)
		}
		if err := f.Trim(lpn); err != nil {
			t.Fatal(err)
		}
	}

	// Hold completions: overwrites of lpns 2 and 3 allocate block 3's
	// last two pages (sealing it) with both programs still in flight.
	b.sync = false
	var err2, err3 error = errors.New("pending"), errors.New("pending")
	f.Write(2, lpnPage(geo, 2, 1), func(e error) { err2 = e })
	f.Write(3, lpnPage(geo, 3, 1), func(e error) { err3 = e })

	// The next write finds the pool at the low-water mark and picks
	// sealed, zero-valid block 3 as the collection victim — with two
	// programs pending against it, so relocation must wait.
	var err4 error = errors.New("pending")
	f.Write(4, lpnPage(geo, 4, 1), func(e error) { err4 = e })
	if f.GC.Passes == 0 {
		t.Fatal("collection did not trigger; the scenario lost its shape")
	}

	// Drain the pending programs one at a time. Completing the LAST
	// one is the race window: the collection wakes on the drained
	// pending count, and pre-fix its scan ran before the program's
	// mapping was installed — lpn 3's page was skipped as dead and
	// erased under the mapping.
	b.popWrite(t)
	b.popWrite(t)

	// Let everything else (relocation, erase, the queued lpn-4 write)
	// run to completion.
	b.sync = true
	b.drain()
	if err2 != nil || err3 != nil || err4 != nil {
		t.Fatalf("writes failed: lpn2=%v lpn3=%v lpn4=%v", err2, err3, err4)
	}
	if f.FlashErases == 0 {
		t.Fatal("victim was never erased; the scenario lost its shape")
	}

	// Every live page must read back its latest version — pre-fix,
	// lpn 3 resolves into the erased victim and the read fails.
	for lpn := 2; lpn < f.LogicalPages(); lpn++ {
		version := 0
		if lpn <= 4 {
			version = 1
		}
		var data []byte
		var rerr error = errors.New("pending")
		f.Read(lpn, func(d []byte, e error) { data, rerr = d, e })
		if rerr != nil {
			t.Fatalf("lpn %d unreadable after collection: %v", lpn, rerr)
		}
		if !bytes.Equal(data, lpnPage(geo, lpn, version)) {
			t.Fatalf("lpn %d returned stale or foreign data", lpn)
		}
	}
}

// TestSynchronousCollectionsNest: over a backend that completes every
// op inline, a collection runs whole inside the write that triggers it,
// and a write drained from behind one collection can trigger the next,
// whose drain then runs inside the first. The queue's two backing
// arrays must never be handed to both drains: every write lands, and
// the last version of every page reads back.
func TestSynchronousCollectionsNest(t *testing.T) {
	geo := nand.Geometry{
		Buses: 1, ChipsPerBus: 1, BlocksPerChip: 8, PagesPerBlock: 4,
		PageSize: 32, OOBSize: 4,
	}
	f, err := NewWithBackend(newScript(geo), geo, Config{OverProvision: 0.3, GCLowWater: 2, GCPipeline: 4})
	if err != nil {
		t.Fatal(err)
	}
	lpns, last := f.LogicalPages(), make(map[int]int)
	for v := 0; v < 40*lpns; v++ {
		lpn := v * 7 % lpns
		f.Write(lpn, lpnPage(geo, lpn, v), func(err error) {
			if err != nil {
				t.Fatalf("write of lpn %d version %d: %v", lpn, v, err)
			}
			last[lpn] = v
		})
	}
	if f.GC.Passes < 10 {
		t.Fatalf("test premise: %d collections", f.GC.Passes)
	}
	for lpn, v := range last {
		f.Read(lpn, func(d []byte, err error) {
			if err != nil || !bytes.Equal(d, lpnPage(geo, lpn, v)) {
				t.Fatalf("lpn %d: err %v, not version %d", lpn, err, v)
			}
		})
	}
}
