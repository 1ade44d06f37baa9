package nand

import (
	"bytes"
	"errors"
	"runtime"
	"testing"

	"repro/internal/sim"
)

// blockOp is one step of a block-record case: a command against page
// `page` of one block, and the sentinel it must return (nil: success).
type blockOp struct {
	do   string // program, read, erase, markbad, replace, peek
	page int
	want error
}

// TestBlockRecordSentinels: a block's record decides every command the
// way the per-page state byte it replaced did. A page is written
// exactly when it lies below the block's next programmable page, so a
// read at or past it is ErrReadFree, a program below it ErrNotErased
// and one above it ErrOutOfOrder; an erase or Replace frees every page
// and keeps nothing readable; a bad block refuses all; and Peek of a
// page that holds no image — in a block never programmed, too — is nil.
// A successful read or Peek returns the image last programmed there.
func TestBlockRecordSentinels(t *testing.T) {
	cases := []struct {
		name string
		ops  []blockOp
	}{
		{"read of a free page", []blockOp{{"read", 0, ErrReadFree}}},
		{"read past next", []blockOp{{"program", 0, nil}, {"read", 1, ErrReadFree}, {"read", 0, nil}}},
		{"program below next", []blockOp{{"program", 0, nil}, {"program", 1, nil}, {"program", 0, ErrNotErased}, {"program", 1, ErrNotErased}}},
		{"program above next", []blockOp{{"program", 0, nil}, {"program", 2, ErrOutOfOrder}, {"program", 1, nil}}},
		{"program above next in a fresh block", []blockOp{{"program", 3, ErrOutOfOrder}, {"peek", 3, nil}}},
		{"read after erase", []blockOp{{"program", 0, nil}, {"program", 1, nil}, {"erase", 0, nil}, {"read", 0, ErrReadFree}, {"peek", 1, nil}}},
		{"program after erase", []blockOp{{"program", 0, nil}, {"erase", 0, nil}, {"program", 1, ErrOutOfOrder}, {"program", 0, nil}, {"read", 0, nil}}},
		{"markbad on a never-programmed block", []blockOp{{"markbad", 0, nil}, {"peek", 0, nil}, {"read", 0, ErrBadBlock}, {"program", 0, ErrBadBlock}, {"erase", 0, ErrBadBlock}}},
		{"peek on a never-programmed block", []blockOp{{"peek", 0, nil}, {"peek", 5, nil}}},
		{"program after replace", []blockOp{{"program", 0, nil}, {"program", 1, nil}, {"markbad", 0, nil}, {"replace", 0, nil}, {"peek", 0, nil}, {"read", 1, ErrReadFree}, {"program", 0, nil}, {"program", 1, nil}, {"read", 1, nil}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			eng := sim.NewEngine()
			c := perfectCard(t, eng)
			stored := map[int][]byte{} // what each page of the block holds
			for i, op := range tc.ops {
				a := Addr{Bus: 1, Chip: 1, Block: 5, Page: op.page}
				var err error
				switch op.do {
				case "program":
					img := mkRaw(c, byte(10*i+op.page))
					c.ProgramPage(a, img, func(e error) { err = e })
					eng.Run()
					if err == nil {
						stored[op.page] = img
					}
				case "read":
					var got []byte
					c.ReadPage(a, func(raw []byte, e error) { got, err = raw, e })
					eng.Run()
					if err == nil && !bytes.Equal(got, stored[op.page]) {
						t.Fatalf("step %d: read %v returned another image than the one programmed", i, a)
					}
				case "erase":
					c.EraseBlock(a, func(e error) { err = e })
					eng.Run()
					if err == nil {
						clear(stored)
					}
				case "markbad":
					c.MarkBad(a)
				case "replace":
					c.Replace()
					clear(stored)
				case "peek":
					if got := c.Peek(a); !bytes.Equal(got, stored[op.page]) || (got == nil) != (stored[op.page] == nil) {
						t.Fatalf("step %d: Peek %v = %d bytes, want the %d-byte image stored there", i, a, len(got), len(stored[op.page]))
					}
				}
				if !errors.Is(err, op.want) || (err == nil) != (op.want == nil) {
					t.Fatalf("step %d: %s page %d: err = %v, want %v", i, op.do, op.page, err, op.want)
				}
			}
		})
	}
}

// largeGeometry is core.DefaultParams' card with 4096 blocks per chip:
// 8 buses × 4096 blocks × 32 pages, 1 M page slots.
func largeGeometry() Geometry {
	return Geometry{Buses: 8, ChipsPerBus: 1, BlocksPerChip: 4096, PagesPerBlock: 32, PageSize: 8192, OOBSize: 1024}
}

// allocated returns the bytes f allocates on the heap.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestCardMemoryFollowsProgrammedBlocks: a card's memory follows the
// blocks it has programmed, not its capacity. A new card of 1 M page
// slots keeps a record per block and nothing per page, under 4 MiB; the
// first program into a fresh block allocates its page table, under
// 1 KiB (the image is the caller's); and the block keeps that table
// across an erase, so programming it again allocates nothing.
func TestCardMemoryFollowsProgrammedBlocks(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	eng := sim.NewEngine()
	g := largeGeometry()
	var c *Card
	var err error
	if got := allocated(func() { c, err = NewCard(eng, "large", g, DefaultTiming(), Reliability{}, 1) }); err != nil || got > 4<<20 {
		t.Fatalf("NewCard of %d page slots allocated %d B (err %v), want at most 4 MiB", g.TotalPages(), got, err)
	}
	ack := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	imgs := make([][]byte, 4)
	for i := range imgs {
		imgs[i] = make([]byte, g.PageSize)
	}
	program := func(a Addr, img []byte) uint64 {
		return allocated(func() { c.ProgramPage(a, img, ack); eng.Run() })
	}
	// Grow the chip's, the bus's, the erases' and the engine's queues.
	program(Addr{Block: 0}, imgs[0])
	c.EraseBlock(Addr{Block: 0}, ack)
	eng.Run()
	fresh := Addr{Block: 1}
	if got := program(fresh, imgs[1]); got > 1<<10 {
		t.Fatalf("the first program into a fresh block allocated %d B, want at most 1 KiB: its page table", got)
	}
	if got := program(Addr{Block: 1, Page: 1}, imgs[2]); got != 0 {
		t.Fatalf("a second program into the block allocated %d B, want 0", got)
	}
	if got := allocated(func() { c.EraseBlock(fresh, ack); eng.Run() }); got != 0 {
		t.Fatalf("erasing the block allocated %d B, want 0", got)
	}
	if got := program(fresh, imgs[3]); got != 0 {
		t.Fatalf("reprogramming an erased block allocated %d B, want 0: an erase keeps the table", got)
	}
}
