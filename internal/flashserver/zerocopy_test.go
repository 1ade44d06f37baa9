package flashserver

import (
	"bytes"
	"errors"
	"runtime"
	"testing"

	"repro/internal/flashctl"
	"repro/internal/nand"
	"repro/internal/sim"
)

// The read path hands the requester the one buffer nand.ReadPage
// snapshotted, and the program path stores the one buffer
// WritePhysical snapshotted. These tests pin the ownership rules that
// makes load-bearing, the failure mode view reassembly must catch, and
// the allocation budget.

func writePage(t *testing.T, eng *sim.Engine, f *Iface, a nand.Addr, data []byte) {
	t.Helper()
	f.WritePhysical(a, data, func(err error) {
		if err != nil {
			t.Errorf("write %v: %v", a, err)
		}
	})
	eng.Run()
}

func readPage(t *testing.T, eng *sim.Engine, f *Iface, a nand.Addr) []byte {
	t.Helper()
	var got []byte
	f.ReadPhysical(a, func(d []byte, err error) {
		if err != nil {
			t.Errorf("read %v: %v", a, err)
		}
		got = d
	})
	eng.Run()
	return got
}

// TestReadResultsArePrivate: every read owns its page buffer. Two reads
// of one page in flight together get distinct buffers, and scribbling
// over one result changes neither the other nor what flash holds.
func TestReadResultsArePrivate(t *testing.T) {
	eng, _, sp := stack(t)
	srv := NewServer(sp, "srv", 8)
	f := srv.NewIface("if0")
	a := nand.Addr{Bus: 0, Chip: 0, Block: 0, Page: 0}
	want := pattern(8192, 0x5a)
	writePage(t, eng, f, a, want)

	var first, second []byte
	f.ReadPhysical(a, func(d []byte, err error) {
		if err != nil {
			t.Error(err)
		}
		first = d
		for i := range d { // the callback owns data: scribble at once
			d[i] = 0xff
		}
	})
	f.ReadPhysical(a, func(d []byte, err error) {
		if err != nil {
			t.Error(err)
		}
		second = d
	})
	eng.Run()
	if len(first) != 8192 || len(second) != 8192 {
		t.Fatalf("read lengths %d, %d", len(first), len(second))
	}
	if cap(first) != 8192 {
		t.Fatalf("result capacity %d reaches past the page into the check bytes", cap(first))
	}
	if &first[0] == &second[0] {
		t.Fatal("two reads of one page share a buffer")
	}
	if !bytes.Equal(second, want) {
		t.Fatal("scribbling over one read's result changed a concurrent read's")
	}
	for i := range second {
		second[i] = 0xee
	}
	if got := readPage(t, eng, f, a); !bytes.Equal(got, want) {
		t.Fatal("scribbling over read results changed the stored page")
	}
}

// TestWritePhysicalSnapshotsBeforeReturning: the caller may reuse its
// buffer as soon as WritePhysical returns — also when the op has to
// wait for a queue-depth credit and is issued much later.
func TestWritePhysicalSnapshotsBeforeReturning(t *testing.T) {
	eng, _, sp := stack(t)
	srv := NewServer(sp, "srv", 1) // one credit: the later writes wait
	f := srv.NewIface("if0")
	buf := make([]byte, 8192)
	for p := 0; p < 4; p++ {
		copy(buf, pattern(8192, byte(p)))
		f.WritePhysical(nand.Addr{Bus: 0, Chip: 0, Block: 0, Page: p}, buf, func(err error) {
			if err != nil {
				t.Error(err)
			}
		})
		for i := range buf {
			buf[i] = 0xff
		}
	}
	eng.Run()
	for p := 0; p < 4; p++ {
		if got := readPage(t, eng, f, nand.Addr{Bus: 0, Chip: 0, Block: 0, Page: p}); !bytes.Equal(got, pattern(8192, byte(p))) {
			t.Fatalf("page %d: the caller's later writes to its buffer reached flash", p)
		}
	}
}

func TestWritePhysicalRejectsWrongSize(t *testing.T) {
	eng, _, sp := stack(t)
	f := NewServer(sp, "srv", 8).NewIface("if0")
	var got error
	f.WritePhysical(nand.Addr{}, make([]byte, 100), func(err error) { got = err })
	eng.Run()
	if !errors.Is(got, flashctl.ErrDataSize) {
		t.Fatalf("short page: %v, want ErrDataSize", got)
	}
	// Nothing was issued or leaked: the interface still works.
	writePage(t, eng, f, nand.Addr{}, pattern(8192, 1))
}

// TestMisassembledReadFails: a burst that goes missing, arrives twice,
// arrives out of order or is not a view of the page buffer must fail
// the read with ErrShortRead through the normal FIFO completion —
// never deliver a short or shuffled page with a nil error — and leave
// the interface working.
func TestMisassembledReadFails(t *testing.T) {
	var held struct {
		off   int
		chunk []byte
	}
	cases := []struct {
		name   string
		tamper func(deliver readChunkFn, tag, off int, chunk []byte, last bool)
	}{
		{"dropped middle burst", func(deliver readChunkFn, tag, off int, chunk []byte, last bool) {
			if off != 2048 {
				deliver(tag, off, chunk, last)
			}
		}},
		{"dropped last burst", func(deliver readChunkFn, tag, off int, chunk []byte, last bool) {
			if !last {
				deliver(tag, off, chunk, last)
			}
		}},
		{"dropped first burst", func(deliver readChunkFn, tag, off int, chunk []byte, last bool) {
			if off != 0 {
				deliver(tag, off, chunk, last)
			}
		}},
		{"repeated burst", func(deliver readChunkFn, tag, off int, chunk []byte, last bool) {
			deliver(tag, off, chunk, last)
			if off == 2048 {
				deliver(tag, off, chunk, last)
			}
		}},
		{"swapped bursts", func(deliver readChunkFn, tag, off int, chunk []byte, last bool) {
			switch off {
			case 2048:
				held.off, held.chunk = off, chunk
			case 4096:
				deliver(tag, off, chunk, last)
				deliver(tag, held.off, held.chunk, false)
			default:
				deliver(tag, off, chunk, last)
			}
		}},
		{"burst that is a copy, not a view", func(deliver readChunkFn, tag, off int, chunk []byte, last bool) {
			if off == 2048 {
				chunk = append([]byte(nil), chunk...)
			}
			deliver(tag, off, chunk, last)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tampering := false
			eng, _, sp := tamperedStack(t, func(deliver readChunkFn, tag, off int, chunk []byte, last bool) {
				if tampering {
					tc.tamper(deliver, tag, off, chunk, last)
					return
				}
				deliver(tag, off, chunk, last)
			})
			f := NewServer(sp, "srv", 8).NewIface("if0")
			a := nand.Addr{Bus: 0, Chip: 0, Block: 0, Page: 0}
			b := nand.Addr{Bus: 1, Chip: 0, Block: 0, Page: 0}
			writePage(t, eng, f, a, pattern(8192, 7))
			writePage(t, eng, f, b, pattern(8192, 8))

			tampering = true
			var order []string
			f.ReadPhysical(a, func(d []byte, err error) {
				order = append(order, "bad")
				if !errors.Is(err, ErrShortRead) {
					t.Errorf("err = %v, want ErrShortRead", err)
				}
				if d != nil {
					t.Errorf("failed read delivered %d bytes", len(d))
				}
			})
			eng.Run()
			tampering = false
			f.ReadPhysical(b, func(d []byte, err error) {
				order = append(order, "good")
				if err != nil || !bytes.Equal(d, pattern(8192, 8)) {
					t.Errorf("read after a failed read: err %v", err)
				}
			})
			eng.Run()
			if len(order) != 2 || order[0] != "bad" || order[1] != "good" {
				t.Fatalf("completions %v, want [bad good]", order)
			}
		})
	}
}

// TestRejectedOpTakesNoCredit: an op that fails before it reaches the
// controller (here an unmapped file handle) never held a queue-depth
// credit, so completing it must not mint one.
func TestRejectedOpTakesNoCredit(t *testing.T) {
	eng, _, sp := stack(t)
	f := NewServer(sp, "srv", 2).NewIface("if0")
	for i := 0; i < 5; i++ {
		f.ReadFile(99, 0, func(_ []byte, err error) {
			if !errors.Is(err, ErrNoMapping) {
				t.Errorf("err = %v", err)
			}
		})
	}
	eng.Run()
	if f.credits != 2 {
		t.Fatalf("credits = %d after rejected ops, want the queue depth 2", f.credits)
	}
}

// allocBytesPerOp runs op n times on a warm stack and returns the mean
// bytes allocated per call (runtime.MemStats.TotalAlloc).
func allocBytesPerOp(n int, op func(i int)) float64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		op(i)
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
}

// TestPageOpsAllocateOnePage pins the budget of the whole flash path,
// NAND to callback: one page-sized allocation per read (the NAND
// snapshot) and one per program (the WritePhysical snapshot the card
// ends up storing), plus small change. Three page-sized allocations
// per op used to hide here; a second one cannot come back unnoticed.
func TestPageOpsAllocateOnePage(t *testing.T) {
	eng, card, sp := stack(t)
	f := NewServer(sp, "srv", 8).NewIface("if0")
	geo := card.Geometry()
	budget := 1.25 * float64(geo.StoredPageSize())
	addr := func(i int) nand.Addr {
		return nand.Addr{Bus: i % geo.Buses, Chip: i / geo.Buses % geo.ChipsPerBus,
			Block: i / (geo.Buses * geo.ChipsPerBus * geo.PagesPerBlock),
			Page:  i / (geo.Buses * geo.ChipsPerBus) % geo.PagesPerBlock}
	}
	page := pattern(geo.PageSize, 3)
	ack := func(err error) {
		if err != nil {
			t.Error(err)
		}
	}
	const warm, n = 64, 256
	write := func(i int) {
		f.WritePhysical(addr(i), page, ack)
		eng.Run()
	}
	for i := 0; i < warm; i++ {
		write(i)
	}
	if got := allocBytesPerOp(n, func(i int) { write(warm + i) }); got >= budget {
		t.Errorf("WritePhysical allocates %.0f B per page, budget %.0f", got, budget)
	}

	got := func(d []byte, err error) {
		if err != nil || len(d) != geo.PageSize {
			t.Errorf("read: %d bytes, err %v", len(d), err)
		}
	}
	read := func(i int) {
		f.ReadPhysical(addr(i%(warm+n)), got)
		eng.Run()
	}
	for i := 0; i < warm; i++ {
		read(i)
	}
	if got := allocBytesPerOp(n, read); got >= budget {
		t.Errorf("ReadPhysical allocates %.0f B per page, budget %.0f", got, budget)
	}
}
