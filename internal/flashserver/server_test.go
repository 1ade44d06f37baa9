package flashserver

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/flashctl"
	"repro/internal/nand"
	"repro/internal/sim"
)

func testGeometry() nand.Geometry {
	return nand.Geometry{
		Buses: 2, ChipsPerBus: 2, BlocksPerChip: 8, PagesPerBlock: 16,
		PageSize: 8192, OOBSize: 1024,
	}
}

// stack builds engine -> card -> controller -> splitter.
func stack(t testing.TB) (*sim.Engine, *nand.Card, *Splitter) {
	t.Helper()
	return stackWith(t, 0, nil)
}

// readChunkFn is the signature of flashctl.Handlers.ReadChunk.
type readChunkFn func(tag, off int, chunk []byte, last bool)

// stackWith is stack on a card that flips bits at rate ber, with tamper
// (when not nil) sitting on the link between the controller and the
// splitter: it sees every read burst and decides what, if anything, to
// pass on through deliver.
func stackWith(t testing.TB, ber float64, tamper func(deliver readChunkFn, tag, off int, chunk []byte, last bool)) (*sim.Engine, *nand.Card, *Splitter) {
	t.Helper()
	eng := sim.NewEngine()
	_, guard := t.(*testing.T) // tests run under the image guard, benchmarks without
	card, err := nand.NewCard(eng, "c0", testGeometry(), nand.DefaultTiming(), nand.Reliability{BitErrorRate: ber, GuardImages: guard}, 3)
	if err != nil {
		t.Fatal(err)
	}
	var sp *Splitter
	ctl, err := flashctl.New(eng, card, flashctl.DefaultConfig(), flashctl.Handlers{
		ReadChunk: func(tag, off int, chunk []byte, last bool) {
			if tamper != nil {
				tamper(sp.Handlers().ReadChunk, tag, off, chunk, last)
				return
			}
			sp.Handlers().ReadChunk(tag, off, chunk, last)
		},
		ReadDone:     func(tag, corrected int, err error) { sp.Handlers().ReadDone(tag, corrected, err) },
		WriteDataReq: func(tag int) { sp.Handlers().WriteDataReq(tag) },
		WriteDone:    func(tag int, err error) { sp.Handlers().WriteDone(tag, err) },
		EraseDone:    func(tag int, err error) { sp.Handlers().EraseDone(tag, err) },
	})
	if err != nil {
		t.Fatal(err)
	}
	sp = NewSplitter(ctl)
	return eng, card, sp
}

func pattern(n int, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = seed + byte(i*13)
	}
	return b
}

func TestServerWriteReadInOrder(t *testing.T) {
	eng, _, sp := stack(t)
	srv := NewServer(sp, "srv", 8)
	iface := srv.NewIface("if0")

	// Write 8 pages, then read them back; completions must arrive in
	// request order even though buses reorder internally.
	var writeErrs []error
	for p := 0; p < 8; p++ {
		iface.WritePhysical(nand.Addr{Bus: p % 2, Chip: 0, Block: 0, Page: p / 2}, pattern(8192, byte(p)), func(err error) {
			writeErrs = append(writeErrs, err)
		})
	}
	eng.Run()
	if len(writeErrs) != 8 {
		t.Fatalf("write acks = %d, want 8", len(writeErrs))
	}
	for i, err := range writeErrs {
		if err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}

	var order []int
	var datas [][]byte
	for p := 0; p < 8; p++ {
		p := p
		iface.ReadPhysical(nand.Addr{Bus: p % 2, Chip: 0, Block: 0, Page: p / 2}, func(data []byte, err error) {
			if err != nil {
				t.Errorf("read %d: %v", p, err)
			}
			order = append(order, p)
			datas = append(datas, data)
		})
	}
	eng.Run()
	if len(order) != 8 {
		t.Fatalf("reads completed = %d, want 8", len(order))
	}
	for i, p := range order {
		if p != i {
			t.Fatalf("out-of-order completion: %v", order)
		}
		if !bytes.Equal(datas[i], pattern(8192, byte(p))) {
			t.Fatalf("read %d: data mismatch", p)
		}
	}
}

func TestServerReordersAcrossBuses(t *testing.T) {
	// A slow-bus page requested first must still complete first at the
	// interface, even when a fast page finishes earlier at the flash.
	eng, _, sp := stack(t)
	srv := NewServer(sp, "srv", 8)
	iface := srv.NewIface("if0")

	// Write one page on each bus; then queue 3 reads to bus 0 (making
	// it busy) followed by the probe pattern.
	for bus := 0; bus < 2; bus++ {
		iface.WritePhysical(nand.Addr{Bus: bus, Chip: 0, Block: 0, Page: 0}, pattern(8192, byte(bus)), func(err error) {
			if err != nil {
				t.Error(err)
			}
		})
	}
	eng.Run()

	var got []string
	iface.ReadPhysical(nand.Addr{Bus: 0, Chip: 0, Block: 0, Page: 0}, func([]byte, error) { got = append(got, "slow") })
	iface.ReadPhysical(nand.Addr{Bus: 0, Chip: 0, Block: 0, Page: 0}, func([]byte, error) { got = append(got, "slow") })
	iface.ReadPhysical(nand.Addr{Bus: 1, Chip: 0, Block: 0, Page: 0}, func([]byte, error) { got = append(got, "fast") })
	eng.Run()
	want := []string{"slow", "slow", "fast"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("completion order %v, want %v", got, want)
		}
	}
}

func TestTwoIfacesIndependentOrder(t *testing.T) {
	eng, _, sp := stack(t)
	srv := NewServer(sp, "srv", 8)
	a := srv.NewIface("a")
	b := srv.NewIface("b")
	for bus := 0; bus < 2; bus++ {
		a.WritePhysical(nand.Addr{Bus: bus, Chip: 0, Block: 0, Page: 0}, pattern(8192, byte(bus)), func(err error) {
			if err != nil {
				t.Error(err)
			}
		})
	}
	eng.Run()
	var events []string
	// a reads the slow bus twice; b reads the fast bus once. b must NOT
	// wait behind a's FIFO.
	a.ReadPhysical(nand.Addr{Bus: 0, Chip: 0, Block: 0, Page: 0}, func([]byte, error) { events = append(events, "a1") })
	a.ReadPhysical(nand.Addr{Bus: 0, Chip: 0, Block: 0, Page: 0}, func([]byte, error) { events = append(events, "a2") })
	b.ReadPhysical(nand.Addr{Bus: 1, Chip: 0, Block: 0, Page: 0}, func([]byte, error) { events = append(events, "b1") })
	eng.Run()
	if len(events) != 3 {
		t.Fatalf("events = %v", events)
	}
	// b's single fast-bus read must not queue behind a's second
	// slow-bus read: interfaces are independent FIFOs.
	posB, posA2 := -1, -1
	for i, ev := range events {
		switch ev {
		case "b1":
			posB = i
		case "a2":
			posA2 = i
		}
	}
	if posB > posA2 {
		t.Fatalf("independent iface was blocked: %v", events)
	}
}

func TestATUFileReads(t *testing.T) {
	eng, _, sp := stack(t)
	srv := NewServer(sp, "srv", 8)
	iface := srv.NewIface("if0")

	// "File": 4 pages scattered across buses/chips, deliberately not in
	// layout order.
	layout := []nand.Addr{
		{Bus: 1, Chip: 1, Block: 0, Page: 0},
		{Bus: 0, Chip: 0, Block: 0, Page: 0},
		{Bus: 1, Chip: 0, Block: 0, Page: 0},
		{Bus: 0, Chip: 1, Block: 0, Page: 0},
	}
	for i, a := range layout {
		iface.WritePhysical(a, pattern(8192, byte(0x10+i)), func(err error) {
			if err != nil {
				t.Error(err)
			}
		})
	}
	eng.Run()

	srv.ATU().Load(FileHandle(42), layout)
	if srv.ATU().Pages(42) != 4 {
		t.Fatalf("ATU pages = %d", srv.ATU().Pages(42))
	}
	var pagesRead [][]byte
	for i := 0; i < 4; i++ {
		iface.ReadFile(42, i, func(data []byte, err error) {
			if err != nil {
				t.Errorf("file read: %v", err)
			}
			pagesRead = append(pagesRead, data)
		})
	}
	eng.Run()
	for i, data := range pagesRead {
		if !bytes.Equal(data, pattern(8192, byte(0x10+i))) {
			t.Fatalf("file page %d wrong content", i)
		}
	}
}

func TestATUErrors(t *testing.T) {
	eng, _, sp := stack(t)
	srv := NewServer(sp, "srv", 8)
	iface := srv.NewIface("if0")

	var gotErr error
	iface.ReadFile(7, 0, func(_ []byte, err error) { gotErr = err })
	eng.Run()
	if !errors.Is(gotErr, ErrNoMapping) {
		t.Fatalf("unmapped handle: %v", gotErr)
	}

	srv.ATU().Load(7, []nand.Addr{{Bus: 0}})
	iface.ReadFile(7, 5, func(_ []byte, err error) { gotErr = err })
	eng.Run()
	if !errors.Is(gotErr, ErrOutOfBounds) {
		t.Fatalf("out-of-range page: %v", gotErr)
	}
}

func TestQueueDepthBackpressure(t *testing.T) {
	eng, card, sp := stack(t)
	srv := NewServer(sp, "srv", 2) // shallow queue
	iface := srv.NewIface("if0")
	for p := 0; p < 16; p++ {
		iface.WritePhysical(nand.Addr{Bus: 0, Chip: 0, Block: 0, Page: p}, pattern(8192, byte(p)), func(err error) {
			if err != nil {
				t.Error(err)
			}
		})
	}
	eng.Run()
	done := 0
	for p := 0; p < 16; p++ {
		p := p
		iface.ReadPhysical(nand.Addr{Bus: 0, Chip: 0, Block: 0, Page: p}, func(data []byte, err error) {
			if err != nil {
				t.Errorf("read %d: %v", p, err)
			}
			done++
		})
	}
	eng.Run()
	if done != 16 {
		t.Fatalf("completed %d of 16 despite backpressure", done)
	}
	_ = card
}

func TestSplitterTagExhaustionQueues(t *testing.T) {
	eng, _, sp := stack(t)
	srv := NewServer(sp, "srv", 1000) // effectively unbounded iface credit
	iface := srv.NewIface("if0")
	geo := testGeometry()
	// Write every page of block 0 on all chips: 2*2*16 = 64 pages.
	total := 0
	for bus := 0; bus < geo.Buses; bus++ {
		for chip := 0; chip < geo.ChipsPerBus; chip++ {
			for p := 0; p < geo.PagesPerBlock; p++ {
				iface.WritePhysical(nand.Addr{Bus: bus, Chip: chip, Block: 0, Page: p}, pattern(8192, byte(p)), func(err error) {
					if err != nil {
						t.Error(err)
					}
				})
				total++
			}
		}
	}
	eng.Run()
	// Read each page 3 times: 192 requests > 128 controller tags.
	want := 0
	got := 0
	for rep := 0; rep < 3; rep++ {
		for bus := 0; bus < geo.Buses; bus++ {
			for chip := 0; chip < geo.ChipsPerBus; chip++ {
				for p := 0; p < geo.PagesPerBlock; p++ {
					want++
					iface.ReadPhysical(nand.Addr{Bus: bus, Chip: chip, Block: 0, Page: p}, func(_ []byte, err error) {
						if err != nil {
							t.Errorf("read: %v", err)
						}
						got++
					})
				}
			}
		}
	}
	eng.Run()
	if got != want {
		t.Fatalf("completed %d of %d reads under tag exhaustion", got, want)
	}
	if sp.Waits() == 0 {
		t.Fatal("expected some commands to wait for controller tags")
	}
}

func TestMultipleAgentsShareController(t *testing.T) {
	// Two servers (agents) with distinct ports on one splitter: tag
	// renaming must keep their completions separated.
	eng, _, sp := stack(t)
	srvA := NewServer(sp, "agentA", 8)
	srvB := NewServer(sp, "agentB", 8)
	ia := srvA.NewIface("a")
	ib := srvB.NewIface("b")

	ia.WritePhysical(nand.Addr{Bus: 0, Chip: 0, Block: 0, Page: 0}, pattern(8192, 0xaa), func(err error) {
		if err != nil {
			t.Error(err)
		}
	})
	ib.WritePhysical(nand.Addr{Bus: 1, Chip: 0, Block: 0, Page: 0}, pattern(8192, 0xbb), func(err error) {
		if err != nil {
			t.Error(err)
		}
	})
	eng.Run()

	var gotA, gotB []byte
	ia.ReadPhysical(nand.Addr{Bus: 0, Chip: 0, Block: 0, Page: 0}, func(d []byte, err error) { gotA = d })
	ib.ReadPhysical(nand.Addr{Bus: 1, Chip: 0, Block: 0, Page: 0}, func(d []byte, err error) { gotB = d })
	eng.Run()
	if !bytes.Equal(gotA, pattern(8192, 0xaa)) {
		t.Fatal("agent A got wrong data")
	}
	if !bytes.Equal(gotB, pattern(8192, 0xbb)) {
		t.Fatal("agent B got wrong data")
	}
	if sp.Renames() < 4 {
		t.Fatalf("renames = %d, want >= 4", sp.Renames())
	}
}

func TestServerEraseAndRewrite(t *testing.T) {
	eng, _, sp := stack(t)
	srv := NewServer(sp, "srv", 8)
	iface := srv.NewIface("if0")
	a := nand.Addr{Bus: 0, Chip: 0, Block: 1, Page: 0}
	iface.WritePhysical(a, pattern(8192, 1), func(err error) {
		if err != nil {
			t.Error(err)
		}
	})
	eng.Run()
	var erased bool
	iface.Erase(nand.Addr{Bus: 0, Chip: 0, Block: 1}, func(err error) {
		if err != nil {
			t.Error(err)
		}
		erased = true
	})
	eng.Run()
	if !erased {
		t.Fatal("erase ack missing")
	}
	// Dependent operations must wait for the ack: the FIFO interface
	// orders completions, not issue-side dependencies.
	var got []byte
	iface.WritePhysical(a, pattern(8192, 2), func(err error) {
		if err != nil {
			t.Error(err)
		}
		iface.ReadPhysical(a, func(d []byte, err error) {
			if err != nil {
				t.Error(err)
			}
			got = d
		})
	})
	eng.Run()
	if !bytes.Equal(got, pattern(8192, 2)) {
		t.Fatal("rewrite after erase returned stale data")
	}
}
