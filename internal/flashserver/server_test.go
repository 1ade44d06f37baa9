package flashserver

import (
	"bytes"
	"fmt"
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

// stack builds engine -> card -> controller -> server of queue depth
// depth.
func stack(t testing.TB, depth int) (*sim.Engine, *nand.Card, *Server) {
	t.Helper()
	return stackWith(t, 0, depth, nil)
}

// readChunkFn is the signature of flashctl.Handlers.ReadChunk.
type readChunkFn func(tag, off int, chunk []byte, last bool)

// stackWith is stack on a card that flips bits at rate ber, with tamper
// (when not nil) sitting on the link between the controller and the
// server: it sees every read burst and decides what, if anything, to
// pass on through deliver.
func stackWith(t testing.TB, ber float64, depth int, tamper func(deliver readChunkFn, tag, off int, chunk []byte, last bool)) (*sim.Engine, *nand.Card, *Server) {
	t.Helper()
	eng, card, _, srv := build(t, ber, depth, func(h flashctl.Handlers) flashctl.Handlers {
		if tamper != nil {
			deliver := h.ReadChunk
			h.ReadChunk = func(tag, off int, chunk []byte, last bool) { tamper(deliver, tag, off, chunk, last) }
		}
		return h
	})
	return eng, card, srv
}

// observed is a server of queue depth depth over a fresh stack, with
// observe seeing every event the controller sends up (ReadChunk only
// for a read's first burst), named, with its controller tag, before
// the server handles it.
func observed(t testing.TB, depth int, observe func(ev string, tag int)) (*sim.Engine, *flashctl.Controller, *Server) {
	t.Helper()
	var eng *sim.Engine
	ev := func(name string, err error) string { return fmt.Sprintf("%s@%d err=%v", name, eng.Now(), err) }
	eng, _, ctl, srv := build(t, 0, depth, func(h flashctl.Handlers) flashctl.Handlers {
		return flashctl.Handlers{
			ReadChunk: func(tag, off int, chunk []byte, last bool) {
				if off == 0 {
					observe(fmt.Sprintf("chunk@%d", eng.Now()), tag)
				}
				h.ReadChunk(tag, off, chunk, last)
			},
			ReadDone: func(tag, corrected int, err error) {
				observe(ev("read-done", err), tag)
				h.ReadDone(tag, corrected, err)
			},
			WriteDataReq: func(tag int) {
				observe(fmt.Sprintf("data-req@%d", eng.Now()), tag)
				h.WriteDataReq(tag)
			},
			WriteDone: func(tag int, err error) {
				observe(ev("write-done", err), tag)
				h.WriteDone(tag, err)
			},
			EraseDone: func(tag int, err error) {
				observe(ev("erase-done", err), tag)
				h.EraseDone(tag, err)
			},
		}
	})
	return eng, ctl, srv
}

// build is New on a card that flips bits at rate ber, with the
// server's controller handlers passed through wrap.
func build(t testing.TB, ber float64, depth int, wrap func(flashctl.Handlers) flashctl.Handlers) (*sim.Engine, *nand.Card, *flashctl.Controller, *Server) {
	t.Helper()
	eng := sim.NewEngine()
	_, guard := t.(*testing.T) // tests run under the image guard, benchmarks without
	card, err := nand.NewCard(eng, "c0", testGeometry(), nand.DefaultTiming(), nand.Reliability{BitErrorRate: ber, GuardImages: guard}, 3)
	if err != nil {
		t.Fatal(err)
	}
	srv := newServer(card, depth)
	ctl, err := flashctl.New(eng, card, flashctl.DefaultConfig(), wrap(srv.handlers()))
	if err != nil {
		t.Fatal(err)
	}
	srv.attach(ctl)
	return eng, card, ctl, srv
}

func pattern(n int, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = seed + byte(i*13)
	}
	return b
}

func TestServerWriteReadInOrder(t *testing.T) {
	eng, _, srv := stack(t, 8)
	iface := srv.NewIface()

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
	eng, _, srv := stack(t, 8)
	iface := srv.NewIface()

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
	eng, _, srv := stack(t, 8)
	a := srv.NewIface()
	b := srv.NewIface()
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

func TestQueueDepthBackpressure(t *testing.T) {
	eng, card, srv := stack(t, 2) // shallow queue
	iface := srv.NewIface()
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

func TestServerEraseAndRewrite(t *testing.T) {
	eng, _, srv := stack(t, 8)
	iface := srv.NewIface()
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
