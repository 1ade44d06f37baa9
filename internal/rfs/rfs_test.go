package rfs

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"repro/internal/flashctl"
	"repro/internal/flashserver"
	"repro/internal/nand"
	"repro/internal/reclaim"
	"repro/internal/sim"
)

func smallGeo() nand.Geometry {
	return nand.Geometry{
		Buses: 2, ChipsPerBus: 1, BlocksPerChip: 8, PagesPerBlock: 8,
		PageSize: 512, OOBSize: 64,
	}
}

type harness struct {
	eng  *sim.Engine
	fs   *FS
	srv  *flashserver.Server
	card *nand.Card
}

// newHarness builds a file system over a card's flashserver interface.
// When the test ends, the file system's log must have drained and its
// mapping must hold (reclaim.Log.Check).
func newHarness(t testing.TB, geo nand.Geometry) *harness {
	t.Helper()
	r := newCardRig(t, geo)
	fs, err := New(r.srv.NewIface(), geo, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := fs.Log.Check(); err != nil {
			t.Error(err)
		}
	})
	return &harness{eng: r.eng, fs: fs, srv: r.srv, card: r.card}
}

// cardRig is one card behind a flashserver: the engine, the card
// (under the image guard in a test, not in a benchmark), the server and
// a port of a log over it.
type cardRig struct {
	eng  *sim.Engine
	card *nand.Card
	srv  *flashserver.Server
	port reclaim.Port
}

func newCardRig(t testing.TB, geo nand.Geometry) *cardRig {
	t.Helper()
	eng := sim.NewEngine()
	_, guard := t.(*testing.T)
	card, err := nand.NewCard(eng, "card", geo, nand.DefaultTiming(), nand.Reliability{GuardImages: guard}, 5)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := card.CheckImages(); err != nil {
			t.Error(err)
		}
	})
	_, srv, err := flashserver.New(eng, card, flashctl.DefaultConfig(), 16)
	if err != nil {
		t.Fatal(err)
	}
	return &cardRig{eng: eng, card: card, srv: srv, port: reclaim.Card(srv.NewIface(), geo)}
}

func (h *harness) appendPage(t testing.TB, f *File, data []byte) error {
	t.Helper()
	var result error = errors.New("append never completed")
	f.AppendPage(data, func(err error) { result = err })
	h.eng.Run()
	return result
}

func (h *harness) readPage(t testing.TB, f *File, idx int) ([]byte, error) {
	t.Helper()
	var data []byte
	var result error = errors.New("read never completed")
	f.ReadPage(idx, func(d []byte, err error) { data, result = d, err })
	h.eng.Run()
	return data, result
}

func pg(geo nand.Geometry, seed byte) []byte {
	b := make([]byte, geo.PageSize)
	for i := range b {
		b[i] = seed + byte(i)
	}
	return b
}

func TestCreateWriteRead(t *testing.T) {
	geo := smallGeo()
	h := newHarness(t, geo)
	f, err := h.fs.Create("data.bin")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := h.appendPage(t, f, pg(geo, byte(i))); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if f.Pages() != 5 {
		t.Fatalf("pages = %d", f.Pages())
	}
	for i := 0; i < 5; i++ {
		got, err := h.readPage(t, f, i)
		if err != nil || !bytes.Equal(got, pg(geo, byte(i))) {
			t.Fatalf("page %d: err=%v", i, err)
		}
	}
}

func TestOpenAndList(t *testing.T) {
	h := newHarness(t, smallGeo())
	for _, name := range []string{"b", "a", "c"} {
		if _, err := h.fs.Create(name); err != nil {
			t.Fatal(err)
		}
	}
	names := h.fs.List()
	if len(names) != 3 || names[0] != "a" || names[1] != "b" || names[2] != "c" {
		t.Fatalf("list = %v", names)
	}
	if _, err := h.fs.Open("b"); err != nil {
		t.Fatal(err)
	}
	if _, err := h.fs.Open("zz"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("open missing: %v", err)
	}
	if _, err := h.fs.Create("a"); !errors.Is(err, ErrExists) {
		t.Fatalf("duplicate create: %v", err)
	}
}

func TestOverwritePage(t *testing.T) {
	geo := smallGeo()
	h := newHarness(t, geo)
	f, _ := h.fs.Create("f")
	if err := h.appendPage(t, f, pg(geo, 1)); err != nil {
		t.Fatal(err)
	}
	var werr error = errors.New("pending")
	f.WritePage(0, pg(geo, 2), func(err error) { werr = err })
	h.eng.Run()
	if werr != nil {
		t.Fatal(werr)
	}
	got, err := h.readPage(t, f, 0)
	if err != nil || !bytes.Equal(got, pg(geo, 2)) {
		t.Fatalf("overwrite lost: err=%v", err)
	}
}

func TestRemoveInvalidatesAndReclaims(t *testing.T) {
	geo := smallGeo()
	h := newHarness(t, geo)
	// Fill most of the FS, remove it all, then write again: cleaning
	// must reclaim the dead segments.
	for round := 0; round < 6; round++ {
		f, err := h.fs.Create("tmp")
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 30; i++ {
			if err := h.appendPage(t, f, pg(geo, byte(i))); err != nil {
				t.Fatalf("round %d append %d: %v", round, i, err)
			}
		}
		if err := h.fs.Remove("tmp"); err != nil {
			t.Fatal(err)
		}
	}
	if h.fs.SegsCleaned == 0 {
		t.Fatal("cleaner never ran despite 6x fill/remove")
	}
}

func TestPhysicalAddrs(t *testing.T) {
	geo := smallGeo()
	h := newHarness(t, geo)
	f, _ := h.fs.Create("scan.dat")
	for i := 0; i < 6; i++ {
		if err := h.appendPage(t, f, pg(geo, byte(0x30+i))); err != nil {
			t.Fatal(err)
		}
	}
	addrs, err := f.PhysicalAddrs()
	if err != nil {
		t.Fatal(err)
	}
	if len(addrs) != 6 {
		t.Fatalf("addrs = %d", len(addrs))
	}
	// Log-structured allocation must stripe across both buses.
	buses := map[int]bool{}
	for _, a := range addrs {
		buses[a.Addr.Bus] = true
	}
	if len(buses) < 1 {
		t.Fatal("no addresses at all")
	}
	// An address is where the page is: reading it through the flash
	// server, as an in-store engine does, returns the page.
	var got []byte
	h.srv.NewIface().ReadPhysical(addrs[3].Addr, func(d []byte, err error) {
		if err != nil {
			t.Error(err)
		}
		got = d
	})
	h.eng.Run()
	if !bytes.Equal(got, pg(geo, 0x33)) {
		t.Fatal("page 3's physical address holds another page")
	}
}

func TestCleaningPreservesData(t *testing.T) {
	geo := smallGeo()
	h := newHarness(t, geo)
	keep, _ := h.fs.Create("keep")
	for i := 0; i < 10; i++ {
		if err := h.appendPage(t, keep, pg(geo, byte(0x50+i))); err != nil {
			t.Fatal(err)
		}
	}
	// Churn temp files until cleaning has definitely moved pages.
	for round := 0; round < 12 && h.fs.CleanMoves == 0; round++ {
		name := "churn"
		f, err := h.fs.Create(name)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 20; i++ {
			if err := h.appendPage(t, f, pg(geo, byte(i))); err != nil {
				t.Fatalf("churn write: %v", err)
			}
		}
		if err := h.fs.Remove(name); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		got, err := h.readPage(t, keep, i)
		if err != nil || !bytes.Equal(got, pg(geo, byte(0x50+i))) {
			t.Fatalf("kept file corrupted at page %d after cleaning (moves=%d): %v",
				i, h.fs.CleanMoves, err)
		}
	}
}

func TestReadErrors(t *testing.T) {
	geo := smallGeo()
	h := newHarness(t, geo)
	f, _ := h.fs.Create("f")
	if _, err := h.readPage(t, f, 0); !errors.Is(err, ErrBadOffset) {
		t.Fatalf("read empty file: %v", err)
	}
	var werr error
	f.WritePage(5, pg(geo, 0), func(err error) { werr = err })
	h.eng.Run()
	if !errors.Is(werr, ErrBadOffset) {
		t.Fatalf("sparse write: %v", werr)
	}
	var serr error
	f.AppendPage([]byte{1, 2}, func(err error) { serr = err })
	h.eng.Run()
	if !errors.Is(serr, flashctl.ErrDataSize) {
		t.Fatalf("short append: %v", serr)
	}
}

func TestFillToCapacity(t *testing.T) {
	geo := smallGeo() // 128 pages total
	h := newHarness(t, geo)
	f, _ := h.fs.Create("big")
	var lastErr error
	n := 0
	for i := 0; i < 200; i++ {
		if err := h.appendPage(t, f, pg(geo, byte(i))); err != nil {
			lastErr = err
			break
		}
		n++
	}
	if !errors.Is(lastErr, reclaim.ErrNoSpace) {
		t.Fatalf("expected ErrNoSpace, got %v after %d pages", lastErr, n)
	}
	// Everything written before the failure must still read back.
	for i := 0; i < n; i++ {
		got, err := h.readPage(t, f, i)
		if err != nil || !bytes.Equal(got, pg(geo, byte(i))) {
			t.Fatalf("page %d lost after device filled", i)
		}
	}
}

// Property: a random series of creates/appends/overwrites/removes
// matches an in-memory oracle.
func TestFSOracleProperty(t *testing.T) {
	geo := nand.Geometry{
		Buses: 1, ChipsPerBus: 1, BlocksPerChip: 8, PagesPerBlock: 4,
		PageSize: 64, OOBSize: 8,
	}
	names := []string{"a", "b", "c"}
	prop := func(ops []uint16) bool {
		h := newHarness(t, geo)
		oracle := map[string][][]byte{}
		for i, op := range ops {
			name := names[int(op)%len(names)]
			switch op % 4 {
			case 0: // create
				_, err := h.fs.Create(name)
				if _, exists := oracle[name]; exists {
					if !errors.Is(err, ErrExists) {
						return false
					}
				} else if err == nil {
					oracle[name] = [][]byte{}
				} else {
					return false
				}
			case 1, 2: // append
				pages, ok := oracle[name]
				if !ok {
					continue
				}
				f, err := h.fs.Open(name)
				if err != nil {
					return false
				}
				data := bytes.Repeat([]byte{byte(i)}, geo.PageSize)
				var werr error = errors.New("pending")
				f.AppendPage(data, func(err error) { werr = err })
				h.eng.Run()
				if werr != nil {
					if errors.Is(werr, reclaim.ErrNoSpace) {
						// The failed append left a hole at the end; the
						// oracle drops it like the FS reports it.
						oracle[name] = append(pages, nil)
						continue
					}
					return false
				}
				oracle[name] = append(pages, data)
			case 3: // remove
				_, ok := oracle[name]
				err := h.fs.Remove(name)
				if ok && err != nil {
					return false
				}
				if !ok && !errors.Is(err, ErrNotFound) {
					return false
				}
				delete(oracle, name)
			}
		}
		// Verify all surviving contents.
		for name, pages := range oracle {
			f, err := h.fs.Open(name)
			if err != nil {
				return false
			}
			for idx, want := range pages {
				got, err := h.readPage(t, f, idx)
				if want == nil {
					if err == nil {
						return false
					}
					continue
				}
				if err != nil || !bytes.Equal(got, want) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestWriteToRemovedFileFails: a handle on a removed file fails its
// appends and overwrites with ErrNotFound before anything is
// programmed; nothing of the file comes back.
func TestWriteToRemovedFileFails(t *testing.T) {
	geo := smallGeo()
	h := newHarness(t, geo)
	f, err := h.fs.Create("gone")
	if err != nil {
		t.Fatal(err)
	}
	if err := h.appendPage(t, f, pg(geo, 1)); err != nil {
		t.Fatal(err)
	}
	if err := h.fs.Remove("gone"); err != nil {
		t.Fatal(err)
	}
	programs := h.fs.Log.Programs
	if err := h.appendPage(t, f, pg(geo, 2)); !errors.Is(err, ErrNotFound) {
		t.Fatalf("append to a removed file: %v", err)
	}
	var werr error = errors.New("overwrite never completed")
	f.WritePage(0, pg(geo, 3), func(err error) { werr = err })
	h.eng.Run()
	if !errors.Is(werr, ErrNotFound) {
		t.Fatalf("overwrite of a removed file: %v", werr)
	}
	if h.fs.Log.Programs != programs || f.Pages() != 0 || h.fs.LiveMappings() != 0 {
		t.Fatalf("%d programs, %d pages, %d live mappings after writes to a removed file",
			h.fs.Log.Programs-programs, f.Pages(), h.fs.LiveMappings())
	}
}
