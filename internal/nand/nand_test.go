package nand

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func testGeometry() Geometry {
	return Geometry{
		Buses: 2, ChipsPerBus: 2, BlocksPerChip: 8, PagesPerBlock: 16,
		PageSize: 512, OOBSize: 64,
	}
}

func perfectCard(t *testing.T, eng *sim.Engine) *Card {
	t.Helper()
	c, err := NewCard(eng, "t", testGeometry(), DefaultTiming(), Reliability{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func mkRaw(c *Card, fill byte) []byte {
	raw := make([]byte, c.Geometry().StoredPageSize())
	for i := range raw {
		raw[i] = fill
	}
	return raw
}

func TestProgramReadRoundTrip(t *testing.T) {
	eng := sim.NewEngine()
	c := perfectCard(t, eng)
	a := Addr{Bus: 0, Chip: 0, Block: 0, Page: 0}
	raw := mkRaw(c, 0xab)
	var progErr error = errors.New("not called")
	c.ProgramPage(a, raw, func(err error) { progErr = err })
	eng.Run()
	if progErr != nil {
		t.Fatalf("program: %v", progErr)
	}
	var got []byte
	c.ReadPage(a, func(r []byte, err error) {
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		got = r
	})
	eng.Run()
	if !bytes.Equal(got, raw) {
		t.Fatal("read returned different bytes than programmed")
	}
}

func TestReadUnwrittenFails(t *testing.T) {
	eng := sim.NewEngine()
	c := perfectCard(t, eng)
	var gotErr error
	c.ReadPage(Addr{0, 0, 0, 0}, func(_ []byte, err error) { gotErr = err })
	eng.Run()
	if !errors.Is(gotErr, ErrReadFree) {
		t.Fatalf("err = %v, want ErrReadFree", gotErr)
	}
}

func TestProgramTwiceFails(t *testing.T) {
	eng := sim.NewEngine()
	c := perfectCard(t, eng)
	a := Addr{0, 0, 0, 0}
	c.ProgramPage(a, mkRaw(c, 1), func(err error) {
		if err != nil {
			t.Fatalf("first program: %v", err)
		}
	})
	eng.Run()
	var second error
	c.ProgramPage(a, mkRaw(c, 2), func(err error) { second = err })
	eng.Run()
	if !errors.Is(second, ErrNotErased) {
		t.Fatalf("second program err = %v, want ErrNotErased", second)
	}
}

func TestOutOfOrderProgramFails(t *testing.T) {
	eng := sim.NewEngine()
	c := perfectCard(t, eng)
	var gotErr error
	c.ProgramPage(Addr{0, 0, 0, 5}, mkRaw(c, 1), func(err error) { gotErr = err })
	eng.Run()
	if !errors.Is(gotErr, ErrOutOfOrder) {
		t.Fatalf("err = %v, want ErrOutOfOrder", gotErr)
	}
}

func TestEraseFreesBlock(t *testing.T) {
	eng := sim.NewEngine()
	c := perfectCard(t, eng)
	a := Addr{0, 0, 3, 0}
	c.ProgramPage(a, mkRaw(c, 7), func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	})
	eng.Run()
	c.EraseBlock(a, func(err error) {
		if err != nil {
			t.Fatalf("erase: %v", err)
		}
	})
	eng.Run()
	if c.Written(a) {
		t.Fatal("page not freed by erase")
	}
	if c.EraseCount(a) != 1 {
		t.Fatalf("erase count = %d, want 1", c.EraseCount(a))
	}
	// Reprogramming page 0 after erase works.
	var again error = errors.New("not called")
	c.ProgramPage(a, mkRaw(c, 9), func(err error) { again = err })
	eng.Run()
	if again != nil {
		t.Fatalf("reprogram after erase: %v", again)
	}
}

// TestReadTiming: a program costs the page and its check bytes on the
// bus, then the cell program; a read the cell read, then the bus. The
// check bytes cross the bus whether or not the image in memory carries
// them.
func TestReadTiming(t *testing.T) {
	g, tim := testGeometry(), DefaultTiming()
	// 576 B at the bus rate, plus its latency.
	wire := sim.Time(int64(g.StoredPageSize())*int64(sim.Second)/tim.BusBytesPerSec) + tim.BusLatency
	for _, n := range []int{g.PageSize, g.StoredPageSize()} {
		eng := sim.NewEngine()
		c := perfectCard(t, eng)
		a := Addr{0, 0, 0, 0}
		c.ProgramPage(a, make([]byte, n), func(error) {})
		eng.Run()
		if want := wire + tim.Program; eng.Now() != want {
			t.Fatalf("%d-byte image: program latency = %v, want %v", n, eng.Now(), want)
		}
		start := eng.Now()
		var done sim.Time
		c.ReadPage(a, func([]byte, error) { done = eng.Now() })
		eng.Run()
		if elapsed, want := done-start, tim.ReadPage+wire; elapsed != want {
			t.Fatalf("%d-byte image: read latency = %v, want %v", n, elapsed, want)
		}
	}
}

func TestChipSerialization(t *testing.T) {
	// Two reads on the same chip: the second cell read may start only
	// after the first one's register drains (modelled as cell-read end).
	eng := sim.NewEngine()
	c := perfectCard(t, eng)
	a := Addr{0, 0, 0, 0}
	b := Addr{0, 0, 0, 1}
	c.ProgramPage(a, mkRaw(c, 1), func(error) {})
	eng.Run()
	c.ProgramPage(b, mkRaw(c, 2), func(error) {})
	eng.Run()
	start := eng.Now()
	var t1, t2 sim.Time
	c.ReadPage(a, func([]byte, error) { t1 = eng.Now() - start })
	c.ReadPage(b, func([]byte, error) { t2 = eng.Now() - start })
	eng.Run()
	if t2 <= t1 {
		t.Fatalf("second read (%v) did not serialize after first (%v)", t2, t1)
	}
	// The second read's cell phase overlaps the first's bus transfer, so
	// it must NOT cost a full 2x.
	if t2 >= 2*t1 {
		t.Fatalf("no pipelining: t1=%v t2=%v", t1, t2)
	}
}

func TestBusParallelism(t *testing.T) {
	// Reads on different buses proceed fully in parallel.
	eng := sim.NewEngine()
	c := perfectCard(t, eng)
	a := Addr{Bus: 0, Chip: 0, Block: 0, Page: 0}
	b := Addr{Bus: 1, Chip: 0, Block: 0, Page: 0}
	for _, addr := range []Addr{a, b} {
		c.ProgramPage(addr, mkRaw(c, 3), func(error) {})
		eng.Run()
	}
	start := eng.Now()
	var t1, t2 sim.Time
	c.ReadPage(a, func([]byte, error) { t1 = eng.Now() - start })
	c.ReadPage(b, func([]byte, error) { t2 = eng.Now() - start })
	eng.Run()
	if t1 != t2 {
		t.Fatalf("parallel buses should finish together: %v vs %v", t1, t2)
	}
}

func TestCardBandwidthSaturation(t *testing.T) {
	// Saturating all buses of a card approaches Buses * BusBytesPerSec.
	// Uses full 8 KB pages: their 61 µs bus occupancy exceeds the 50 µs
	// cell read, so the bus — not the cell array — is the bottleneck,
	// as on the paper's flash board.
	eng := sim.NewEngine()
	geo := testGeometry()
	geo.PageSize = 8192
	geo.OOBSize = 1024
	c, err := NewCard(eng, "bw", geo, DefaultTiming(), Reliability{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Program every page of block 0 on every chip.
	pages := 0
	for bus := 0; bus < geo.Buses; bus++ {
		for chip := 0; chip < geo.ChipsPerBus; chip++ {
			for p := 0; p < geo.PagesPerBlock; p++ {
				c.ProgramPage(Addr{bus, chip, 0, p}, mkRaw(c, byte(p)), func(err error) {
					if err != nil {
						t.Errorf("program: %v", err)
					}
				})
				pages++
			}
		}
	}
	eng.Run()
	start := eng.Now()
	done := 0
	for bus := 0; bus < geo.Buses; bus++ {
		for chip := 0; chip < geo.ChipsPerBus; chip++ {
			for p := 0; p < geo.PagesPerBlock; p++ {
				c.ReadPage(Addr{bus, chip, 0, p}, func(_ []byte, err error) {
					if err != nil {
						t.Errorf("read: %v", err)
					}
					done++
				})
			}
		}
	}
	eng.Run()
	if done != pages {
		t.Fatalf("completed %d of %d reads", done, pages)
	}
	elapsed := (eng.Now() - start).Seconds()
	bw := float64(pages*geo.StoredPageSize()) / elapsed
	max := float64(geo.Buses) * float64(DefaultTiming().BusBytesPerSec)
	if bw > max {
		t.Fatalf("achieved %.0f B/s exceeds physical max %.0f", bw, max)
	}
	// With 2 chips/bus and 16 deep queues the bus should be well used.
	if bw < 0.5*max {
		t.Fatalf("achieved %.0f B/s, expected at least half of %.0f", bw, max)
	}
}

func TestBadBlockRejectsOps(t *testing.T) {
	eng := sim.NewEngine()
	c := perfectCard(t, eng)
	a := Addr{0, 0, 2, 0}
	c.MarkBad(a)
	if !c.IsBad(a) {
		t.Fatal("MarkBad did not stick")
	}
	var pErr, rErr, eErr error
	c.ProgramPage(a, mkRaw(c, 1), func(err error) { pErr = err })
	c.ReadPage(a, func(_ []byte, err error) { rErr = err })
	c.EraseBlock(a, func(err error) { eErr = err })
	eng.Run()
	for name, err := range map[string]error{"program": pErr, "read": rErr, "erase": eErr} {
		if !errors.Is(err, ErrBadBlock) {
			t.Errorf("%s err = %v, want ErrBadBlock", name, err)
		}
	}
}

func TestWearOut(t *testing.T) {
	eng := sim.NewEngine()
	geo := testGeometry()
	rel := Reliability{EnduranceCycles: 10, WearOutProb: 1.0}
	c, err := NewCard(eng, "wear", geo, DefaultTiming(), rel, 1)
	if err != nil {
		t.Fatal(err)
	}
	a := Addr{0, 0, 0, 0}
	var lastErr error
	erases := 0
	for i := 0; i < 12; i++ {
		c.EraseBlock(a, func(err error) { lastErr = err; erases++ })
		eng.Run()
		if lastErr != nil {
			break
		}
	}
	if !errors.Is(lastErr, ErrBadBlock) {
		t.Fatalf("block should wear out after endurance: err=%v after %d erases", lastErr, erases)
	}
	if erases != 11 {
		t.Fatalf("wore out after %d erases, want 11 (10 endurance + 1)", erases)
	}
}

func TestBitErrorInjection(t *testing.T) {
	eng := sim.NewEngine()
	geo := testGeometry()
	rel := Reliability{BitErrorRate: 1e-3} // aggressive: ~4.6 flips/page
	c, err := NewCard(eng, "err", geo, DefaultTiming(), rel, 7)
	if err != nil {
		t.Fatal(err)
	}
	a := Addr{0, 0, 0, 0}
	raw := mkRaw(c, 0x55)
	c.ProgramPage(a, raw, func(error) {})
	eng.Run()
	flipsSeen := 0
	for i := 0; i < 20; i++ {
		c.ReadPage(a, func(got []byte, err error) {
			if err != nil {
				t.Fatal(err)
			}
			for j := range got {
				if got[j] != raw[j] {
					flipsSeen++
				}
			}
		})
		eng.Run()
	}
	if flipsSeen == 0 {
		t.Fatal("no bit errors injected at rate 1e-3")
	}
	// The stored image must remain pristine (errors are read-path only).
	if !bytes.Equal(c.Peek(a), raw) {
		t.Fatal("stored image was corrupted")
	}
}

func TestAddrConversionRoundTrip(t *testing.T) {
	eng := sim.NewEngine()
	c := perfectCard(t, eng)
	geo := c.Geometry()
	prop := func(idx uint32) bool {
		i := int(idx) % geo.TotalPages()
		return c.geo.PageIndex(c.geo.AddrOf(i)) == i
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestBadAddressRejected(t *testing.T) {
	eng := sim.NewEngine()
	c := perfectCard(t, eng)
	bad := []Addr{
		{Bus: -1}, {Bus: 99}, {Chip: 99}, {Block: 99}, {Page: 99},
	}
	for _, a := range bad {
		var gotErr error
		c.ReadPage(a, func(_ []byte, err error) { gotErr = err })
		eng.Run()
		if !errors.Is(gotErr, ErrBadAddress) {
			t.Errorf("addr %v: err = %v, want ErrBadAddress", a, gotErr)
		}
	}
}

func TestWrongSizeProgramRejected(t *testing.T) {
	eng := sim.NewEngine()
	c := perfectCard(t, eng)
	var gotErr error
	c.ProgramPage(Addr{0, 0, 0, 0}, make([]byte, 10), func(err error) { gotErr = err })
	eng.Run()
	if !errors.Is(gotErr, ErrWrongDataSize) {
		t.Fatalf("err = %v, want ErrWrongDataSize", gotErr)
	}
}

func TestGeometryMath(t *testing.T) {
	g := testGeometry()
	if g.TotalPages() != 2*2*8*16 {
		t.Fatalf("TotalPages = %d", g.TotalPages())
	}
	if g.TotalBytes() != int64(g.TotalPages())*512 {
		t.Fatalf("TotalBytes = %d", g.TotalBytes())
	}
	if g.StoredPageSize() != 576 {
		t.Fatalf("StoredPageSize = %d", g.StoredPageSize())
	}
	if err := (Geometry{}).Validate(); err == nil {
		t.Fatal("zero geometry validated")
	}
}

// Property: any sequence of in-order programs and erases keeps the card
// consistent with a trivial in-memory model.
func TestProgramEraseOracleProperty(t *testing.T) {
	prop := func(ops []uint8) bool {
		eng := sim.NewEngine()
		geo := Geometry{Buses: 1, ChipsPerBus: 1, BlocksPerChip: 2, PagesPerBlock: 4, PageSize: 8, OOBSize: 0}
		c, err := NewCard(eng, "oracle", geo, DefaultTiming(), Reliability{}, 1)
		if err != nil {
			return false
		}
		type blockModel struct {
			next int
			data [4][]byte
		}
		var model [2]blockModel
		ok := true
		for i, op := range ops {
			blk := int(op>>1) % 2
			if op&1 == 0 { // program next page if room
				bm := &model[blk]
				if bm.next >= 4 {
					continue
				}
				page := bm.next
				raw := bytes.Repeat([]byte{byte(i)}, 8)
				c.ProgramPage(Addr{0, 0, blk, page}, raw, func(err error) {
					if err != nil {
						ok = false
					}
				})
				bm.data[page] = raw
				bm.next++
			} else { // erase
				c.EraseBlock(Addr{0, 0, blk, 0}, func(err error) {
					if err != nil {
						ok = false
					}
				})
				model[blk] = blockModel{}
			}
			eng.Run()
		}
		// Verify contents.
		for blk := range model {
			for p := 0; p < 4; p++ {
				a := Addr{0, 0, blk, p}
				want := model[blk].data[p]
				if want == nil {
					if c.Written(a) {
						return false
					}
					continue
				}
				if !bytes.Equal(c.Peek(a), want) {
					return false
				}
			}
		}
		return ok
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestProgramAdoptsReadSnapshots pins the ownership rules the zero-copy
// flash path rests on. ProgramPage adopts raw: the stored image IS the
// caller's buffer (no copy), which is why callers must give it away. A
// read that draws no bit error delivers that stored image itself, the
// same to every reader; only a read that draws flips snapshots — a
// private copy with the flips applied, the stored image untouched.
func TestProgramAdoptsReadSnapshots(t *testing.T) {
	for _, ber := range []float64{0, 1e-2} { // no read draws a flip; every read draws dozens
		eng := sim.NewEngine()
		c, err := NewCard(eng, "own", testGeometry(), DefaultTiming(), Reliability{BitErrorRate: ber, GuardImages: true}, 1)
		if err != nil {
			t.Fatal(err)
		}
		a := Addr{Bus: 0, Chip: 0, Block: 0, Page: 0}
		raw := mkRaw(c, 0x3c)
		c.ProgramPage(a, raw, func(err error) {
			if err != nil {
				t.Fatalf("program: %v", err)
			}
		})
		eng.Run()
		if stored := c.Peek(a); &stored[0] != &raw[0] {
			t.Fatal("ProgramPage copied raw; it must adopt the caller's buffer as the stored image")
		}
		first, second := readRaw(t, eng, c, a), readRaw(t, eng, c, a)
		if ber == 0 {
			if &first[0] != &raw[0] || &second[0] != &raw[0] {
				t.Fatal("a clean read delivered a copy of the stored image")
			}
			continue
		}
		if &first[0] == &raw[0] || &second[0] == &raw[0] || &first[0] == &second[0] {
			t.Fatal("a read that drew flips handed out the stored image, or shared its copy with another read")
		}
		if bytes.Equal(first, raw) || bytes.Equal(second, raw) || c.InjectedFlips.Value() == 0 {
			t.Fatal("no flips were applied to the copies")
		}
		if !bytes.Equal(c.Peek(a), mkRaw(c, 0x3c)) || c.CheckImages() != nil {
			t.Fatal("applying a read's flips changed the stored image")
		}
	}
}

// TestImageGuard: with Reliability.GuardImages on, every operation that
// touches a stored image a holder has written to — a read, the erase or
// Replace that drops it, CheckImages — fails there, naming the page and
// itself, in a fresh block as in one whose page table outlived an
// erase. Rewriting an image with the bytes it holds is not a change.
func TestImageGuard(t *testing.T) {
	a := Addr{Bus: 1, Chip: 0, Block: 2, Page: 0}
	ops := map[string]func(*sim.Engine, *Card){
		"read":    func(eng *sim.Engine, c *Card) { c.ReadPage(a, func([]byte, error) {}); eng.Run() },
		"erase":   func(eng *sim.Engine, c *Card) { c.EraseBlock(a, func(error) {}); eng.Run() },
		"Replace": func(_ *sim.Engine, c *Card) { c.Replace() },
		"CheckImages": func(_ *sim.Engine, c *Card) {
			if err := c.CheckImages(); err != nil {
				panic(err)
			}
		},
	}
	for name, op := range ops {
		for _, reused := range []bool{false, true} {
			eng := sim.NewEngine()
			c, err := NewCard(eng, "guard", testGeometry(), DefaultTiming(), Reliability{GuardImages: true}, 1)
			if err != nil {
				t.Fatal(err)
			}
			if reused {
				c.ProgramPage(a, mkRaw(c, 0x10), func(error) {})
				c.EraseBlock(a, func(error) {})
			}
			raw := mkRaw(c, 0x11)
			c.ProgramPage(a, raw, func(error) {})
			eng.Run()
			raw[40] = 0x11
			if readRaw(t, eng, c, a); c.CheckImages() != nil {
				t.Fatal("the guard tripped on an image nobody changed")
			}
			raw[40] ^= 0x80
			func() {
				defer func() {
					msg := fmt.Sprint(recover())
					if !strings.Contains(msg, a.String()) || !strings.Contains(msg, "found by "+name) {
						t.Errorf("%s of a scribbled image (reused table %v): %q; want a failure naming %v and %s", name, reused, msg, a, name)
					}
				}()
				op(eng, c)
			}()
		}
	}
}

// TestImageGuardAtProgram: the guard's checksum is taken where
// ProgramPage adopts the image, not where the program stores it, so a
// holder that writes to an image it has handed down trips the program
// itself, naming the page, before anyone can read it.
func TestImageGuardAtProgram(t *testing.T) {
	eng := sim.NewEngine()
	c, err := NewCard(eng, "guard", testGeometry(), DefaultTiming(), Reliability{GuardImages: true}, 1)
	if err != nil {
		t.Fatal(err)
	}
	a := Addr{Bus: 1, Chip: 1, Block: 3, Page: 0}
	raw := mkRaw(c, 0x22)
	c.ProgramPage(a, raw, func(err error) { t.Errorf("a scribbled program completed: %v", err) })
	eng.RunUntil(eng.Now() + c.tim.Program/2) // on its way to the cells
	raw[7] ^= 0x01
	defer func() {
		msg := fmt.Sprint(recover())
		if !strings.Contains(msg, a.String()) || !strings.Contains(msg, "found by program") {
			t.Fatalf("program of a scribbled image: %q; want a failure naming %v and the program", msg, a)
		}
	}()
	eng.Run()
}

// TestSealLifecycle: a page is sealed while it stores a page-length
// image. Such an image carries no check bytes, so a read of it that
// draws flips gets them filled into its copy by the registered encoder,
// before the flips land. A StoredPageSize image is read with the check
// bytes it carries, and a seal does not outlive its image: after the
// erase of its block, or Replace, a StoredPageSize image programmed at
// the same address is read as what it is. State never shows the seal.
func TestSealLifecycle(t *testing.T) {
	eng := sim.NewEngine()
	c, err := NewCard(eng, "noisy", testGeometry(), DefaultTiming(), Reliability{BitErrorRate: 1e-3}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if c.Guarded() {
		t.Fatal("Guarded reports a guard the card does not run")
	}
	g := c.Geometry()
	c.SetEncoder(func(raw []byte) error { // marks every check byte it fills
		for i := g.PageSize; i < len(raw); i++ {
			raw[i] = 0xee
		}
		return nil
	})
	program := func(a Addr, raw []byte) {
		c.ProgramPage(a, raw, func(err error) {
			if err != nil {
				t.Fatal(err)
			}
		})
		eng.Run()
	}
	// filled reads a until a read draws flips and reports whether most
	// of the copy's check bytes are the encoder's.
	filled := func(a Addr) bool {
		for {
			before := c.InjectedFlips.Value()
			raw := readRaw(t, eng, c, a)
			if c.InjectedFlips.Value() == before {
				continue
			}
			if len(raw) != g.StoredPageSize() {
				t.Fatalf("a read that drew flips delivered %d bytes, want %d", len(raw), g.StoredPageSize())
			}
			return bytes.Count(raw[g.PageSize:], []byte{0xee}) > g.OOBSize/2
		}
	}
	a, b := Addr{Block: 1}, Addr{Block: 1, Page: 1}
	program(a, bytes.Repeat([]byte{5}, g.PageSize))
	program(b, mkRaw(c, 5))
	if !filled(a) || !c.Written(a) {
		t.Fatalf("page-length image: filled %v, written %v", filled(a), c.Written(a))
	}
	if filled(b) {
		t.Fatal("the check bytes a StoredPageSize image carries were overwritten")
	}
	c.EraseBlock(a, func(error) {})
	eng.Run()
	if program(a, mkRaw(c, 6)); filled(a) {
		t.Fatal("the erase left the page sealed")
	}
	c.Replace()
	program(a, bytes.Repeat([]byte{7}, g.PageSize))
	c.Replace()
	if program(a, mkRaw(c, 7)); filled(a) {
		t.Fatal("Replace left the page sealed")
	}
}
