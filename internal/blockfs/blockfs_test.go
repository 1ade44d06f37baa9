package blockfs

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/flashctl"
	"repro/internal/flashserver"
	"repro/internal/ftl"
	"repro/internal/nand"
	"repro/internal/reclaim"
	"repro/internal/sim"
)

type harness struct {
	eng *sim.Engine
	dev *ftl.FTL
	fs  *FS
}

func newHarness(t *testing.T) *harness {
	t.Helper()
	eng := sim.NewEngine()
	geo := nand.Geometry{
		Buses: 2, ChipsPerBus: 1, BlocksPerChip: 8, PagesPerBlock: 8,
		PageSize: 512, OOBSize: 64,
	}
	card, err := nand.NewCard(eng, "bfs", geo, nand.DefaultTiming(), nand.Reliability{}, 21)
	if err != nil {
		t.Fatal(err)
	}
	_, srv, err := flashserver.New(eng, card, flashctl.DefaultConfig(), 16)
	if err != nil {
		t.Fatal(err)
	}
	dev, err := ftl.New(reclaim.Card(srv.NewIface(), geo), geo, ftl.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return &harness{eng: eng, dev: dev, fs: New(dev)}
}

func (h *harness) appendPage(t *testing.T, f *File, data []byte) error {
	t.Helper()
	var result error = errors.New("pending")
	f.AppendPage(data, func(err error) { result = err })
	h.eng.Run()
	return result
}

func (h *harness) overwrite(t *testing.T, f *File, idx int, data []byte) error {
	t.Helper()
	var result error = errors.New("pending")
	f.WritePage(idx, data, func(err error) { result = err })
	h.eng.Run()
	return result
}

func (h *harness) readPage(t *testing.T, f *File, idx int) ([]byte, error) {
	t.Helper()
	var data []byte
	var result error = errors.New("pending")
	f.ReadPage(idx, func(d []byte, err error) { data, result = d, err })
	h.eng.Run()
	return data, result
}

func pg(seed byte) []byte {
	b := make([]byte, 512)
	for i := range b {
		b[i] = seed ^ byte(i)
	}
	return b
}

func TestCreateWriteReadRemove(t *testing.T) {
	h := newHarness(t)
	f, err := h.fs.Create("db.dat")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if err := h.appendPage(t, f, pg(byte(i))); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	for i := 0; i < 6; i++ {
		got, err := h.readPage(t, f, i)
		if err != nil || !bytes.Equal(got, pg(byte(i))) {
			t.Fatalf("page %d: %v", i, err)
		}
	}
	freeBefore := h.fs.FreePages()
	if err := h.fs.Remove("db.dat"); err != nil {
		t.Fatal(err)
	}
	// Six data pages plus the file's inode-table page come back.
	if h.fs.FreePages() != freeBefore+7 {
		t.Fatalf("free pages %d, want %d", h.fs.FreePages(), freeBefore+7)
	}
	if _, err := h.fs.Open("db.dat"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("open removed: %v", err)
	}
}

func TestInPlaceOverwrite(t *testing.T) {
	h := newHarness(t)
	f, _ := h.fs.Create("f")
	if err := h.appendPage(t, f, pg(1)); err != nil {
		t.Fatal(err)
	}
	for v := 2; v <= 5; v++ {
		if err := h.overwrite(t, f, 0, pg(byte(v))); err != nil {
			t.Fatalf("overwrite %d: %v", v, err)
		}
	}
	got, err := h.readPage(t, f, 0)
	if err != nil || !bytes.Equal(got, pg(5)) {
		t.Fatalf("latest version lost: %v", err)
	}
	if f.Pages() != 1 {
		t.Fatalf("in-place overwrite grew the file: %d pages", f.Pages())
	}
}

func TestVolumeFull(t *testing.T) {
	h := newHarness(t)
	f, _ := h.fs.Create("big")
	var lastErr error
	for i := 0; ; i++ {
		if err := h.appendPage(t, f, pg(byte(i))); err != nil {
			lastErr = err
			break
		}
		if i > 10000 {
			t.Fatal("volume never filled")
		}
	}
	if !errors.Is(lastErr, ErrNoSpace) && !errors.Is(lastErr, reclaim.ErrNoSpace) {
		t.Fatalf("fill error: %v", lastErr)
	}
}

func TestErrorsSurface(t *testing.T) {
	h := newHarness(t)
	f, _ := h.fs.Create("f")
	if _, err := h.readPage(t, f, 0); !errors.Is(err, ErrBadOffset) {
		t.Fatalf("read empty: %v", err)
	}
	if err := h.overwrite(t, f, 3, pg(0)); !errors.Is(err, ErrBadOffset) {
		t.Fatalf("sparse write: %v", err)
	}
	if _, err := h.fs.Create("f"); !errors.Is(err, ErrExists) {
		t.Fatalf("dup create: %v", err)
	}
	if err := h.fs.Remove("zz"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("remove missing: %v", err)
	}
	if got := h.fs.List(); len(got) != 1 || got[0] != "f" {
		t.Fatalf("list = %v", got)
	}
}

// TestFTLAbsorbsOverwrites shows the stack working as designed: the
// flash-oblivious FS overwrites in place, the FTL remaps and collects,
// and write amplification stays finite while data stays correct.
func TestFTLAbsorbsOverwrites(t *testing.T) {
	h := newHarness(t)
	f, _ := h.fs.Create("hot")
	// A wide working set: random overwrites leave blocks with mixed
	// valid/invalid pages, so the FTL's collector must relocate data.
	const filePages = 72
	for i := 0; i < filePages; i++ {
		if err := h.appendPage(t, f, pg(byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	rng := sim.NewRNG(2)
	latest := map[int]byte{}
	for i := 0; i < 300; i++ {
		idx := rng.Intn(filePages)
		v := byte(rng.Intn(250))
		if err := h.overwrite(t, f, idx, pg(v)); err != nil {
			t.Fatalf("overwrite %d: %v", i, err)
		}
		latest[idx] = v
	}
	for idx, v := range latest {
		got, err := h.readPage(t, f, idx)
		if err != nil || !bytes.Equal(got, pg(v)) {
			t.Fatalf("page %d: stale data after churn", idx)
		}
	}
	if h.dev.Log.Erases == 0 {
		t.Fatal("FTL never collected; churn too small")
	}
	wa := h.dev.WriteAmplification()
	if wa <= 1.0 || wa > 5 {
		t.Fatalf("write amplification %.2f implausible", wa)
	}
}
