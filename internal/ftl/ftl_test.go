package ftl

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/flashctl"
	"repro/internal/flashserver"
	"repro/internal/nand"
	"repro/internal/sim"
)

// harness provides a synchronous view of the FTL for tests: every call
// runs the event engine to completion.
type harness struct {
	eng  *sim.Engine
	card *nand.Card
	ftl  *FTL
}

func newHarness(t testing.TB, geo nand.Geometry, rel nand.Reliability, cfg Config) *harness {
	t.Helper()
	return newHarnessOver(t, geo, rel, cfg, func(b Backend) Backend { return b })
}

// newHarnessOver is newHarness with wrap sitting between the FTL and
// its flashserver backend.
func newHarnessOver(t testing.TB, geo nand.Geometry, rel nand.Reliability, cfg Config, wrap func(Backend) Backend) *harness {
	t.Helper()
	eng := sim.NewEngine()
	_, rel.GuardImages = t.(*testing.T) // tests run under the image guard, benchmarks without
	card, err := nand.NewCard(eng, "card", geo, nand.DefaultTiming(), rel, 11)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := card.CheckImages(); err != nil {
			t.Error(err)
		}
	})
	var sp *flashserver.Splitter
	ctl, err := flashctl.New(eng, card, flashctl.DefaultConfig(), flashctl.Handlers{
		ReadChunk:    func(tag, off int, chunk []byte, last bool) { sp.Handlers().ReadChunk(tag, off, chunk, last) },
		ReadDone:     func(tag, c int, err error) { sp.Handlers().ReadDone(tag, c, err) },
		WriteDataReq: func(tag int) { sp.Handlers().WriteDataReq(tag) },
		WriteDone:    func(tag int, err error) { sp.Handlers().WriteDone(tag, err) },
		EraseDone:    func(tag int, err error) { sp.Handlers().EraseDone(tag, err) },
	})
	if err != nil {
		t.Fatal(err)
	}
	sp = flashserver.NewSplitter(ctl)
	srv := flashserver.NewServer(sp, "ftl", 16)
	f, err := NewWithBackend(wrap(IfaceBackend(srv.NewIface("ftl"))), geo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return &harness{eng: eng, card: card, ftl: f}
}

func smallGeo() nand.Geometry {
	return nand.Geometry{
		Buses: 2, ChipsPerBus: 1, BlocksPerChip: 8, PagesPerBlock: 8,
		PageSize: 512, OOBSize: 64,
	}
}

func (h *harness) write(t testing.TB, lpn int, data []byte) error {
	t.Helper()
	var result error = errors.New("write never completed")
	h.ftl.Write(lpn, data, func(err error) { result = err })
	h.eng.Run()
	return result
}

func (h *harness) read(t testing.TB, lpn int) ([]byte, error) {
	t.Helper()
	var data []byte
	var result error = errors.New("read never completed")
	h.ftl.Read(lpn, func(d []byte, err error) { data, result = d, err })
	h.eng.Run()
	return data, result
}

func page(geo nand.Geometry, seed byte) []byte {
	b := make([]byte, geo.PageSize)
	for i := range b {
		b[i] = seed ^ byte(i*3)
	}
	return b
}

func TestWriteReadBack(t *testing.T) {
	h := newHarness(t, smallGeo(), nand.Reliability{}, DefaultConfig())
	for lpn := 0; lpn < 10; lpn++ {
		if err := h.write(t, lpn, page(smallGeo(), byte(lpn))); err != nil {
			t.Fatalf("write %d: %v", lpn, err)
		}
	}
	for lpn := 0; lpn < 10; lpn++ {
		got, err := h.read(t, lpn)
		if err != nil {
			t.Fatalf("read %d: %v", lpn, err)
		}
		if !bytes.Equal(got, page(smallGeo(), byte(lpn))) {
			t.Fatalf("lpn %d: wrong data", lpn)
		}
	}
}

func TestOverwriteRemaps(t *testing.T) {
	h := newHarness(t, smallGeo(), nand.Reliability{}, DefaultConfig())
	for v := 0; v < 5; v++ {
		if err := h.write(t, 3, page(smallGeo(), byte(0x40+v))); err != nil {
			t.Fatalf("overwrite %d: %v", v, err)
		}
	}
	got, err := h.read(t, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, page(smallGeo(), 0x44)) {
		t.Fatal("overwrite did not return latest version")
	}
	// 5 host writes, no GC expected yet: WA == 1.
	if wa := h.ftl.WriteAmplification(); wa != 1 {
		t.Fatalf("write amplification = %f, want 1.0", wa)
	}
}

func TestUnmappedAndRangeErrors(t *testing.T) {
	h := newHarness(t, smallGeo(), nand.Reliability{}, DefaultConfig())
	if _, err := h.read(t, 0); !errors.Is(err, ErrUnmapped) {
		t.Fatalf("read unmapped: %v", err)
	}
	if _, err := h.read(t, 1<<20); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("read out of range: %v", err)
	}
	if err := h.write(t, 1<<20, page(smallGeo(), 0)); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("write out of range: %v", err)
	}
	if err := h.write(t, 0, []byte{1}); !errors.Is(err, ErrDataSize) {
		t.Fatalf("short write: %v", err)
	}
}

func TestTrim(t *testing.T) {
	h := newHarness(t, smallGeo(), nand.Reliability{}, DefaultConfig())
	if err := h.write(t, 1, page(smallGeo(), 9)); err != nil {
		t.Fatal(err)
	}
	if err := h.ftl.Trim(1); err != nil {
		t.Fatal(err)
	}
	if _, err := h.read(t, 1); !errors.Is(err, ErrUnmapped) {
		t.Fatalf("read after trim: %v", err)
	}
	if err := h.ftl.Trim(1 << 20); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("trim out of range: %v", err)
	}
}

func TestGarbageCollectionReclaims(t *testing.T) {
	// Fill the logical space, then overwrite it several times: GC must
	// keep the device writable and data intact.
	geo := smallGeo()
	h := newHarness(t, geo, nand.Reliability{}, Config{OverProvision: 0.25, GCLowWater: 2, WearLevelEvery: 0})
	lpns := h.ftl.LogicalPages()
	version := make(map[int]byte)
	// Seed every page once, then overwrite in random order so blocks
	// hold mixed valid/invalid pages and GC must relocate data.
	for lpn := 0; lpn < lpns; lpn++ {
		if err := h.write(t, lpn, page(geo, byte(lpn))); err != nil {
			t.Fatalf("seed lpn %d: %v", lpn, err)
		}
		version[lpn] = byte(lpn)
	}
	rng := sim.NewRNG(99)
	for i := 0; i < 3*lpns; i++ {
		lpn := rng.Intn(lpns)
		v := byte(rng.Intn(256))
		if err := h.write(t, lpn, page(geo, v)); err != nil {
			t.Fatalf("random overwrite %d (lpn %d): %v", i, lpn, err)
		}
		version[lpn] = v
	}
	if h.ftl.FlashErases == 0 {
		t.Fatal("no GC happened despite 4x overwrite of full logical space")
	}
	if wa := h.ftl.WriteAmplification(); wa <= 1.0 {
		t.Fatalf("WA = %f, want > 1 after GC", wa)
	}
	for lpn := 0; lpn < lpns; lpn++ {
		got, err := h.read(t, lpn)
		if err != nil {
			t.Fatalf("post-GC read %d: %v", lpn, err)
		}
		if !bytes.Equal(got, page(geo, version[lpn])) {
			t.Fatalf("post-GC lpn %d: wrong data", lpn)
		}
	}
}

func TestWearLeveling(t *testing.T) {
	// Hammer a single logical page; wear-leveling passes must spread
	// erases beyond the handful of blocks greedy GC would reuse.
	geo := smallGeo()
	withWL := newHarness(t, geo, nand.Reliability{}, Config{OverProvision: 0.25, GCLowWater: 2, WearLevelEvery: 4})
	noWL := newHarness(t, geo, nand.Reliability{}, Config{OverProvision: 0.25, GCLowWater: 2, WearLevelEvery: 0})
	for _, h := range []*harness{withWL, noWL} {
		// Touch every logical page once so all blocks hold data.
		for lpn := 0; lpn < h.ftl.LogicalPages(); lpn++ {
			if err := h.write(t, lpn, page(geo, byte(lpn))); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 2000; i++ {
			if err := h.write(t, 0, page(geo, byte(i))); err != nil {
				t.Fatalf("hot write %d: %v", i, err)
			}
		}
	}
	// Skew must be substantially lower with static wear leveling: the
	// cold blocks re-enter circulation instead of pinning erases onto
	// the over-provisioning pool.
	if withWL.ftl.MaxEraseSkew()*2 > noWL.ftl.MaxEraseSkew() {
		t.Fatalf("wear leveling did not reduce skew enough: with=%d without=%d",
			withWL.ftl.MaxEraseSkew(), noWL.ftl.MaxEraseSkew())
	}
}

func TestBadBlockRetirement(t *testing.T) {
	geo := smallGeo()
	h := newHarness(t, geo, nand.Reliability{}, DefaultConfig())
	// Poison two blocks before any writes.
	h.card.MarkBad(nand.Addr{Bus: 0, Chip: 0, Block: 0})
	h.card.MarkBad(nand.Addr{Bus: 1, Chip: 0, Block: 3})
	for lpn := 0; lpn < h.ftl.LogicalPages()/2; lpn++ {
		if err := h.write(t, lpn, page(geo, byte(lpn))); err != nil {
			t.Fatalf("write with bad blocks present: %v", err)
		}
	}
	if h.ftl.BadBlocks == 0 {
		t.Fatal("bad blocks never detected")
	}
	for lpn := 0; lpn < h.ftl.LogicalPages()/2; lpn++ {
		got, err := h.read(t, lpn)
		if err != nil || !bytes.Equal(got, page(geo, byte(lpn))) {
			t.Fatalf("data lost around bad blocks: lpn %d err %v", lpn, err)
		}
	}
}

func TestDeviceFull(t *testing.T) {
	// A device with no invalid pages to collect must fail cleanly.
	geo := smallGeo()
	h := newHarness(t, geo, nand.Reliability{}, Config{OverProvision: 0.05, GCLowWater: 1, WearLevelEvery: 0})
	var lastErr error
	for lpn := 0; lpn < h.ftl.LogicalPages(); lpn++ {
		if err := h.write(t, lpn, page(geo, byte(lpn))); err != nil {
			lastErr = err
			break
		}
	}
	// With 5% OP on a tiny device this either fits exactly or errors
	// with ErrNoSpace; anything else (hang, corruption) is a bug.
	if lastErr != nil && !errors.Is(lastErr, ErrNoSpace) {
		t.Fatalf("unexpected failure: %v", lastErr)
	}
}

func TestConfigValidation(t *testing.T) {
	geo := smallGeo()
	if _, err := NewWithBackend(IfaceBackend(nil), geo, Config{OverProvision: 0.001}); err == nil {
		t.Fatal("tiny over-provisioning accepted")
	}
	if _, err := NewWithBackend(IfaceBackend(nil), nand.Geometry{}, DefaultConfig()); err == nil {
		t.Fatal("zero geometry accepted")
	}
}

// TestGCLowWaterBelowOneRefused: a low-water mark of 0 used to be
// raised to 1 without a word, so 0 and 1 ran identically. It is
// refused, and the error names the field.
func TestGCLowWaterBelowOneRefused(t *testing.T) {
	cfg := DefaultConfig()
	cfg.GCLowWater = 0
	_, err := NewWithBackend(IfaceBackend(nil), smallGeo(), cfg)
	if err == nil || !strings.Contains(err.Error(), "GCLowWater") {
		t.Fatalf("GCLowWater 0 built an FTL or was refused without naming the field: %v", err)
	}
}

// --- fake backend: deterministic, adversarially schedulable ----------

// fakeOp is one queued flash operation awaiting service.
type fakeOp struct {
	gc    bool // carried TagGC
	erase bool
	run   func()
}

// fakeBackend is an in-memory flash with explicit service control:
// operations queue until the test pumps them, so tests can interleave
// host I/O with GC relocation in adversarial orders. Erased/unwritten
// pages read as 0xFF, so a read that lands on a page GC erased under
// it is detectable as corruption.
type fakeBackend struct {
	geo   nand.Geometry
	pages map[nand.Addr][]byte
	bad   map[int]bool // linear block index -> programs fail ErrBadBlock
	queue []fakeOp
	sync  bool // service every op at issue time
}

func newFakeBackend(geo nand.Geometry, sync bool) *fakeBackend {
	return &fakeBackend{geo: geo, pages: make(map[nand.Addr][]byte), bad: make(map[int]bool), sync: sync}
}

// linearBlock flattens an address to the FTL's block index.
func (b *fakeBackend) linearBlock(a nand.Addr) int {
	return ((a.Bus*b.geo.ChipsPerBus)+a.Chip)*b.geo.BlocksPerChip + a.Block
}

func (b *fakeBackend) push(op fakeOp) {
	if b.sync {
		op.run()
		return
	}
	b.queue = append(b.queue, op)
}

// pump services queued ops FIFO until the queue is empty.
func (b *fakeBackend) pump() {
	for len(b.queue) > 0 {
		op := b.queue[0]
		b.queue = b.queue[1:]
		op.run()
	}
}

// pumpGCFirst adversarially services all GC-tagged ops (including new
// ones they spawn) before any host op: the worst case for a read that
// resolved its mapping early, because relocation and the erase land
// before the read is serviced.
func (b *fakeBackend) pumpGCFirst() {
	for len(b.queue) > 0 {
		idx := -1
		for i, op := range b.queue {
			if op.gc {
				idx = i
				break
			}
		}
		if idx < 0 {
			idx = 0
		}
		op := b.queue[idx]
		b.queue = append(b.queue[:idx], b.queue[idx+1:]...)
		op.run()
	}
}

func (b *fakeBackend) ReadPage(a nand.Addr, tag IOTag, cb func([]byte, error)) {
	b.push(fakeOp{gc: tag == TagGC, run: func() {
		data, ok := b.pages[a]
		if !ok {
			// Erased page: NAND reads back all-ones.
			data = bytes.Repeat([]byte{0xFF}, b.geo.PageSize)
		}
		out := make([]byte, len(data))
		copy(out, data)
		cb(out, nil)
	}})
}

func (b *fakeBackend) WritePage(a nand.Addr, data []byte, tag IOTag, cb func(error)) {
	buf := make([]byte, len(data))
	copy(buf, data)
	b.push(fakeOp{gc: tag == TagGC, run: func() {
		if b.bad[b.linearBlock(a)] {
			cb(nand.ErrBadBlock)
			return
		}
		b.pages[a] = buf
		cb(nil)
	}})
}

func (b *fakeBackend) EraseBlock(a nand.Addr, tag IOTag, cb func(error)) {
	b.push(fakeOp{gc: tag == TagGC, erase: true, run: func() {
		for addr := range b.pages {
			if addr.Bus == a.Bus && addr.Chip == a.Chip && addr.Block == a.Block {
				delete(b.pages, addr)
			}
		}
		cb(nil)
	}})
}

// syncWrite drives one write to completion on a sync fake backend.
func syncWrite(t *testing.T, f *FTL, lpn int, data []byte) error {
	t.Helper()
	var result error = errors.New("write never completed")
	f.Write(lpn, data, func(err error) { result = err })
	return result
}

// TestReadDuringRelocation is the regression test for the read/GC
// race: a read admitted while GC is relocating its page must return
// the page's content — the collector's erase must wait for it to
// drain even when every relocation op is serviced first — never the
// 0xFF pattern of the erased victim.
func TestReadDuringRelocation(t *testing.T) {
	geo := nand.Geometry{
		Buses: 1, ChipsPerBus: 1, BlocksPerChip: 8, PagesPerBlock: 4,
		PageSize: 64, OOBSize: 8,
	}
	be := newFakeBackend(geo, false)
	f, err := NewWithBackend(be, geo, Config{OverProvision: 0.25, GCLowWater: 2, WearLevelEvery: 0, GCPipeline: 2})
	if err != nil {
		t.Fatal(err)
	}
	lpns := f.LogicalPages()
	content := make(map[int][]byte)
	w := func(lpn int, seed byte) error {
		data := bytes.Repeat([]byte{seed}, geo.PageSize)
		var res error = errors.New("pending")
		f.Write(lpn, data, func(err error) { res = err })
		be.pump()
		if res == nil {
			content[lpn] = data
		}
		return res
	}
	for lpn := 0; lpn < lpns; lpn++ {
		if err := w(lpn, byte(lpn+1)); err != nil {
			t.Fatalf("seed %d: %v", lpn, err)
		}
	}
	// Overwrite until a write triggers a collection. The trigger is
	// synchronous inside the Write call, so gcActive is observable
	// before any backend op is serviced; the pending write completes
	// when the test pumps the backend below.
	rng := sim.NewRNG(7)
	var churnErrs []error
	for i := 0; i < 10*lpns && !f.gcActive; i++ {
		lpn := rng.Intn(lpns)
		data := bytes.Repeat([]byte{byte(0x10 + i)}, geo.PageSize)
		f.Write(lpn, data, func(err error) {
			if err != nil {
				churnErrs = append(churnErrs, err)
			}
		})
		content[lpn] = data
		if !f.gcActive {
			be.pump()
		}
	}
	if !f.gcActive {
		t.Fatal("never saw an active collection")
	}
	// Pick a logical page that currently lives in the victim block.
	victim := f.gcst.victim
	target := -1
	for lpn := 0; lpn < lpns; lpn++ {
		if ppn := f.l2p[lpn]; ppn >= 0 && f.blockOf(ppn) == victim {
			target = lpn
			break
		}
	}
	if target < 0 {
		t.Fatal("victim holds no mapped pages")
	}
	var got []byte
	var rerr error = errors.New("pending")
	f.Read(target, func(data []byte, err error) { got, rerr = data, err })
	// Adversarial service order: relocation and the erase complete
	// before any host read is serviced.
	be.pumpGCFirst()
	be.pump()
	if len(churnErrs) > 0 {
		t.Fatalf("churn write failed: %v", churnErrs[0])
	}
	if rerr != nil {
		t.Fatalf("read during relocation: %v", rerr)
	}
	if !bytes.Equal(got, content[target]) {
		t.Fatalf("read during relocation returned wrong data (erased-page garbage?): got %x want %x",
			got[:4], content[target][:4])
	}
}

// TestGCAbortFailsDeterministically is the regression test for the
// GC-abort livelock: when a collection cannot allocate relocation
// space and over-provisioning is exhausted, the triggering write must
// fail with ErrNoSpace instead of re-triggering the same doomed
// collection forever.
func TestGCAbortFailsDeterministically(t *testing.T) {
	geo := nand.Geometry{
		Buses: 1, ChipsPerBus: 1, BlocksPerChip: 8, PagesPerBlock: 4,
		PageSize: 64, OOBSize: 8,
	}
	be := newFakeBackend(geo, true)
	// 12.5% OP: 28 logical pages over 32 physical.
	f, err := NewWithBackend(be, geo, Config{OverProvision: 0.125, GCLowWater: 1, WearLevelEvery: 0, GCPipeline: 1})
	if err != nil {
		t.Fatal(err)
	}
	lpns := f.LogicalPages()
	if lpns != 28 {
		t.Fatalf("logical pages = %d, want 28", lpns)
	}
	for lpn := 0; lpn < lpns; lpn++ {
		if err := syncWrite(t, f, lpn, bytes.Repeat([]byte{byte(lpn + 1)}, geo.PageSize)); err != nil {
			t.Fatalf("seed %d: %v", lpn, err)
		}
	}
	// Spread overwrites across blocks so victims exist but reclaim
	// little; keep writing until the device reports it is full. The
	// old code looped startGC -> abort -> retry forever here.
	var lastErr error
	for i := 0; i < 4*lpns && lastErr == nil; i++ {
		lpn := (i * 4) % lpns
		lastErr = syncWrite(t, f, lpn, bytes.Repeat([]byte{byte(0x80 + i)}, geo.PageSize))
	}
	if !errors.Is(lastErr, ErrNoSpace) {
		t.Fatalf("exhausted device: got %v, want ErrNoSpace", lastErr)
	}
	if f.GCAborts == 0 {
		t.Fatal("expected at least one aborted collection before ErrNoSpace")
	}
	// Reads must still work after the failure.
	var got []byte
	var rerr error = errors.New("pending")
	f.Read(1, func(data []byte, err error) { got, rerr = data, err })
	if rerr != nil || got[0] != 2 {
		t.Fatalf("read after ErrNoSpace: %v (byte %x)", rerr, got[0])
	}
	// The stall must not be permanent: trimming pages shrinks victims'
	// relocation demand, so collection becomes possible again and the
	// device recovers without a rebuild.
	for lpn := 0; lpn < lpns/2; lpn++ {
		if err := f.Trim(lpn); err != nil {
			t.Fatal(err)
		}
	}
	if err := syncWrite(t, f, 0, bytes.Repeat([]byte{0x55}, geo.PageSize)); err != nil {
		t.Fatalf("write after trim on a stalled device: %v", err)
	}
	got, rerr = nil, errors.New("pending")
	f.Read(0, func(data []byte, err error) { got, rerr = data, err })
	if rerr != nil || got[0] != 0x55 {
		t.Fatalf("read after recovery: %v", rerr)
	}
}

// TestGCBadFrontierAborts: a GC relocation whose destination block
// turns out bad must abort the collection (retire, re-allocate, and
// fail the pass when the pool is dry) — never park its retry behind
// the collection that is waiting on it, which would deadlock the FTL.
func TestGCBadFrontierAborts(t *testing.T) {
	geo := nand.Geometry{
		Buses: 1, ChipsPerBus: 1, BlocksPerChip: 8, PagesPerBlock: 4,
		PageSize: 64, OOBSize: 8,
	}
	be := newFakeBackend(geo, true)
	f, err := NewWithBackend(be, geo, Config{OverProvision: 0.25, GCLowWater: 2, WearLevelEvery: 0, GCPipeline: 1})
	if err != nil {
		t.Fatal(err)
	}
	lpns := f.LogicalPages() // 24: blocks 0-5 after the fill, 6-7 free
	for lpn := 0; lpn < lpns; lpn++ {
		if err := syncWrite(t, f, lpn, bytes.Repeat([]byte{byte(lpn + 1)}, geo.PageSize)); err != nil {
			t.Fatalf("seed %d: %v", lpn, err)
		}
	}
	// Block 7 will be the last free block when the first collection
	// triggers; poisoning it makes the relocation's program fail after
	// the pool is empty, exercising the GC-tag bad-block retry path.
	be.bad[7] = true
	var lastErr error
	for i := 0; i < 4*lpns && lastErr == nil; i++ {
		lastErr = syncWrite(t, f, (i*4)%lpns, bytes.Repeat([]byte{byte(0x80 + i)}, geo.PageSize))
	}
	if !errors.Is(lastErr, ErrNoSpace) {
		t.Fatalf("bad GC frontier at exhaustion: got %v, want ErrNoSpace (a hang here is the deadlock)", lastErr)
	}
	if f.GCAborts == 0 {
		t.Fatal("expected the collection to abort")
	}
	if f.BadBlocks == 0 {
		t.Fatal("poisoned block never retired")
	}
	// Still-mapped pages remain readable.
	var rerr error = errors.New("pending")
	f.Read(1, func(_ []byte, err error) { rerr = err })
	if rerr != nil {
		t.Fatalf("read after aborted collection: %v", rerr)
	}
}

// TestWearPassHeadroomGate: with WearLevelEvery=1 every collection is
// a wear pass, which may pick an all-valid victim that reclaims zero
// net pages. Without the headroom gate this runs the free pool dry and
// wedges the device; with it, low-headroom collections fall back to
// greedy victims and a write-churn workload survives indefinitely.
func TestWearPassHeadroomGate(t *testing.T) {
	geo := nand.Geometry{
		Buses: 1, ChipsPerBus: 1, BlocksPerChip: 8, PagesPerBlock: 4,
		PageSize: 64, OOBSize: 8,
	}
	be := newFakeBackend(geo, true)
	f, err := NewWithBackend(be, geo, Config{OverProvision: 0.25, GCLowWater: 2, WearLevelEvery: 1, GCPipeline: 1})
	if err != nil {
		t.Fatal(err)
	}
	lpns := f.LogicalPages()
	for lpn := 0; lpn < lpns; lpn++ {
		if err := syncWrite(t, f, lpn, bytes.Repeat([]byte{byte(lpn)}, geo.PageSize)); err != nil {
			t.Fatalf("seed %d: %v", lpn, err)
		}
	}
	rng := sim.NewRNG(3)
	for i := 0; i < 500; i++ {
		if err := syncWrite(t, f, rng.Intn(lpns), bytes.Repeat([]byte{byte(i)}, geo.PageSize)); err != nil {
			t.Fatalf("churn write %d failed under all-wear-pass GC: %v", i, err)
		}
	}
	if f.GCAborts != 0 {
		t.Fatalf("%d aborted collections: wear passes ran the pool dry", f.GCAborts)
	}
	if f.gcCount == 0 {
		t.Fatal("no collections happened")
	}
}

// TestRetireBlockClearsActive: a retired block must not keep stale
// frontier state (isActive), or victim selection skips it forever and
// allocation may try to resume it.
func TestRetireBlockClearsActive(t *testing.T) {
	geo := smallGeo()
	be := newFakeBackend(geo, true)
	f, err := NewWithBackend(be, geo, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := syncWrite(t, f, 0, page(geo, 1)); err != nil {
		t.Fatal(err)
	}
	blk := int(f.actives[0])
	if blk < 0 {
		t.Fatal("no active frontier after a write")
	}
	f.retireBlock(blk)
	if f.blocks[blk].isActive {
		t.Fatal("retired block still marked active")
	}
	if f.actives[0] >= 0 {
		t.Fatal("retired block still installed as a frontier")
	}
	// Writes keep working on a fresh frontier.
	if err := syncWrite(t, f, 1, page(geo, 2)); err != nil {
		t.Fatalf("write after retirement: %v", err)
	}
}

// TestTaggedFrontiersAreDisjoint: two tags must never share a frontier
// block, so independently scheduled write streams cannot interleave
// programs inside one NAND block.
func TestTaggedFrontiersAreDisjoint(t *testing.T) {
	geo := smallGeo()
	be := newFakeBackend(geo, true)
	f, err := NewWithBackend(be, geo, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var werr error
	f.WriteTagged(0, page(geo, 1), 0, func(err error) { werr = err })
	if werr != nil {
		t.Fatal(werr)
	}
	f.WriteTagged(1, page(geo, 2), 1, func(err error) { werr = err })
	if werr != nil {
		t.Fatal(werr)
	}
	if f.actives[0] == f.actives[1] {
		t.Fatalf("tags 0 and 1 share frontier block %d", f.actives[0])
	}
	if f.blockOf(f.l2p[0]) == f.blockOf(f.l2p[1]) {
		t.Fatal("pages from different tags landed in the same block")
	}
}

// BenchmarkFreePoolAlloc measures the frontier-block allocate/free
// cycle that runs on every active-block allocation: a min-heap pop
// plus push over a large pool (formerly an O(n) scan per allocation).
func BenchmarkFreePoolAlloc(b *testing.B) {
	geo := nand.Geometry{
		Buses: 1, ChipsPerBus: 1, BlocksPerChip: 4096, PagesPerBlock: 4,
		PageSize: 64, OOBSize: 8,
	}
	be := newFakeBackend(geo, true)
	f, err := NewWithBackend(be, geo, DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	rng := sim.NewRNG(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blk := f.popLeastWorn()
		f.blocks[blk].erases += int64(rng.Intn(3))
		f.pushFree(blk)
	}
}

// Property: any random stream of write/trim ops leaves the FTL
// equivalent to an in-memory map, even with GC churn.
func TestFTLOracleProperty(t *testing.T) {
	geo := nand.Geometry{
		Buses: 1, ChipsPerBus: 1, BlocksPerChip: 6, PagesPerBlock: 4,
		PageSize: 64, OOBSize: 8,
	}
	prop := func(ops []uint16) bool {
		h := newHarness(t, geo, nand.Reliability{}, Config{OverProvision: 0.3, GCLowWater: 2, WearLevelEvery: 8})
		lpns := h.ftl.LogicalPages()
		oracle := make(map[int][]byte)
		for i, op := range ops {
			lpn := int(op) % lpns
			switch op % 3 {
			case 0, 1: // write
				data := bytes.Repeat([]byte{byte(i)}, geo.PageSize)
				if err := h.write(t, lpn, data); err != nil {
					if errors.Is(err, ErrNoSpace) {
						continue
					}
					return false
				}
				oracle[lpn] = data
			case 2: // trim
				if err := h.ftl.Trim(lpn); err != nil {
					return false
				}
				delete(oracle, lpn)
			}
		}
		for lpn := 0; lpn < lpns; lpn++ {
			want, ok := oracle[lpn]
			got, err := h.read(t, lpn)
			if !ok {
				if !errors.Is(err, ErrUnmapped) {
					return false
				}
				continue
			}
			if err != nil || !bytes.Equal(got, want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// burstChurner returns a func that overwrites, reads and trims at
// random in bursts of eight outstanding ops, so writes queue behind
// collections and relocations race the overwrites and trims of the
// pages they copy.
func burstChurner(t testing.TB, h *harness, img []byte, rng *sim.RNG) func(bursts int) {
	f := h.ftl
	ack := func(err error) {
		if err != nil {
			t.Error(err)
		}
	}
	got := func(_ []byte, err error) {
		if err != nil {
			t.Error(err)
		}
	}
	return func(bursts int) {
		for b := 0; b < bursts; b++ {
			for i := 0; i < 8; i++ {
				switch lpn := rng.Intn(f.LogicalPages()); rng.Intn(8) {
				case 0:
					if f.l2p[lpn] >= 0 { // a read of a trimmed page fails, allocating its error
						f.Read(lpn, got)
					}
				case 1:
					if err := f.Trim(lpn); err != nil {
						t.Error(err)
					}
				default:
					f.WriteImage(lpn, img, 1, ack)
				}
			}
			h.eng.Run()
		}
	}
}

// TestOverwriteUnderGCAllocatesNothing: an overwrite that hands its
// image down (WriteImage; one image serves every write, images being
// immutable) allocates nothing in steady-state GC — not even when it
// waits behind a collection: the queue it waits in keeps its storage
// from one collection to the next.
func TestOverwriteUnderGCAllocatesNothing(t *testing.T) {
	geo := smallGeo()
	h := newHarness(t, geo, nand.Reliability{}, Config{OverProvision: 0.25, GCLowWater: 2})
	churn(t, h, geo, 2*h.ftl.LogicalPages())
	f, churn := h.ftl, burstChurner(t, h, geo.PageImage(page(geo, 9)), sim.NewRNG(5))
	churn(64) // queues at their high-water mark
	gcs := f.gcCount
	if allocs := testing.AllocsPerRun(64, func() { churn(1) }); allocs != 0 {
		t.Fatalf("a burst of eight ops under GC allocates %.2f times, want none", allocs)
	}
	if f.gcCount == gcs || cap(f.pendingOps)+cap(f.spareOps) == 0 {
		t.Fatalf("test premise: %d collections, wait queue capacity %d", f.gcCount-gcs, cap(f.pendingOps)+cap(f.spareOps))
	}
}

// TestNANDReadsAreNamed: every NAND read the FTL causes is a host read
// or a relocation read, and every relocation read ends as a move, a
// dropped relocation (its page trimmed or overwritten mid-copy, or no
// destination) or a GC read fault. On a churning FTL with no faults the
// card's read count is exactly their sum.
func TestNANDReadsAreNamed(t *testing.T) {
	geo := smallGeo()
	h := newHarness(t, geo, nand.Reliability{}, Config{OverProvision: 0.25, GCLowWater: 2})
	churn(t, h, geo, h.ftl.LogicalPages())
	burstChurner(t, h, geo.PageImage(page(geo, 3)), sim.NewRNG(9))(400)
	f := h.ftl
	if f.GCDropped == 0 || f.GCMoves == 0 {
		t.Fatalf("test premise: %d moves, %d dropped relocations", f.GCMoves, f.GCDropped)
	}
	if reads, named := h.card.Reads.Value(), f.HostReads+f.GCMoves+f.GCDropped+f.GCReadFaults; reads != named {
		t.Fatalf("NAND reads %d, named %d: host %d + moves %d + dropped %d + GC read faults %d",
			reads, named, f.HostReads, f.GCMoves, f.GCDropped, f.GCReadFaults)
	}
}
