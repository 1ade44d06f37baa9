package ftl

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"repro/internal/alloctest"
	"repro/internal/flashctl"
	"repro/internal/flashserver"
	"repro/internal/nand"
	"repro/internal/reclaim"
	"repro/internal/sim"
)

// harness provides a synchronous view of the FTL for tests: every call
// runs the event engine to completion.
type harness struct {
	eng  *sim.Engine
	card *nand.Card
	ftl  *FTL
}

// newHarness builds an FTL over a card's flashserver interface. When
// the test ends, the FTL's log must have drained and its mapping must
// hold (reclaim.Log.Check).
func newHarness(t testing.TB, geo nand.Geometry, rel nand.Reliability, cfg Config) *harness {
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
	_, srv, err := flashserver.New(eng, card, flashctl.DefaultConfig(), 16)
	if err != nil {
		t.Fatal(err)
	}
	f, err := New(reclaim.Card(srv.NewIface(), geo), geo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := f.Log.Check(); err != nil {
			t.Error(err)
		}
	})
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
	if err := h.write(t, 0, []byte{1}); !errors.Is(err, flashctl.ErrDataSize) {
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
	if h.ftl.Log.Erases == 0 {
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
	if h.ftl.Log.BadUnits == 0 {
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
	// with reclaim.ErrNoSpace; anything else (hang, corruption) is a bug.
	if lastErr != nil && !errors.Is(lastErr, reclaim.ErrNoSpace) {
		t.Fatalf("unexpected failure: %v", lastErr)
	}
}

func TestConfigValidation(t *testing.T) {
	geo := smallGeo()
	if _, err := New(nil, geo, Config{OverProvision: 0.001}); err == nil {
		t.Fatal("tiny over-provisioning accepted")
	}
	if _, err := New(nil, nand.Geometry{}, DefaultConfig()); err == nil {
		t.Fatal("zero geometry accepted")
	}
}

// --- fake port: deterministic, adversarially schedulable -------------

// fakeOp is one queued flash operation awaiting service.
type fakeOp struct {
	gc  bool // the log's own: a move's read or program, or an erase
	run func()
}

// fakePort is an in-memory flash with explicit service control:
// operations queue until the test pumps them, so tests can interleave
// host I/O with GC relocation in adversarial orders. Erased/unwritten
// pages read as 0xFF, so a read that lands on a page GC erased under
// it is detectable as corruption.
type fakePort struct {
	geo   nand.Geometry
	pages map[int][]byte
	bad   map[int]bool // block index -> programs fail ErrBadBlock
	queue []fakeOp
	sync  bool // service every op at issue time
}

func newFakePort(geo nand.Geometry, sync bool) *fakePort {
	return &fakePort{geo: geo, pages: make(map[int][]byte), bad: make(map[int]bool), sync: sync}
}

func (b *fakePort) push(op fakeOp) {
	if b.sync {
		op.run()
		return
	}
	b.queue = append(b.queue, op)
}

// pump services queued ops FIFO until the queue is empty.
func (b *fakePort) pump() {
	for len(b.queue) > 0 {
		op := b.queue[0]
		b.queue = b.queue[1:]
		op.run()
	}
}

func (b *fakePort) Read(ppn int, tag uint8, cb func([]byte, error)) {
	b.push(fakeOp{gc: tag == uint8(TagGC), run: func() {
		data, ok := b.pages[ppn]
		if !ok {
			// Erased page: NAND reads back all-ones.
			data = bytes.Repeat([]byte{0xFF}, b.geo.PageSize)
		}
		cb(append([]byte(nil), data...), nil)
	}})
}

func (b *fakePort) Program(ppn int, tag uint8, data []byte, cb func(error)) {
	buf := append([]byte(nil), data...)
	b.push(fakeOp{gc: tag == uint8(TagGC), run: func() {
		if b.bad[ppn/b.geo.PagesPerBlock] {
			cb(nand.ErrBadBlock)
			return
		}
		b.pages[ppn] = buf
		cb(nil)
	}})
}

func (b *fakePort) Erase(ppn int, cb func(error)) {
	b.push(fakeOp{gc: true, run: func() {
		for p := ppn; p < ppn+b.geo.PagesPerBlock; p++ {
			delete(b.pages, p)
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

// TestGCBadFrontierAborts: a GC relocation whose destination block
// turns out bad must abort the collection (retire, re-allocate, and
// fail the pass when the pool is dry) — never park its retry behind
// the collection that is waiting on it, which would deadlock the FTL.
func TestGCBadFrontierAborts(t *testing.T) {
	geo := nand.Geometry{
		Buses: 1, ChipsPerBus: 1, BlocksPerChip: 8, PagesPerBlock: 4,
		PageSize: 64, OOBSize: 8,
	}
	be := newFakePort(geo, true)
	f, err := New(be, geo, Config{OverProvision: 0.25, GCLowWater: 2, WearLevelEvery: 0, GCPipeline: 1})
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
	if !errors.Is(lastErr, reclaim.ErrNoSpace) {
		t.Fatalf("bad GC frontier at exhaustion: got %v, want reclaim.ErrNoSpace (a hang here is the deadlock)", lastErr)
	}
	if f.Log.Aborts == 0 {
		t.Fatal("expected the collection to abort")
	}
	if f.Log.BadUnits == 0 {
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
	be := newFakePort(geo, true)
	f, err := New(be, geo, Config{OverProvision: 0.25, GCLowWater: 2, WearLevelEvery: 1, GCPipeline: 1})
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
	if f.Log.Aborts != 0 {
		t.Fatalf("%d aborted collections: wear passes ran the pool dry", f.Log.Aborts)
	}
	if f.Log.Passes == 0 {
		t.Fatal("no collections happened")
	}
}

// TestRetireBlockClearsActive: a frontier block retired when a
// program on it fails must not keep stale frontier state (Active), or
// victim selection skips it forever and allocation may try to resume
// it: the tag's next write opens a fresh frontier and lands there.
func TestRetireBlockClearsActive(t *testing.T) {
	geo := smallGeo()
	be := newFakePort(geo, true)
	f, err := New(be, geo, DefaultConfig())
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
	be.bad[blk] = true
	if err := syncWrite(t, f, 1, page(geo, 2)); err != nil {
		t.Fatalf("write onto a block gone bad: %v", err)
	}
	if u := f.Log.Units[blk]; u.Active || !u.Bad {
		t.Fatalf("retired block: active %v, bad %v", u.Active, u.Bad)
	}
	if int(f.actives[0]) == blk || f.l2p[1]/geo.PagesPerBlock == blk {
		t.Fatal("the retired block is still the tag's frontier")
	}
}

// TestTaggedFrontiersAreDisjoint: two tags must never share a frontier
// block, so independently scheduled write streams cannot interleave
// programs inside one NAND block.
func TestTaggedFrontiersAreDisjoint(t *testing.T) {
	geo := smallGeo()
	be := newFakePort(geo, true)
	f, err := New(be, geo, DefaultConfig())
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
	if f.l2p[0]/geo.PagesPerBlock == f.l2p[1]/geo.PagesPerBlock {
		t.Fatal("pages from different tags landed in the same block")
	}
}

// BenchmarkFreePoolAlloc measures the frontier-block allocate/free
// cycle that runs on every active-block allocation: a min-heap pop
// plus push over a large pool (formerly an O(n) scan per allocation),
// on a card of 8 buses so ties rotate over chips. 0 B/op.
func BenchmarkFreePoolAlloc(b *testing.B) {
	geo := nand.Geometry{
		Buses: 8, ChipsPerBus: 1, BlocksPerChip: 512, PagesPerBlock: 4,
		PageSize: 64, OOBSize: 8,
	}
	be := newFakePort(geo, true)
	f, err := New(be, geo, DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	rng := sim.NewRNG(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blk := f.popLeastWorn()
		f.erases[blk] += int64(rng.Intn(3))
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
					if errors.Is(err, reclaim.ErrNoSpace) {
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
// from one collection to the next (reclaim's TestNestedDrainsKeepTheQueue
// pins the two backing arrays).
func TestOverwriteUnderGCAllocatesNothing(t *testing.T) {
	geo := smallGeo()
	h := newHarness(t, geo, nand.Reliability{}, Config{OverProvision: 0.25, GCLowWater: 2})
	churn(t, h, geo, 2*h.ftl.LogicalPages())
	f, churn := h.ftl, burstChurner(t, h, geo.PageImage(page(geo, 9)), sim.NewRNG(5))
	churn(64) // queues at their high-water mark
	gcs := f.Log.Passes
	if allocs := alloctest.Mallocs(64, func() { churn(1) }); allocs != 0 {
		t.Fatalf("64 bursts of eight ops under GC allocate %d times, want none", allocs)
	}
	if f.Log.Passes == gcs {
		t.Fatal("test premise: no collection")
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
	l := h.ftl.Log
	if l.Dropped == 0 || l.Moves == 0 {
		t.Fatalf("test premise: %d moves, %d dropped relocations", l.Moves, l.Dropped)
	}
	if reads, named := h.card.Reads.Value(), l.Reads+l.Moves+l.Dropped+l.MoveReadFaults; reads != named {
		t.Fatalf("NAND reads %d, named %d: host %d + moves %d + dropped %d + GC read faults %d",
			reads, named, l.Reads, l.Moves, l.Dropped, l.MoveReadFaults)
	}
}

func lpnPage(geo nand.Geometry, lpn, version int) []byte {
	p := make([]byte, geo.PageSize)
	for i := range p {
		p[i] = byte(lpn*31 + version*7 + i)
	}
	return p
}

// TestSynchronousCollectionsNest: over a port that completes every op
// inline, a collection runs whole inside the write that triggers it,
// and a write drained from behind one collection can trigger the next,
// whose drain then runs inside the first. The queue's two backing
// arrays must never be handed to both drains: every write lands, and
// the last version of every page reads back.
func TestSynchronousCollectionsNest(t *testing.T) {
	geo := nand.Geometry{
		Buses: 1, ChipsPerBus: 1, BlocksPerChip: 8, PagesPerBlock: 4,
		PageSize: 32, OOBSize: 4,
	}
	f, err := New(newFakePort(geo, true), geo, Config{OverProvision: 0.3, GCLowWater: 2, GCPipeline: 4})
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
	if f.Log.Passes < 10 {
		t.Fatalf("test premise: %d collections", f.Log.Passes)
	}
	for lpn, v := range last {
		f.Read(lpn, func(d []byte, err error) {
			if err != nil || !bytes.Equal(d, lpnPage(geo, lpn, v)) {
				t.Fatalf("lpn %d: err %v, not version %d", lpn, err, v)
			}
		})
	}
	if err := f.Log.Check(); err != nil {
		t.Fatal(err)
	}
}

// checkFreeHeap fails the test unless the free pool is a valid min-heap
// under freeLess: no block orders before its parent.
func checkFreeHeap(t *testing.T, f *FTL, when string) {
	t.Helper()
	for i := 1; i < len(f.freePool); i++ {
		if p := (i - 1) / 2; f.freeLess(f.freePool[i], f.freePool[p]) {
			t.Fatalf("%s: free pool slot %d (block %d) orders before its parent slot %d (block %d)",
				when, i, f.freePool[i], p, f.freePool[p])
		}
	}
}

// TestFreePoolRotatesOverChips: New lays the pool out sorted under
// freeLess (so no heapify), the first pops take block 0 of every chip
// before any chip's block 1, and the pool stays a valid heap through a
// churn that runs greedy and wear-leveling passes.
func TestFreePoolRotatesOverChips(t *testing.T) {
	geo := nand.Geometry{
		Buses: 4, ChipsPerBus: 2, BlocksPerChip: 8, PagesPerBlock: 8,
		PageSize: 512, OOBSize: 64,
	}
	f, err := New(newFakePort(geo, true), geo, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	checkFreeHeap(t, f, "after New")
	chips := geo.Buses * geo.ChipsPerBus
	for i := range chips {
		if blk := f.popLeastWorn(); blk%geo.BlocksPerChip != 0 || blk/geo.BlocksPerChip != i {
			t.Fatalf("pop %d: block %d (chip %d, block %d), want block 0 of chip %d",
				i, blk, blk/geo.BlocksPerChip, blk%geo.BlocksPerChip, i)
		}
	}

	h := newHarness(t, geo, nand.Reliability{}, Config{OverProvision: 0.25, GCLowWater: 2, WearLevelEvery: 2})
	f = h.ftl
	checkFreeHeap(t, f, "after New")
	rng := sim.NewRNG(3)
	for i := 0; i < 4*f.LogicalPages(); i++ {
		if err := h.write(t, rng.Intn(f.LogicalPages()), page(geo, byte(i))); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		checkFreeHeap(t, f, "during the churn")
	}
	if f.wearPass == 0 {
		t.Fatal("test premise: no wear pass ran")
	}
}

// TestEraseSkewUnderRotation: rotating equal-wear blocks over chips
// keeps wear as even as the block-index tie-break did. An 8-bus card of
// 32-page blocks, filled and then overwritten at random 40× its logical
// space, ends with a max − min erase count (the worst of three seeds)
// within one of what that order read: 2, 3 and 6 at 2, 8 and 32 blocks
// per chip (rotation reads 3, 4 and 6).
func TestEraseSkewUnderRotation(t *testing.T) {
	for _, c := range []struct{ blocksPerChip, maxSkew int }{{2, 3}, {8, 4}, {32, 7}} {
		geo := nand.Geometry{
			Buses: 8, ChipsPerBus: 1, BlocksPerChip: c.blocksPerChip, PagesPerBlock: 32,
			PageSize: 16, OOBSize: 2,
		}
		var worst int64
		for seed := uint64(1); seed <= 3; seed++ {
			f, err := New(newFakePort(geo, true), geo, DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			lpns := f.LogicalPages()
			img := page(geo, 1)
			for lpn := 0; lpn < lpns; lpn++ {
				if err := syncWrite(t, f, lpn, img); err != nil {
					t.Fatal(err)
				}
			}
			rng := sim.NewRNG(seed)
			for i := 0; i < 40*lpns; i++ {
				if err := syncWrite(t, f, rng.Intn(lpns), img); err != nil {
					t.Fatal(err)
				}
			}
			worst = max(worst, f.MaxEraseSkew())
		}
		if worst > int64(c.maxSkew) {
			t.Errorf("BlocksPerChip %d: erase skew %d, want at most %d", c.blocksPerChip, worst, c.maxSkew)
		}
	}
}
