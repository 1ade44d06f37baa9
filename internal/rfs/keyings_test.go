package rfs

// The page log's rules, run on both of its keyings: the FTL (one log
// per card keyed by logical page) and this file system (one log keyed
// by inode and page). Each test is one table over the two, so a rule
// the log keeps is checked once, through the code both layers ship,
// with each layer's own frontiers, pools and pass depth. The tests of
// one keying's own policies stay with it.

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"repro/internal/alloctest"
	"repro/internal/core"
	"repro/internal/ftl"
	"repro/internal/nand"
	"repro/internal/reclaim"
	"repro/internal/sched"
	"repro/internal/sim"
)

// heldPort is a scripted flash under a log: an in-memory page store
// whose ops complete at issue while sync is set, and otherwise wait in
// pending for the test to complete them in any order it likes. An erase
// issued while a read or a program of its unit is pending is an error
// of the test: the log erased under an op in flight.
type heldPort struct {
	t       testing.TB
	pages   int            // per unit
	store   map[int][]byte // ppn -> page
	bad     map[int]bool   // units whose programs fail with nand.ErrBadBlock
	badMove int            // the next badMove move programs fail so, their units going bad
	sync    bool
	pending []heldOp
}

type heldOp struct {
	kind string // "read", "write", "erase"
	ppn  int
	move bool // the log's own: a move's read or program, or an erase
	data []byte
	rcb  func([]byte, error)
	wcb  func(error)
}

func newHeldPort(t testing.TB, geo nand.Geometry) *heldPort {
	return &heldPort{t: t, pages: geo.PagesPerBlock, store: map[int][]byte{}, bad: map[int]bool{}, sync: true}
}

func (p *heldPort) Read(ppn int, tag uint8, cb func([]byte, error)) {
	p.issue(heldOp{kind: "read", ppn: ppn, move: tag == reclaim.TagMove, rcb: cb})
}

func (p *heldPort) Program(ppn int, tag uint8, img []byte, cb func(error)) {
	p.issue(heldOp{kind: "write", ppn: ppn, move: tag == reclaim.TagMove, data: append([]byte(nil), img...), wcb: cb})
}

func (p *heldPort) Erase(ppn int, cb func(error)) {
	for _, q := range p.pending {
		if q.kind != "erase" && q.ppn/p.pages == ppn/p.pages {
			p.t.Errorf("erase of unit %d issued with a %s of page %d in flight", ppn/p.pages, q.kind, q.ppn)
		}
	}
	p.issue(heldOp{kind: "erase", ppn: ppn, move: true, wcb: cb})
}

func (p *heldPort) issue(op heldOp) {
	if p.sync {
		p.complete(op)
		return
	}
	p.pending = append(p.pending, op)
}

func (p *heldPort) complete(op heldOp) {
	unit := op.ppn / p.pages
	switch op.kind {
	case "read":
		data, ok := p.store[op.ppn]
		if !ok {
			// Reading an erased or never-written page is the data-loss
			// symptom the erase-drain rule exists to prevent.
			op.rcb(nil, fmt.Errorf("held: read of dead page %d", op.ppn))
			return
		}
		op.rcb(append([]byte(nil), data...), nil)
	case "write":
		if op.move && p.badMove > 0 {
			p.badMove--
			p.bad[unit] = true
		}
		if p.bad[unit] {
			op.wcb(nand.ErrBadBlock)
			return
		}
		p.store[op.ppn] = op.data
		op.wcb(nil)
	case "erase":
		for ppn := unit * p.pages; ppn < (unit+1)*p.pages; ppn++ {
			delete(p.store, ppn)
		}
		op.wcb(nil)
	}
}

// pop completes the first pending op of the kind that is (or is not)
// the log's own, failing the test if none is pending.
func (p *heldPort) pop(t *testing.T, kind string, move bool) {
	t.Helper()
	for i, op := range p.pending {
		if op.kind == kind && op.move == move {
			p.pending = append(p.pending[:i:i], p.pending[i+1:]...)
			p.complete(op)
			return
		}
	}
	t.Fatalf("no pending %s (move=%v); pending: %+v", kind, move, p.pending)
}

// has reports whether an op of the kind is pending.
func (p *heldPort) has(kind string) bool {
	for _, op := range p.pending {
		if op.kind == kind {
			return true
		}
	}
	return false
}

// drain completes every pending op, FIFO, until none remain.
func (p *heldPort) drain() {
	for len(p.pending) > 0 {
		op := p.pending[0]
		p.pending = p.pending[1:]
		p.complete(op)
	}
}

// drainMovesFirst completes the log's own ops (and those they spawn)
// before any other: the worst case for a read that resolved its mapping
// early, because the moves and the erase land before it.
func (p *heldPort) drainMovesFirst() {
	for len(p.pending) > 0 {
		i := 0
		for j, op := range p.pending {
			if op.move {
				i = j
				break
			}
		}
		op := p.pending[i]
		p.pending = append(p.pending[:i:i], p.pending[i+1:]...)
		p.complete(op)
	}
}

// moveVictim returns the unit the first pending move read is from, or
// -1.
func (p *heldPort) moveVictim() int {
	for _, op := range p.pending {
		if op.kind == "read" && op.move {
			return op.ppn / p.pages
		}
	}
	return -1
}

// keyed is one keying of a page log seen by key alone: a test writes,
// reads and kills keys, and checks the log.
type keyed struct {
	name  string
	log   *reclaim.Log
	keys  int
	run   func() // drains the engine under the port; nil for a held port
	write func(key int, data []byte, cb func(error))
	read  func(key int, cb func([]byte, error))
	kill  func(key int)     // trim or remove
	at    func(key int) int // the ppn key maps to, -1 for none
}

// logConfig is what a test sets on either keying: the low-water mark,
// the FTL's pass depth (the file system's is 1), and the FTL's
// over-provisioning, which also sizes the file system's key space.
type logConfig struct {
	lowWater, depth int
	op              float64
}

// keying builds one keying of a log over a port and a card's geometry.
type keying func(t testing.TB, port reclaim.Port, geo nand.Geometry, c logConfig) *keyed

// ftlKeyed is an FTL: key = logical page, kill = Trim.
func ftlKeyed(t testing.TB, port reclaim.Port, geo nand.Geometry, c logConfig) *keyed {
	f, err := ftl.New(port, geo, ftl.Config{OverProvision: c.op, GCLowWater: c.lowWater, GCPipeline: c.depth})
	if err != nil {
		t.Fatal(err)
	}
	return &keyed{
		name: "ftl", log: f.Log, keys: f.LogicalPages(), write: f.Write, read: f.Read,
		kill: func(key int) {
			if err := f.Trim(key); err != nil {
				t.Fatal(err)
			}
		},
		at: func(key int) int {
			a, err := f.Phys(key)
			if err != nil {
				return -1
			}
			return geo.PageIndex(a)
		},
	}
}

// rfsKeyed is a file system of one-page files: key k = page 0 of file
// "k", created at its first write; kill = Remove.
func rfsKeyed(t testing.TB, port reclaim.Port, geo nand.Geometry, c logConfig) *keyed {
	fs, err := newFS(port, geo, 1, 1, 1, Config{CleanLowWater: c.lowWater})
	if err != nil {
		t.Fatal(err)
	}
	return fileKeyed(t, fs, int(float64(geo.TotalPages())*(1-c.op)))
}

// fileKeyed sees fs as keys files of one page each.
func fileKeyed(t testing.TB, fs *FS, keys int) *keyed {
	files := make([]*File, keys)
	return &keyed{
		name: "rfs", log: fs.Log, keys: keys,
		write: func(key int, data []byte, cb func(error)) {
			if files[key] == nil {
				f, err := fs.Create(strconv.Itoa(key))
				if err != nil {
					t.Fatal(err)
				}
				files[key] = f
			}
			files[key].WritePage(0, data, cb)
		},
		read: func(key int, cb func([]byte, error)) {
			if files[key] == nil {
				cb(nil, ErrNotFound)
				return
			}
			files[key].ReadPage(0, cb)
		},
		kill: func(key int) {
			if files[key] != nil {
				if err := fs.Remove(files[key].Name()); err != nil {
					t.Fatal(err)
				}
				files[key] = nil
			}
		},
		at: func(key int) int {
			if files[key] == nil || files[key].Pages() == 0 {
				return -1
			}
			return fs.inodes[files[key].ino].pages[0]
		},
	}
}

// eachKeying runs test once per keying, each a subtest.
func eachKeying(t *testing.T, test func(t *testing.T, mk keying)) {
	for _, k := range []struct {
		name string
		mk   keying
	}{{"ftl", ftlKeyed}, {"rfs", rfsKeyed}} {
		t.Run(k.name, func(t *testing.T) { test(t, k.mk) })
	}
}

// syncWrite writes key on a synchronous port and returns the outcome.
func (k *keyed) syncWrite(key int, data []byte) error {
	err := errors.New("write never completed")
	k.write(key, data, func(e error) { err = e })
	if k.run != nil {
		k.run()
	}
	return err
}

// syncRead reads key on a synchronous port.
func (k *keyed) syncRead(key int) ([]byte, error) {
	var data []byte
	err := errors.New("read never completed")
	k.read(key, func(d []byte, e error) { data, err = d, e })
	if k.run != nil {
		k.run()
	}
	return data, err
}

// checkKeys reads every key of want back on a synchronous port.
func (k *keyed) checkKeys(t *testing.T, want map[int][]byte) {
	t.Helper()
	for key, w := range want {
		if got, err := k.syncRead(key); err != nil || !bytes.Equal(got, w) {
			t.Fatalf("%s key %d: err %v, wrong data", k.name, key, err)
		}
	}
}

func fill(geo nand.Geometry, seed byte) []byte { return bytes.Repeat([]byte{seed}, geo.PageSize) }

// TestEraseWaitsForInflightReads: a read admitted while a pass is
// relocating its page returns the page's content: the victim erase
// waits for it to drain even when every move, and the erase, is
// serviced before it — never the erased victim's nothing.
func TestEraseWaitsForInflightReads(t *testing.T) {
	geo := nand.Geometry{Buses: 1, ChipsPerBus: 1, BlocksPerChip: 8, PagesPerBlock: 4, PageSize: 64, OOBSize: 8}
	eachKeying(t, func(t *testing.T, mk keying) {
		p := newHeldPort(t, geo)
		k := mk(t, p, geo, logConfig{lowWater: 2, depth: 2, op: 0.25})
		content := map[int][]byte{}
		for key := 0; key < k.keys; key++ {
			if err := k.syncWrite(key, fill(geo, byte(key+1))); err != nil {
				t.Fatalf("seed %d: %v", key, err)
			}
			content[key] = fill(geo, byte(key+1))
		}
		// Overwrite until a write starts a pass. It starts inside the
		// write, and with every earlier program complete it reads its
		// first pages at once, so its victim is known before anything
		// is serviced; the write waits behind it.
		p.sync = false
		rng := sim.NewRNG(7)
		last := -1
		var churnErrs []error
		for i := 0; i < 10*k.keys && k.log.Passes == 0; i++ {
			last = rng.Intn(k.keys)
			data := fill(geo, byte(0x10+i))
			k.write(last, data, func(err error) {
				if err != nil {
					churnErrs = append(churnErrs, err)
				}
			})
			content[last] = data
			if k.log.Passes == 0 {
				p.drain()
			}
		}
		victim := p.moveVictim()
		if victim < 0 {
			t.Fatal("test premise: no pass is moving a page")
		}
		target := -1
		for key := 0; key < k.keys && target < 0; key++ {
			if ppn := k.at(key); key != last && ppn >= 0 && ppn/geo.PagesPerBlock == victim {
				target = key
			}
		}
		if target < 0 {
			t.Fatal("test premise: the victim holds no key but the waiting write's")
		}
		var got []byte
		rerr := errors.New("pending")
		k.read(target, func(d []byte, err error) { got, rerr = d, err })
		p.drainMovesFirst()
		if len(churnErrs) > 0 {
			t.Fatalf("churn write failed: %v", churnErrs[0])
		}
		if rerr != nil || !bytes.Equal(got, content[target]) {
			t.Fatalf("read during relocation: err %v, wrong data (the erased victim's?)", rerr)
		}
		if k.log.Erases == 0 {
			t.Fatal("test premise: the victim was never erased")
		}
		p.sync = true
		k.checkKeys(t, content)
		if err := k.log.Check(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestCleanVictimWaitsForItsPrograms: a sealed unit whose writes are
// still programming holds no valid page yet, so it is the cheapest
// victim — and the pass must wait for those programs, and for their
// mappings, before it scans it. Otherwise it finds the unit empty,
// erases it, and the mappings land on flash that no longer holds them.
func TestCleanVictimWaitsForItsPrograms(t *testing.T) {
	geo := nand.Geometry{Buses: 1, ChipsPerBus: 1, BlocksPerChip: 4, PagesPerBlock: 4, PageSize: 16, OOBSize: 4}
	eachKeying(t, func(t *testing.T, mk keying) {
		p := newHeldPort(t, geo)
		// Depth 4 (the FTL's): the scan must sweep past a still-pending
		// page in its wake-up pass rather than park on an earlier one.
		k := mk(t, p, geo, logConfig{lowWater: 1, depth: 4, op: 0.25})
		want := map[int][]byte{}
		for key := 0; key < 4; key++ { // unit 0, sealed and all valid
			if err := k.syncWrite(key, fill(geo, byte(key))); err != nil {
				t.Fatal(err)
			}
			want[key] = fill(geo, byte(key))
		}
		// Held writes seal the next unit with nothing valid in it yet and
		// open another, until one finds the pool at the low-water mark.
		p.sync = false
		var errs []error
		for i := 0; k.log.Passes == 0; i++ {
			if i == 2*k.keys {
				t.Fatal("test premise: no pass started")
			}
			key, data := (4+i)%k.keys, fill(geo, byte(0x40+i))
			k.write(key, data, func(err error) { errs = append(errs, err) })
			want[key] = data
		}
		p.drain()
		for i, err := range errs {
			if err != nil {
				t.Fatalf("write %d: %v", i, err)
			}
		}
		if k.log.Erases == 0 {
			t.Fatal("test premise: the victim was never erased")
		}
		p.sync = true
		k.checkKeys(t, want)
		if err := k.log.Check(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestNoProgressCleaningFailsDeterministically: when a pass cannot
// take a page for a copy and the spare space is gone, the write behind
// it fails with ErrNoSpace instead of re-running the same doomed pass
// forever; the stalled log fails the next write without another pass;
// reads still work; and invalidations clear the stall, so the device
// recovers.
func TestNoProgressCleaningFailsDeterministically(t *testing.T) {
	geo := nand.Geometry{Buses: 1, ChipsPerBus: 1, BlocksPerChip: 8, PagesPerBlock: 4, PageSize: 64, OOBSize: 8}
	eachKeying(t, func(t *testing.T, mk keying) {
		k := mk(t, newHeldPort(t, geo), geo, logConfig{lowWater: 1, depth: 1, op: 0.125})
		if k.keys != 28 {
			t.Fatalf("%d keys over 32 pages, want 28", k.keys)
		}
		want := map[int][]byte{}
		for key := 0; key < k.keys; key++ {
			if err := k.syncWrite(key, fill(geo, byte(key+1))); err != nil {
				t.Fatalf("seed %d: %v", key, err)
			}
			want[key] = fill(geo, byte(key+1))
		}
		// Overwrites spread over the units leave victims that reclaim
		// little, until the device is full.
		var lastErr error
		for i := 0; i < 4*k.keys && lastErr == nil; i++ {
			key := i * 4 % k.keys
			if lastErr = k.syncWrite(key, fill(geo, byte(0x80+i))); lastErr == nil {
				want[key] = fill(geo, byte(0x80+i))
			}
		}
		if !errors.Is(lastErr, reclaim.ErrNoSpace) || k.log.Aborts == 0 {
			t.Fatalf("exhausted device: %v after %d aborted passes, want reclaim.ErrNoSpace after one", lastErr, k.log.Aborts)
		}
		passes := k.log.Passes
		if err := k.syncWrite(1, fill(geo, 0x33)); !errors.Is(err, reclaim.ErrNoSpace) || k.log.Passes != passes {
			t.Fatalf("stalled log: write %v, %d more passes", err, k.log.Passes-passes)
		}
		if got, err := k.syncRead(1); err != nil || !bytes.Equal(got, want[1]) {
			t.Fatalf("read after ErrNoSpace: %v", err)
		}
		if err := k.log.Check(); err != nil {
			t.Fatal(err)
		}
		for key := 0; key < k.keys/2; key++ {
			k.kill(key)
		}
		if err := k.syncWrite(0, fill(geo, 0x55)); err != nil {
			t.Fatalf("write after invalidations on a stalled log: %v", err)
		}
		if got, err := k.syncRead(0); err != nil || got[0] != 0x55 {
			t.Fatalf("read after recovery: %v", err)
		}
		if k.log.Erases == 0 {
			t.Fatal("recovery never erased a unit")
		}
		if err := k.log.Check(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestMoveOntoABadBlockRetiresTheUnit: a move whose copy's program
// fails on a bad block retires that unit and programs the same image
// elsewhere, as a write does; the pass completes and nothing is lost.
func TestMoveOntoABadBlockRetiresTheUnit(t *testing.T) {
	geo := nand.Geometry{Buses: 1, ChipsPerBus: 1, BlocksPerChip: 16, PagesPerBlock: 4, PageSize: 64, OOBSize: 8}
	eachKeying(t, func(t *testing.T, mk keying) {
		p := newHeldPort(t, geo)
		k := mk(t, p, geo, logConfig{lowWater: 3, depth: 1, op: 0.25})
		want := map[int][]byte{}
		for key := 0; key < k.keys; key++ {
			if err := k.syncWrite(key, fill(geo, byte(key))); err != nil {
				t.Fatal(err)
			}
			want[key] = fill(geo, byte(key))
		}
		p.badMove = 1
		rng := sim.NewRNG(5)
		for i := 0; k.log.BadUnits == 0 || k.log.Erases == 0; i++ {
			if i == 20*k.keys {
				t.Fatalf("test premise: %d bad units, %d erases", k.log.BadUnits, k.log.Erases)
			}
			key := rng.Intn(k.keys)
			if err := k.syncWrite(key, fill(geo, byte(0x80+i))); err != nil {
				t.Fatalf("overwrite %d: %v", i, err)
			}
			want[key] = fill(geo, byte(0x80+i))
		}
		if p.badMove != 0 || k.log.BadUnits != 1 || k.log.Aborts != 0 {
			t.Fatalf("%d bad units, %d aborted passes: want the one bad unit retired and no pass aborted", k.log.BadUnits, k.log.Aborts)
		}
		k.checkKeys(t, want)
		if err := k.log.Check(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestCheckInvariantsNamesTheUnit: the log's mapping check passes on a
// healthy log of either keying, and a planted corruption — one unit's
// valid count off by one — fails it, naming the layer and the unit.
func TestCheckInvariantsNamesTheUnit(t *testing.T) {
	geo := nand.Geometry{Buses: 1, ChipsPerBus: 1, BlocksPerChip: 8, PagesPerBlock: 4, PageSize: 64, OOBSize: 8}
	eachKeying(t, func(t *testing.T, mk keying) {
		k := mk(t, newHeldPort(t, geo), geo, logConfig{lowWater: 2, depth: 1, op: 0.25})
		for key := 0; key < 10; key++ {
			if err := k.syncWrite(key, fill(geo, byte(key))); err != nil {
				t.Fatal(err)
			}
		}
		k.kill(3)
		if err := k.log.Check(); err != nil {
			t.Fatalf("a healthy log fails its check: %v", err)
		}
		unit := k.at(9) / geo.PagesPerBlock
		k.log.Units[unit].Valid++
		err := k.log.CheckInvariants()
		if want := fmt.Sprintf("%s: unit %d:", k.name, unit); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("planted valid count: check says %v, want it to name %q", err, want)
		}
		if cerr := k.log.Check(); cerr == nil || !strings.Contains(cerr.Error(), err.Error()) {
			t.Fatalf("the drain check does not run the mapping check: %v", cerr)
		}
	})
}

// spyPort records every buffer that crosses a log's port over a card:
// the results of move reads, and every program's image and outcome.
type spyPort struct {
	reclaim.Port
	card       *nand.Card
	geo        nand.Geometry
	writes     []spyWrite     // every Program in issue order, outcome filled in on completion
	moveReads  map[*byte]bool // first byte of every result a move read delivered
	copied     int            // move reads whose result was not the image stored at the page read
	clipMoves  bool           // deliver move reads clipped to the page
	firstWrite func()         // runs before the first program, once
}

type spyWrite struct {
	ppn      int
	move     bool
	img      []byte
	readBack bool // when it was issued, img was a buffer some move read had delivered
	err      error
	stored   bool // on completion the card held img itself at ppn
}

func spyOn(log *reclaim.Log, card *nand.Card, geo nand.Geometry) *spyPort {
	spy := &spyPort{Port: log.Port, card: card, geo: geo, moveReads: map[*byte]bool{}}
	log.Port = spy
	return spy
}

func (b *spyPort) Read(ppn int, tag uint8, cb func([]byte, error)) {
	b.Port.Read(ppn, tag, func(data []byte, err error) {
		if tag == reclaim.TagMove && err == nil {
			if stored := b.card.Peek(b.geo.AddrOf(ppn)); len(stored) == 0 || &stored[0] != &data[0] {
				b.copied++
			}
			if b.clipMoves {
				data = data[:len(data):len(data)]
			}
			b.moveReads[&data[0]] = true
		}
		cb(data, err)
	})
}

func (b *spyPort) Program(ppn int, tag uint8, img []byte, cb func(error)) {
	i := len(b.writes)
	b.writes = append(b.writes, spyWrite{ppn: ppn, move: tag == reclaim.TagMove, img: img, readBack: b.moveReads[&img[0]]})
	b.Port.Program(ppn, tag, img, func(err error) {
		stored := b.card.Peek(b.geo.AddrOf(ppn))
		b.writes[i].err = err
		b.writes[i].stored = err == nil && len(stored) > 0 && &stored[0] == &img[0]
		cb(err)
	})
}

// cardKeyed builds a keying over a card behind a flashserver, with a
// spy on its port.
func cardKeyed(t *testing.T, mk keying, geo nand.Geometry, c logConfig) (*keyed, *cardRig, *spyPort) {
	r := newCardRig(t, geo)
	k := mk(t, r.port, geo, c)
	k.run = r.eng.Run
	t.Cleanup(func() {
		if err := k.log.Check(); err != nil {
			t.Error(err)
		}
	})
	return k, r, spyOn(k.log, r.card, geo)
}

// churnMoves writes every key and then overwrites them until the log
// has moved pages, returning the last version of each.
func churnMoves(t *testing.T, k *keyed, geo nand.Geometry) map[int][]byte {
	t.Helper()
	want := map[int][]byte{}
	for key := 0; key < k.keys; key++ {
		if err := k.syncWrite(key, fill(geo, byte(key))); err != nil {
			t.Fatalf("seed %d: %v", key, err)
		}
		want[key] = fill(geo, byte(key))
	}
	for i := 0; i < 4*k.keys && k.log.Moves < 8; i++ {
		key := i * 7 % k.keys
		if err := k.syncWrite(key, fill(geo, byte(0x80+i))); err != nil {
			t.Fatalf("overwrite %d: %v", i, err)
		}
		want[key] = fill(geo, byte(0x80+i))
	}
	if k.log.Moves == 0 {
		t.Fatal("the churn never made the log move a page")
	}
	return want
}

// TestCleanerMoveStoresTheBufferItRead: a move costs no payload byte.
// Its read delivers the image the victim page stores, the move hands
// that very buffer down, and the card stores it at the destination.
// (That a move allocates nothing at all is
// TestCleanMoveAllocatesNothing's pin.)
func TestCleanerMoveStoresTheBufferItRead(t *testing.T) {
	geo := smallGeo()
	eachKeying(t, func(t *testing.T, mk keying) {
		k, _, spy := cardKeyed(t, mk, geo, logConfig{lowWater: 2, depth: 4, op: 0.25})
		want := churnMoves(t, k, geo)
		moves := int64(0)
		for _, w := range spy.writes {
			if !w.move || w.err != nil {
				continue
			}
			moves++
			if !w.readBack {
				t.Fatalf("move program at ppn %d hands down a buffer no move read delivered: the move copied", w.ppn)
			}
			if !w.stored {
				t.Fatalf("the card stores a copy of the moved page at ppn %d", w.ppn)
			}
		}
		if moves != k.log.Moves || spy.copied != 0 {
			t.Fatalf("spy saw %d move programs, the log counts %d moves; %d move reads delivered a copy of the stored image",
				moves, k.log.Moves, spy.copied)
		}
		k.checkKeys(t, want)
	})
}

// TestSharedReadResultIsCopiedBeforeCleaning (the name is from when a
// result clipped to the page was snapshotted before the move): a page
// image is the page and nothing behind it, so a move read delivered
// clipped to the page — a device fake, a layer that copied — is an
// image all the same. The move programs it back as it stands, and the
// card stores it.
func TestSharedReadResultIsCopiedBeforeCleaning(t *testing.T) {
	geo := smallGeo()
	eachKeying(t, func(t *testing.T, mk keying) {
		k, _, spy := cardKeyed(t, mk, geo, logConfig{lowWater: 2, depth: 4, op: 0.25})
		spy.clipMoves = true
		want := churnMoves(t, k, geo)
		for _, w := range spy.writes {
			if w.move && (!w.readBack || !geo.IsPageImage(w.img) || w.err != nil || !w.stored) {
				t.Fatalf("move program at ppn %d: handed down the read result %v, image %v, err %v, stored %v",
					w.ppn, w.readBack, geo.IsPageImage(w.img), w.err, w.stored)
			}
		}
		k.checkKeys(t, want)
	})
}

// TestBadBlockRetryResubmitsTheSameImage: a write whose program hits a
// bad block is issued again elsewhere with the very image that failed,
// its unit retired, and the card ends up storing that image with the
// right bytes.
func TestBadBlockRetryResubmitsTheSameImage(t *testing.T) {
	geo := smallGeo()
	eachKeying(t, func(t *testing.T, mk keying) {
		k, r, spy := cardKeyed(t, mk, geo, logConfig{lowWater: 2, depth: 4, op: 0.25})
		// Block 0 of bus 0 is where either keying's first write lands:
		// the least-worn free block, the first chip's first segment.
		r.card.MarkBad(nand.Addr{Bus: 0, Chip: 0, Block: 0})
		want := fill(geo, 0x77)
		if err := k.syncWrite(2, want); err != nil {
			t.Fatal(err)
		}
		if k.log.BadUnits != 1 || len(spy.writes) != 2 {
			t.Fatalf("bad units %d, programs %d: want one failed program and one retry", k.log.BadUnits, len(spy.writes))
		}
		first, retry := spy.writes[0], spy.writes[1]
		if !errors.Is(first.err, nand.ErrBadBlock) || retry.err != nil {
			t.Fatalf("program outcomes %v, %v", first.err, retry.err)
		}
		if &first.img[0] != &retry.img[0] {
			t.Fatal("the retry programmed a different buffer than the one that failed")
		}
		if !retry.stored {
			t.Fatal("the card does not store the re-submitted image")
		}
		k.checkKeys(t, map[int][]byte{2: want})
	})
}

// moveRig is a log whose every key is written once — its sealed units
// all valid — and a collect func that forces a pass over one of them,
// moving a whole unit of pages and nothing else: the log is handed the
// victim. The low-water mark is above the log's size, so every
// allocation that passes the gate may start a pass, but the greedy rule
// finds no victim among all-valid units: only collect starts one. The
// FTL runs on a card behind a flashserver, the file system on a
// one-chip cluster through the scheduler, as each is deployed; the
// cluster without the image guard, whose checksums are not the file
// system's. Pools and rings are warm when it returns; fired counts the
// engine's events.
func moveRig(tb testing.TB, name string) (k *keyed, geo nand.Geometry, fired func() uint64, collect func()) {
	c := logConfig{lowWater: 1 << 20, depth: 4, op: 0.25}
	switch name {
	case "ftl":
		geo = nand.Geometry{Buses: 2, ChipsPerBus: 2, BlocksPerChip: 8, PagesPerBlock: 16, PageSize: 8192, OOBSize: 1024}
		r := newCardRig(tb, geo)
		k = ftlKeyed(tb, r.port, geo, c)
		k.run, fired = r.eng.Run, r.eng.Fired
	default:
		p := core.DefaultParams(1)
		p.CardsPerNode = 1
		p.Geometry.Buses, p.Geometry.ChipsPerBus = 1, 1
		p.Geometry.BlocksPerChip, p.Geometry.PagesPerBlock = 16, 8
		p.Reliability = nand.Reliability{} // no bit errors, no wear-out however long it runs
		geo = p.Geometry
		cl, err := core.NewCluster(p)
		if err != nil {
			tb.Fatal(err)
		}
		s, err := sched.New(cl, sched.DefaultConfig())
		if err != nil {
			tb.Fatal(err)
		}
		fs, _, err := NewClusterFS(cl, s, ClusterConfig{}, Config{CleanLowWater: c.lowWater})
		if err != nil {
			tb.Fatal(err)
		}
		k = fileKeyed(tb, fs, fs.totalPages()/2)
		k.run, fired = cl.Run, cl.Eng.Fired
	}
	page := make([]byte, geo.PageSize)
	for key := 0; key < k.keys; key++ {
		if err := k.syncWrite(key, page); err != nil {
			tb.Fatal(err)
		}
	}
	victim := -1
	pick := func() int { return victim }
	collect = func() {
		victim = -1
		for u, un := range k.log.Units {
			if !un.Active && !un.Bad && un.Written == geo.PagesPerBlock && un.Valid == geo.PagesPerBlock {
				victim = u
				break
			}
		}
		if victim < 0 {
			tb.Fatal("no sealed unit to collect")
		}
		keep := k.log.Pick
		k.log.Pick = pick
		if !k.log.Hold(func() {}) {
			tb.Fatal("no pass started")
		}
		k.log.Pick = keep
		k.run()
		if err := k.log.Check(); err != nil {
			tb.Fatalf("the pass did not finish: %v", err)
		}
	}
	for i := 0; i < 4; i++ {
		collect()
	}
	return k, geo, fired, collect
}

// TestCleanMoveAllocatesNothing: a move allocates nothing — its read
// delivers the image the victim page stores, and the move programs that
// image back — and neither does the queue writes wait in behind a pass,
// which keeps its storage from one pass to the next: an overwrite costs
// its page image and nothing else, though many overwrites here wait
// behind a pass they started.
func TestCleanMoveAllocatesNothing(t *testing.T) {
	for _, name := range []string{"ftl", "rfs"} {
		t.Run(name, func(t *testing.T) {
			k, geo, _, collect := moveRig(t, name)
			for range k.log.Units { // every block programmed once: the card makes its page table then
				collect()
			}
			moves := k.log.Moves
			if n := alloctest.Mallocs(8, collect); n != 0 {
				t.Errorf("8 passes of moves make %d allocations, want 0", n)
			}
			if n := k.log.Moves - moves; n < 8*int64(geo.PagesPerBlock) {
				t.Fatalf("%d moves in 8 passes over all-valid units", n)
			}

			page := make([]byte, geo.PageSize)
			ack := func(err error) {
				if err != nil {
					t.Fatal(err)
				}
			}
			next := 0
			burst := func() {
				for i := 0; i < 8; i++ {
					k.write(next%64, page, ack)
					next++
				}
				k.run()
			}
			for i := 0; i < 32; i++ { // into steady state: pools, rings and the queue at their size
				burst()
			}
			passes := k.log.Passes
			if n := alloctest.Mallocs(64, burst); n != 64*8 {
				t.Errorf("64 bursts of eight overwrites under reclaim make %d allocations, want %d (their images)", n, 64*8)
			}
			// The file system's gate starts a pass at every write that
			// finds none running, the FTL's only when a frontier needs a
			// fresh block: every other burst.
			if want := map[string]int64{"ftl": 32, "rfs": 64}[name]; k.log.Passes-passes < want {
				t.Fatalf("test premise: %d passes in 64 bursts, want %d", k.log.Passes-passes, want)
			}
		})
	}
}

// BenchmarkMove is the cost of one move, the erase of each emptied
// victim shared among its pages: a read whose result, the image the
// victim page stores, is programmed back as it stands, so a move
// allocates nothing (0 allocs/op and, once the run is long enough to
// amortize its first pass, 0 B/op on both keyings).
// Passes run whole, so the figures are computed per page actually moved
// (b.N rounded up to a unit) and reported in place of the built-in
// per-b.N ones. Run with -benchmem.
func BenchmarkMove(b *testing.B) {
	for _, name := range []string{"ftl", "rfs"} {
		b.Run(name, func(b *testing.B) {
			k, geo, fired, collect := moveRig(b, name)
			b.SetBytes(int64(geo.PageSize))
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			moves, events := k.log.Moves, fired()
			b.ResetTimer()
			for k.log.Moves-moves < int64(b.N) {
				collect()
			}
			b.StopTimer()
			runtime.ReadMemStats(&m1)
			n := float64(k.log.Moves - moves)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/op")
			b.ReportMetric(float64(m1.TotalAlloc-m0.TotalAlloc)/n, "B/op")
			b.ReportMetric(float64(m1.Mallocs-m0.Mallocs)/n, "allocs/op")
			b.ReportMetric(float64(fired()-events)/n, "events/op")
		})
	}
}
