// Package nand models raw NAND flash as seen by the BlueDBM flash
// controller: cards of buses, buses of chips, chips of erase blocks,
// blocks of pages. It enforces real NAND semantics — program-once
// pages, in-order programming inside a block, erase-before-reuse,
// wear-out, bad blocks — and injects bit errors on reads so that the
// controller's ECC path is genuinely exercised.
//
// Timing is modelled on the paper's custom flash board: ~50 µs cell
// reads, 8 buses per card at 150 MB/s each for an aggregate 1.2 GB/s
// per card (paper §5.1, §6.5).
//
// Each chip keeps two queues: its ordinary commands in arrival order,
// and bulk reads (ReadPageBulk), the throughput traffic of admitted
// in-store engines. The ordinary queue holds two FIFOs in one ring,
// which a run's seeding grows for both: reads, and passable commands —
// programs, erases, and a read that came while a program of its own page
// or an erase of its block was queued. The chip alternates between them:
// it starts the oldest read when that read is older than the oldest
// passable command, or when no read has passed that command yet;
// otherwise that command. So at most one read passes each program or
// erase, a program or erase never passes an older ordinary command, no
// read passes a program of its page or an erase of its block, and
// neither kind starves. A read may pass a program of another page of its
// block: what it returns depends only on its own page, which only a
// program of that page or an erase of its block changes. (Letting more
// reads pass each program was no better for read tails and cost
// closed-loop mixes more events.) A chip starts a bulk read only when
// no ordinary command waits, or once bulkPassLimit ordinary commands
// have passed the bulk read at the head of its queue: latency-critical
// commands go first at the chip, and a bulk read still cannot starve. A
// chip that sees only one kind of traffic is a single FIFO.
package nand

import (
	"errors"
	"fmt"
	"hash/crc32"

	"repro/internal/sim"
)

// Operation errors. The controller maps these onto its command status.
var (
	ErrBadBlock      = errors.New("nand: bad block")
	ErrNotErased     = errors.New("nand: programming a page that is not erased")
	ErrOutOfOrder    = errors.New("nand: pages in a block must be programmed in order")
	ErrReadFree      = errors.New("nand: reading an unwritten page")
	ErrBadAddress    = errors.New("nand: address out of range")
	ErrWrongDataSize = errors.New("nand: stored image has wrong size")
	// ErrDead reports an operation against a failed card (Fail). It is
	// the whole-card fault domain: every layer above classifies it as a
	// storage fault and fails over to a replica where one exists.
	ErrDead = errors.New("nand: card failed")
)

// Geometry describes one flash card.
type Geometry struct {
	Buses         int // independent channels per card
	ChipsPerBus   int
	BlocksPerChip int
	PagesPerBlock int
	PageSize      int // logical data bytes per page
	OOBSize       int // out-of-band bytes (ECC) stored alongside each page
}

// Validate reports whether all geometry fields are positive.
func (g Geometry) Validate() error {
	if g.Buses <= 0 || g.ChipsPerBus <= 0 || g.BlocksPerChip <= 0 ||
		g.PagesPerBlock <= 0 || g.PageSize <= 0 || g.OOBSize < 0 {
		return fmt.Errorf("nand: invalid geometry %+v", g)
	}
	return nil
}

// StoredPageSize returns the raw bytes stored per page (data + OOB).
func (g Geometry) StoredPageSize() int { return g.PageSize + g.OOBSize }

// PageImage snapshots data into a new page image — the one buffer a
// program allocates. A page image is PageSize bytes: the page and
// nothing behind it. The rule every layer keeps: AN IMAGE IS IMMUTABLE
// FROM THE MOMENT AN ADOPTING CALL OR A READ HANDS IT ON; to change a
// page, write a new image. The layer that takes the snapshot may fill
// it, then hands it down by reference; every layer below adopts it
// without copying, and a successful program ends with the card storing
// that very buffer. Its check bytes are a pure function of the page,
// computed only where a decode reads them: into the private copy of a
// read that draws flips (ReadPage). Clean reads deliver the stored
// image itself, so any number of readers, and after a relocation more
// than one flash page, may hold it at once; none of them may write to
// it. A refused admission or a failed program leaves the image with the
// issuer, who may submit the same one again.
//
// Data of any other length is snapshotted at its own length, which is
// not an image: the adopting calls below reject it by that length.
//
//go:noinline
func (g Geometry) PageImage(data []byte) []byte {
	// make+copy of plain variables compiles to one allocate-and-copy
	// that zeroes nothing.
	//simlint:allow hotpath (the page image itself: the one payload allocation of a program, made here and nowhere else)
	buf := make([]byte, len(data))
	copy(buf, data)
	return buf
}

// IsPageImage reports whether b has the shape of a page image: PageSize
// bytes. Every page a read delivers has it, so a relocation programs
// the result of its read back as it stands.
func (g Geometry) IsPageImage(b []byte) bool { return len(b) == g.PageSize }

// TotalPages returns pages in the whole card.
func (g Geometry) TotalPages() int {
	return g.Buses * g.ChipsPerBus * g.BlocksPerChip * g.PagesPerBlock
}

// TotalBytes returns the card's data capacity in bytes.
func (g Geometry) TotalBytes() int64 {
	return int64(g.TotalPages()) * int64(g.PageSize)
}

// PageIndex converts an address to the card-linear page index:
// bus-major, then chip, block and page.
//
//simlint:allow unused (probe: the inverse of AddrOf, by which the page-log tests of rfs name the physical page a key lands on)
func (g Geometry) PageIndex(a Addr) int {
	return ((a.Bus*g.ChipsPerBus+a.Chip)*g.BlocksPerChip+a.Block)*g.PagesPerBlock + a.Page
}

// AddrOf converts a card-linear page index back to an address: the one
// decomposition of a linear page number, for the card and for every log
// laid over cards.
func (g Geometry) AddrOf(idx int) Addr {
	p := idx % g.PagesPerBlock
	idx /= g.PagesPerBlock
	blk := idx % g.BlocksPerChip
	idx /= g.BlocksPerChip
	ch := idx % g.ChipsPerBus
	bus := idx / g.ChipsPerBus
	return Addr{Bus: bus, Chip: ch, Block: blk, Page: p}
}

// Timing holds the card's latency/bandwidth parameters.
type Timing struct {
	ReadPage       sim.Time // cell array -> chip register
	Program        sim.Time // chip register -> cell array
	Erase          sim.Time // whole-block erase
	BusBytesPerSec int64    // per-bus transfer rate
	BusLatency     sim.Time // per-transfer bus handshake latency
}

// DefaultTiming matches the paper's flash board characteristics: the
// ~50 µs cell read (plus command/ECC pipeline overhead) gates the
// sustained per-chip page rate, while the bus itself bursts at
// ONFI-style speed so a single page's transfer is short. With one
// independently-readable LUN per bus this yields ~1.1 GB/s of logical
// bandwidth per 8-bus card — the figure §7.3 reports.
func DefaultTiming() Timing {
	return Timing{
		ReadPage:       60 * sim.Microsecond,
		Program:        350 * sim.Microsecond,
		Erase:          3 * sim.Millisecond,
		BusBytesPerSec: 333_000_000,
		BusLatency:     200 * sim.Nanosecond,
	}
}

// Reliability controls error injection and wear-out.
type Reliability struct {
	// BitErrorRate is the per-bit flip probability on a read of a fresh
	// block. The effective rate grows linearly with the block's erase
	// count: rate = BitErrorRate * (1 + eraseCount/EnduranceCycles).
	BitErrorRate float64
	// EnduranceCycles is the nominal program/erase endurance. After a
	// block passes it, every further erase fails (block goes bad) with
	// probability WearOutProb.
	EnduranceCycles int64
	WearOutProb     float64
	// FactoryBadBlockProb marks blocks bad at manufacture time.
	FactoryBadBlockProb float64
	// ReadDisturb scales the bit-error rate with the number of reads a
	// block has absorbed since its last erase (read-disturb noise):
	// rate *= 1 + ReadDisturb*readsSinceErase. 0 disables it.
	ReadDisturb float64
	// GuardImages is a debugging aid for tests, off everywhere else: the
	// card checksums every image as ProgramPage adopts it and verifies the
	// sum whenever it touches the page again — the program that stores
	// it, each read, the erase or Replace that drops it, CheckImages —
	// and panics, naming the page and the operation, when a holder wrote
	// to a handed-down image. The flash server checksums an image where
	// it first adopts it (Guarded). The card also encodes each stored
	// page-length image eagerly into a side table and checks that the
	// check bytes it fills into a flipped copy of that page are the
	// eager ones (ReadPage). It changes no simulated behaviour.
	GuardImages bool
}

// Addr names a page (or block, with Page ignored) on one card.
type Addr struct {
	Bus, Chip, Block, Page int
}

func (a Addr) String() string {
	return fmt.Sprintf("b%d.c%d.blk%d.p%d", a.Bus, a.Chip, a.Block, a.Page)
}

// Card is one simulated flash card.
type Card struct {
	eng  *sim.Engine
	name string
	geo  Geometry
	tim  Timing
	rel  Reliability
	rng  *sim.RNG
	// noiseSeed keys the stateless bit-error injector. It is separate
	// from rng (which drives factory bad blocks and wear-out) so that
	// read-path noise never perturbs — and is never perturbed by —
	// lifecycle randomness.
	noiseSeed uint64
	failed    bool // whole-card fault domain; see Fail

	buses  []*busState
	chips  []*chipState // bus-major order
	blocks []block      // by card-linear block index: bus-major, then chip and block

	encode  func(raw []byte) error // the controller's check-byte encoder (SetEncoder)
	scratch []byte                 // Reliability.GuardImages: the StoredPageSize buffer the eager encode runs in

	// stats. BulkReads counts the reads issued at bulk priority
	// (ReadPageBulk), refused ones included: the in-store reads the
	// scheduler admitted.
	Reads         sim.Counter
	BulkReads     sim.Counter
	Programs      sim.Counter
	Erases        sim.Counter
	InjectedFlips sim.Counter
}

type busState struct {
	pipe    *sim.Pipe
	moving  sim.Queue[command] // commands whose image is crossing the bus, oldest first
	busDone func()             // the oldest transfer finished; bound once
}

type chipState struct {
	queue    sim.Queue[command] // ordinary commands, oldest first
	bulk     sim.Queue[command] // bulk reads, oldest first
	passable int                // passable commands in queue
	overtook bool               // a read has started ahead of the oldest passable command
	passed   int                // ordinary commands started past waiting bulk reads since one last started
	cur      command            // the command whose cell operation the chip is timing
	cellDone func()             // that operation finished; bound once
	running  bool
}

// bulkPassLimit is the starvation bound of a bulk read: how many
// ordinary commands may start ahead of the bulk read at the head of
// its chip's queue before it starts itself.
const bulkPassLimit = 8

// block is one erase block. A page is written exactly when it lies
// below next: pages are programmed in order and only an erase frees
// them. The page table is allocated by the block's first program and
// kept across erases, so a card's memory follows the blocks it has
// programmed, not its capacity.
type block struct {
	erases int64 // wear
	reads  int64 // reads since the last erase (injector state)
	next   int   // next programmable page
	bad    bool
	pages  [][]byte    // stored image per page: the page, or the page and its check bytes; nil = free
	sums   []guardSums // Reliability.GuardImages: the guard's record of pages[p]; nil when off
}

// NewCard builds a card. seed drives error injection; identical seeds
// reproduce identical fault patterns.
func NewCard(eng *sim.Engine, name string, geo Geometry, tim Timing, rel Reliability, seed uint64) (*Card, error) {
	if err := geo.Validate(); err != nil {
		return nil, err
	}
	c := &Card{
		eng:       eng,
		name:      name,
		geo:       geo,
		tim:       tim,
		rel:       rel,
		rng:       sim.NewRNG(seed),
		noiseSeed: mix64(seed ^ 0xb10eddb4bade5eed),
		blocks:    make([]block, geo.Buses*geo.ChipsPerBus*geo.BlocksPerChip),
	}
	if rel.GuardImages {
		c.scratch = make([]byte, geo.StoredPageSize())
	}
	for i := range c.blocks {
		c.blocks[i].bad = c.rng.Float64() < rel.FactoryBadBlockProb
	}
	for b := 0; b < geo.Buses; b++ {
		bus := &busState{
			pipe: sim.NewPipe(eng, fmt.Sprintf("%s/bus%d", name, b), tim.BusBytesPerSec, tim.BusLatency),
		}
		bus.busDone = func() { c.busDone(bus) }
		c.buses = append(c.buses, bus)
		for ch := 0; ch < geo.ChipsPerBus; ch++ {
			cs := &chipState{}
			cs.cellDone = func() { c.cellDone(cs) }
			c.chips = append(c.chips, cs)
		}
	}
	return c, nil
}

// Geometry returns the card's geometry.
func (c *Card) Geometry() Geometry { return c.geo }

// Name returns the card's diagnostic name.
func (c *Card) Name() string { return c.name }

// BusUtilization returns the utilization of bus b.
func (c *Card) BusUtilization(b int) float64 { return c.buses[b].pipe.Utilization() }

func (c *Card) checkAddr(a Addr, needPage bool) error {
	if a.Bus < 0 || a.Bus >= c.geo.Buses ||
		a.Chip < 0 || a.Chip >= c.geo.ChipsPerBus ||
		a.Block < 0 || a.Block >= c.geo.BlocksPerChip {
		return fmt.Errorf("%w: %v", ErrBadAddress, a)
	}
	if needPage && (a.Page < 0 || a.Page >= c.geo.PagesPerBlock) {
		return fmt.Errorf("%w: %v", ErrBadAddress, a)
	}
	return nil
}

func (c *Card) chipAt(a Addr) *chipState {
	return c.chips[a.Bus*c.geo.ChipsPerBus+a.Chip]
}

// blockIndex is a's card-linear block index: the block part of
// Geometry.PageIndex, and the key of the block's bit errors.
func (c *Card) blockIndex(a Addr) int {
	return (a.Bus*c.geo.ChipsPerBus+a.Chip)*c.geo.BlocksPerChip + a.Block
}

// cmdKind selects the flash operation of a queued command.
type cmdKind uint8

const (
	cmdRead cmdKind = iota
	cmdProgram
	cmdErase
)

// command is one operation from the moment its chip's queue accepts it
// until its callback fires. It moves by value — chip queue, the chip's
// cell-array slot, its bus's transfer queue — and schedules no closure
// of its own: the only continuations are one per chip (cellDone) and
// one per bus (busDone), bound at construction. That works because a
// chip times one read, program or erase at a time, and a bus, being a
// FIFO pipe, finishes transfers in the order they were started: the
// continuation always knows which command it is for. A flash
// operation therefore allocates nothing, but for the private copy of a
// read that drew bit errors.
type command struct {
	kind     cmdKind
	bulk     bool   // read: waits in the chip's bulk queue (ReadPageBulk)
	passable bool   // ordinary: a program or erase, or a read that came while a program of its page or an erase of its block was queued
	sum      uint32 // program, Reliability.GuardImages: checksum of raw as ProgramPage adopted it
	a        Addr
	raw      []byte // read: the stored image, or a corrupted copy; program: the image to store
	onRead   func(raw []byte, err error)
	onDone   func(err error)
}

// enqueue adds a command to one of its chip's two queues (see the
// package doc) and starts it when the chip is free. Each command
// releases the chip (runNext) when the chip can accept the next
// operation, which may be before the command's own data finishes
// moving: NAND cache registers let a bus transfer overlap the next cell
// read.
//
//simlint:hotpath
func (c *Card) enqueue(cmd command) {
	cs := c.chipAt(cmd.a)
	if cmd.bulk {
		cs.bulk.Push(cmd)
	} else {
		cmd.passable = cmd.kind != cmdRead || cs.passable > 0 && cs.writing(cmd.a)
		if cmd.passable {
			cs.passable++
		}
		cs.queue.Push(cmd)
	}
	if !cs.running {
		cs.running = true
		c.runNext(cs)
	}
}

// writing reports whether a program of page a or an erase of its block
// is queued: the commands that change what a read of a returns.
//
//simlint:hotpath
func (cs *chipState) writing(a Addr) bool {
	for i := range cs.queue.Len() {
		if w := cs.queue.At(i); w.a.Block == a.Block && (w.kind == cmdErase || w.kind == cmdProgram && w.a.Page == a.Page) {
			return true
		}
	}
	return false
}

// runNext starts the chip's next command: the next ordinary one,
// unless none waits or bulkPassLimit of them have already passed the
// oldest bulk read.
//
//simlint:hotpath
func (c *Card) runNext(cs *chipState) {
	switch {
	case cs.bulk.Len() > 0 && (cs.queue.Len() == 0 || cs.passed >= bulkPassLimit):
		cs.passed = 0
		c.start(cs, cs.bulk.Pop())
	case cs.queue.Len() > 0:
		if cs.bulk.Len() > 0 {
			cs.passed++
		}
		c.start(cs, cs.nextOrdinary())
	default:
		cs.running = false
	}
}

// nextOrdinary removes the chip's next ordinary command from queue:
// the oldest read that is not passable when it is older than the oldest
// passable command or when no read has passed that command yet, and
// otherwise that command. When a read has passed it, every read that is
// not passable is younger than it.
//
//simlint:hotpath
func (cs *chipState) nextOrdinary() command {
	if cs.passable == 0 {
		return cs.queue.Pop()
	}
	r, p := -1, -1 // the oldest read that is not passable, the oldest passable command
	for i := 0; i < cs.queue.Len() && (r < 0 || p < 0); i++ {
		if passable := cs.queue.At(i).passable; passable && p < 0 {
			p = i
		} else if !passable && r < 0 {
			r = i
		}
	}
	i := r
	if r < 0 || r > p && cs.overtook {
		i = p
		cs.passable--
	}
	cs.overtook = i == r && r > p // the read passed the oldest passable command
	if i == 0 {
		return cs.queue.Pop()
	}
	cmd := cs.queue.At(i)
	cs.queue.RemoveAt(i)
	return cmd
}

// check is what a chip verifies as it reaches a command: the card is
// alive, the block good, and the page in the state the operation needs —
// written (below next) for a read, the next programmable for a program.
func (c *Card) check(cmd *command) error {
	a := cmd.a
	b := &c.blocks[c.blockIndex(a)]
	if c.failed {
		return fmt.Errorf("%w: %s", ErrDead, c.name)
	}
	if b.bad {
		return fmt.Errorf("%w: %v", ErrBadBlock, a)
	}
	switch { // an erase names a block, and no page rule applies to it
	case cmd.kind == cmdRead && a.Page >= b.next:
		return fmt.Errorf("%w: %v", ErrReadFree, a)
	case cmd.kind == cmdProgram && a.Page < b.next:
		return fmt.Errorf("%w: %v", ErrNotErased, a)
	case cmd.kind == cmdProgram && a.Page > b.next:
		return fmt.Errorf("%w: %v (next programmable is page %d)", ErrOutOfOrder, a, b.next)
	}
	return nil
}

// start runs a command as its chip reaches it: a command that fails
// the chip's checks releases the chip at once, any other begins its
// first timed stage — the cell operation, or for a program the bus
// transfer that precedes it.
//
//simlint:hotpath
func (c *Card) start(cs *chipState, cmd command) {
	//simlint:allow hotpath (error paths: check allocates only the error of a command that fails anyway)
	if err := c.check(&cmd); err != nil {
		c.finish(cs, &cmd, err)
		return
	}
	switch cmd.kind {
	case cmdRead:
		c.Reads.Inc()
		cs.cur = cmd
		c.eng.After(c.tim.ReadPage, cs.cellDone)
	case cmdProgram:
		c.transfer(cmd)
	case cmdErase:
		cs.cur = cmd
		c.eng.After(c.tim.Erase, cs.cellDone)
	}
}

// transfer moves a command's image across its bus: the page and its
// check bytes, whether or not the image in memory carries them.
//
//simlint:hotpath
func (c *Card) transfer(cmd command) {
	bus := c.buses[cmd.a.Bus]
	bus.moving.Push(cmd)
	bus.pipe.Transfer(c.geo.StoredPageSize(), bus.busDone)
}

// cellDone ends the cell operation a chip was timing.
//
//simlint:hotpath
func (c *Card) cellDone(cs *chipState) {
	cmd := cs.cur
	cs.cur = command{}
	a := cmd.a
	gblk := c.blockIndex(a)
	b := &c.blocks[gblk]
	switch cmd.kind {
	case cmdRead:
		// The register drained into the cache register: the chip can
		// start its next op while the image crosses the shared bus.
		c.runNext(cs)
		stored := b.pages[a.Page]
		c.verify(b, a, "read")
		serial := b.reads
		b.reads++
		flips, s := c.drawFlips(c.geo.StoredPageSize()*8, gblk, b.erases, serial)
		cmd.raw = stored
		if flips > 0 {
			//simlint:allow hotpath (the private copy of a read that drew bit errors: at the default error rate one read in 13 000)
			raw := make([]byte, c.geo.StoredPageSize())
			copy(raw, stored)
			if len(stored) == c.geo.PageSize {
				//simlint:allow hotpath (one read in 13 000: the panics on a broken encoder or a guard mismatch allocate as the run ends)
				c.fillCheckBytes(b, a, raw)
			}
			c.applyFlips(raw, flips, s)
			cmd.raw = raw
		}
		c.transfer(cmd)
	case cmdProgram:
		if b.pages == nil {
			//simlint:allow hotpath (the block's page table: made by its first program and kept across erases, so once per block a card ever programs)
			b.pages = make([][]byte, c.geo.PagesPerBlock)
		}
		b.pages[a.Page] = cmd.raw
		if c.rel.GuardImages {
			//simlint:allow hotpath (the image guard, a test-only debugging aid)
			c.guard(b, a, cmd.sum)
		}
		b.next++
		c.Programs.Inc()
		c.finish(cs, &cmd, nil)
	case cmdErase:
		// The block's wear accumulates, and past the endurance limit it
		// may fail and become bad.
		b.erases++
		c.Erases.Inc()
		if b.erases > c.rel.EnduranceCycles && c.rng.Float64() < c.rel.WearOutProb {
			b.bad = true
			//simlint:allow hotpath (a block wearing out: once per block that goes bad)
			c.finish(cs, &cmd, fmt.Errorf("%w: %v (wore out after %d cycles)", ErrBadBlock, a, b.erases))
			return
		}
		c.free(b, a, "erase")
		b.next, b.reads = 0, 0
		c.finish(cs, &cmd, nil)
	}
}

// busDone ends the oldest transfer on a bus: a read's image has
// reached the controller, or a program's image the chip, which now
// programs it.
//
//simlint:hotpath
func (c *Card) busDone(bus *busState) {
	cmd := bus.moving.Pop()
	if cmd.kind == cmdRead {
		cmd.onRead(cmd.raw, nil)
		return
	}
	cs := c.chipAt(cmd.a)
	cs.cur = cmd
	c.eng.After(c.tim.Program, cs.cellDone)
}

// finish ends a command that still holds its chip: the chip moves on
// to its next queued command, and then the callback hears the outcome.
//
//simlint:hotpath
func (c *Card) finish(cs *chipState, cmd *command, err error) {
	c.runNext(cs)
	if cmd.kind == cmdRead {
		cmd.onRead(nil, err)
	} else {
		cmd.onDone(err)
	}
}

// ReadPage reads the stored image of a page. Timing: cell read
// occupies the chip, then the page and its check bytes cross the shared
// bus. Bit errors are drawn according to the block's wear, over the
// page and its check bytes. The callback receives the image or an
// error.
//
// Ownership: raw is read-only. A read that draws no bit error — all
// but one in 13 000 at the default rate — delivers the very image the
// card stores, the one every other clean read of the page delivers too:
// a clean read copies nothing and allocates nothing. A read that draws
// flips delivers a private StoredPageSize copy with the flips applied;
// the stored image is never touched. Images are immutable
// (Geometry.PageImage), so the controller corrects into a copy of its
// own when it has to, and every layer above passes views of raw up to
// the requester.
//
// A stored image of PageSize bytes — every image the controller
// programs — carries no check bytes: they are a pure function of the
// page. So a clean read of it delivers a page that needs no decode, and
// a read that draws flips fills its copy's check bytes from the still
// unflipped page with the encoder the controller registered
// (SetEncoder) before the flips land: the decode sees the bytes an
// eager encode would have stored. An image of StoredPageSize bytes —
// one programmed around the controller — is decoded from the check
// bytes it carries.
func (c *Card) ReadPage(a Addr, cb func(raw []byte, err error)) { c.read(a, false, cb) }

// ReadPageBulk is ReadPage at bulk priority, for throughput reads that
// may wait: its chip starts it only when no ordinary command waits
// there, or once bulkPassLimit ordinary commands have passed it at the
// head of the chip's bulk queue (see the package doc). Bulk reads keep
// their order among themselves.
func (c *Card) ReadPageBulk(a Addr, cb func(raw []byte, err error)) { c.read(a, true, cb) }

// read queues a read of page a, in its chip's bulk queue when bulk.
func (c *Card) read(a Addr, bulk bool, cb func(raw []byte, err error)) {
	if bulk {
		c.BulkReads.Inc()
	}
	if err := c.checkAddr(a, true); err != nil {
		cb(nil, err)
		return
	}
	c.enqueue(command{kind: cmdRead, bulk: bulk, a: a, onRead: cb})
}

// ProgramPage writes an image to a page: PageSize bytes, the page alone
// (a page image), or StoredPageSize bytes, the page followed by its
// check bytes (an image programmed around the controller). Either
// crosses the bus at StoredPageSize, then programming occupies the
// chip. NAND rules are enforced: the page must be erased and must be
// the next page in its block.
//
// Ownership: the card adopts raw. On success raw itself becomes the
// stored image, which clean reads hand out as it stands (ReadPage), so
// from this call on nobody may write to raw again: not the caller, not
// any reader. A caller that wants to keep changing its buffer passes a
// copy. A failed program stores nothing and keeps no reference: raw is
// the caller's again once cb reports the error. raw may already be
// stored under another address — a relocation programs back the image
// it read — and stays in use until the last page holding it is erased.
// Under Reliability.GuardImages the checksum is taken here, so a holder
// that writes to raw before the program ends trips the program.
func (c *Card) ProgramPage(a Addr, raw []byte, cb func(err error)) {
	if err := c.checkAddr(a, true); err != nil {
		cb(err)
		return
	}
	if len(raw) != c.geo.PageSize && len(raw) != c.geo.StoredPageSize() {
		cb(fmt.Errorf("%w: got %d, want %d or %d", ErrWrongDataSize, len(raw), c.geo.PageSize, c.geo.StoredPageSize()))
		return
	}
	cmd := command{kind: cmdProgram, a: a, raw: raw, onDone: cb}
	if c.rel.GuardImages {
		cmd.sum = crc32.Checksum(raw, castagnoli)
	}
	c.enqueue(cmd)
}

// Guarded reports Reliability.GuardImages: a layer that adopts images
// for this card checksums them where it adopts them.
func (c *Card) Guarded() bool { return c.rel.GuardImages }

// SetEncoder registers enc, the controller's check-byte encoder: it
// writes into the tail of a StoredPageSize buffer the check bytes of
// the page in its head and touches nothing else. The controller
// registers it once per card; the card calls it on the copy a read of a
// page-length image makes when it draws flips (ReadPage), and under
// Reliability.GuardImages on each page-length image it stores.
func (c *Card) SetEncoder(enc func(raw []byte) error) { c.encode = enc }

// guardSums is the image guard's record of one page
// (Reliability.GuardImages), its side table entry.
type guardSums struct {
	image uint32 // checksum of the stored image as ProgramPage adopted it
	check uint32 // page-length image: checksum of the check bytes the encoder computed for it as it was stored
}

// guard records the image just stored at page a of block b, which
// ProgramPage checksummed to sum, in the block's side table
// (Reliability.GuardImages), made at the block's first guarded program,
// and for a page-length image, encodes it eagerly and records the
// checksum of its check bytes too.
func (c *Card) guard(b *block, a Addr, sum uint32) {
	if b.sums == nil {
		b.sums = make([]guardSums, c.geo.PagesPerBlock)
	}
	b.sums[a.Page] = guardSums{image: sum}
	c.verify(b, a, "program")
	if stored := b.pages[a.Page]; c.encode != nil && len(stored) == c.geo.PageSize {
		copy(c.scratch, stored)
		c.fill(a, c.scratch)
		b.sums[a.Page].check = crc32.Checksum(c.scratch[c.geo.PageSize:], castagnoli)
	}
}

// fill runs the encoder on enc, a StoredPageSize copy of the page at a.
func (c *Card) fill(a Addr, enc []byte) {
	if err := c.encode(enc); err != nil {
		panic(fmt.Sprintf("nand: %s: filling the check bytes of the image at %v: %v", c.name, a, err))
	}
}

// fillCheckBytes writes the check bytes of raw, the private copy a read
// of the page-length image at a in block b made, from its page, before
// the read's flips land on it. Under Reliability.GuardImages the fill
// must reproduce the eager encode the side table recorded or the read
// panics, naming the page.
func (c *Card) fillCheckBytes(b *block, a Addr, raw []byte) {
	if c.encode == nil {
		return
	}
	c.fill(a, raw)
	if b.sums != nil && crc32.Checksum(raw[c.geo.PageSize:], castagnoli) != b.sums[a.Page].check {
		panic(fmt.Sprintf("nand: %s: the image at %v does not carry the check bytes its page encoded to when it was stored (found by read)", c.name, a))
	}
}

// EraseBlock erases a block, freeing all its pages. Wear accumulates;
// past the endurance limit the block may fail and become bad.
func (c *Card) EraseBlock(a Addr, cb func(err error)) {
	if err := c.checkAddr(a, false); err != nil {
		cb(err)
		return
	}
	c.enqueue(command{kind: cmdErase, a: a, onDone: cb})
}

// mix64 is the splitmix64 finalizer (the same mixing sim.RNG applies):
// a stateless hash that decorrelates the injector's draw streams.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// drawFlips draws how many of a stored image's bits the serial-th read
// of a block since its last erase finds flipped, and returns the state
// of the stream applyFlips takes their positions from. Count and
// positions are a pure function of (card seed, card-wide block index,
// erase count, read serial): each block carries its own error state, so a block's noise
// history depends only on its own wear and read count — never on how
// reads to other blocks, chips or cards interleave with it.
//
//simlint:hotpath
func (c *Card) drawFlips(bits, gblk int, eraseCount, serial int64) (flips int, s uint64) {
	// Each product is converted before it is added to: Go may fuse
	// x*y±z into one differently rounded op on arm64, and these decide
	// the flip count.
	rate := c.rel.BitErrorRate
	if rate <= 0 {
		return 0, 0
	}
	if c.rel.EnduranceCycles > 0 {
		rate *= 1 + float64(eraseCount)/float64(c.rel.EnduranceCycles)
	}
	if c.rel.ReadDisturb > 0 {
		rate *= 1 + float64(c.rel.ReadDisturb*float64(serial))
	}
	mean := float64(rate * float64(bits))
	// Per-(block, erase, read) stateless splitmix stream.
	s = c.noiseSeed ^ mix64(uint64(gblk)*0x9e3779b97f4a7c15+1)
	s ^= mix64(uint64(eraseCount)*0xd1342543de82ef95 + 0x2545f4914f6cdd1d)
	s += uint64(serial) * 0x9e3779b97f4a7c15
	// Cheap Poisson-ish sampling: integer part plus Bernoulli remainder.
	s += 0x9e3779b97f4a7c15
	flips = int(mean)
	if float64(mix64(s)>>11)/(1<<53) < mean-float64(flips) {
		flips++
	}
	return flips, s
}

// applyFlips flips the drawn bits of out, a private copy of the stored
// image, continuing the stream drawFlips left at s.
func (c *Card) applyFlips(out []byte, flips int, s uint64) {
	bits := uint64(len(out) * 8)
	for i := 0; i < flips; i++ {
		s += 0x9e3779b97f4a7c15
		pos := int(mix64(s) % bits)
		out[pos/8] ^= 1 << uint(pos%8)
		c.InjectedFlips.Inc()
	}
}

// castagnoli is the image guard's checksum: hardware-assisted, and any
// change confined to one word of the image changes it.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// checkImage is the image guard (Reliability.GuardImages): the image
// stored at page a of block b must still be, byte for byte, what
// ProgramPage adopted.
//
//simlint:hotpath
func (c *Card) checkImage(b *block, a Addr, op string) error {
	if b.sums == nil || b.pages[a.Page] == nil || crc32.Checksum(b.pages[a.Page], castagnoli) == b.sums[a.Page].image {
		return nil
	}
	//simlint:allow hotpath (debug guard tripped: the run ends here)
	return fmt.Errorf("nand: %s: the image at %v was written to after it was handed to the card (found by %s): page images are immutable", c.name, a, op)
}

// verify fails the operation that finds a stored image changed.
//
//simlint:hotpath
func (c *Card) verify(b *block, a Addr, op string) {
	if err := c.checkImage(b, a, op); err != nil {
		panic(err)
	}
}

// free verifies and drops every image block b (at a) stores, keeping
// its page table.
func (c *Card) free(b *block, a Addr, op string) {
	for a.Page = range b.pages {
		c.verify(b, a, op)
	}
	clear(b.pages)
}

// CheckImages verifies every stored image against the checksum taken
// when ProgramPage adopted it and reports the first that a holder has
// written to since. It is for a test's drain; without
// Reliability.GuardImages there is nothing to compare and it returns
// nil.
func (c *Card) CheckImages() error {
	for i := range c.blocks {
		b := &c.blocks[i]
		a := c.geo.AddrOf(i * c.geo.PagesPerBlock)
		for a.Page = range b.pages {
			if err := c.checkImage(b, a, "CheckImages"); err != nil {
				return err
			}
		}
	}
	return nil
}

// CheckDrained reports what a drained card must not hold: a chip with
// a queued command or marked running (an erase in progress runs its
// chip), or an image crossing the chip's bus. It names the card and the
// chip, and is for a test's drain, once the engine has nothing left to
// run.
func (c *Card) CheckDrained() error {
	for i, cs := range c.chips {
		moving := c.buses[i/c.geo.ChipsPerBus].moving.Len()
		if n := cs.queue.Len() + cs.bulk.Len(); n > 0 || cs.running || moving > 0 {
			return fmt.Errorf("nand: %s: chip b%d.c%d holds %d queued commands (running: %t), its bus %d transfers at drain",
				c.name, i/c.geo.ChipsPerBus, i%c.geo.ChipsPerBus, n, cs.running, moving)
		}
	}
	return nil
}

// Fail marks the whole card dead: every subsequent operation — and
// every operation still queued behind the failure point — completes
// with ErrDead. In-flight cell/bus activity that already passed its
// fault check finishes normally, the way a yanked card's last DMA
// drains. Fail models the card-level fault domain (a controller brick,
// a pulled board); block-level media failure is MarkBad/wear-out.
func (c *Card) Fail() { c.failed = true }

// Replace swaps in a fresh, blank card of identical geometry: all
// pages free, zero wear, no bad blocks, injector state reset. The
// replacement card keeps the same identity (name, seed, attached
// controller), mirroring a field swap of the flash board. Callers
// should replace only after the dead card's queued operations have
// drained (they complete with ErrDead in virtual time).
func (c *Card) Replace() {
	c.failed = false
	for i := range c.blocks {
		b := &c.blocks[i]
		c.free(b, c.geo.AddrOf(i*c.geo.PagesPerBlock), "Replace")
		*b = block{pages: b.pages, sums: b.sums}
	}
}

// MarkBad forcibly marks a block bad: the bad-block fault the tests of
// the controller, the flash server, the FTL and RFS inject.
//
//simlint:allow unused (fault injection: the bad-block tests of flashctl, flashserver, ftl and rfs)
func (c *Card) MarkBad(a Addr) {
	if err := c.checkAddr(a, false); err != nil {
		return
	}
	c.blocks[c.blockIndex(a)].bad = true
}

// Peek returns the stored image without timing or error injection.
// It is a debug/test hook, not part of the modelled hardware surface.
func (c *Card) Peek(a Addr) []byte {
	if err := c.checkAddr(a, true); err != nil {
		return nil
	}
	if b := &c.blocks[c.blockIndex(a)]; b.pages != nil {
		return b.pages[a.Page]
	}
	return nil
}
