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

// PagesPerChip returns pages in one chip.
func (g Geometry) PagesPerChip() int { return g.BlocksPerChip * g.PagesPerBlock }

// TotalPages returns pages in the whole card.
func (g Geometry) TotalPages() int {
	return g.Buses * g.ChipsPerBus * g.PagesPerChip()
}

// TotalBytes returns the card's data capacity in bytes.
func (g Geometry) TotalBytes() int64 {
	return int64(g.TotalPages()) * int64(g.PageSize)
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

// PageState tracks the lifecycle of one page.
type PageState uint8

// Page lifecycle states.
const (
	PageFree PageState = iota // erased, programmable
	PageWritten
)

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

	buses []*busState
	chips []*chipState // bus-major order
	data  [][]byte     // stored image per linear page index: the page, or the page and its check bytes; nil = free
	state []PageState  // lifecycle
	sums  []guardSums  // Reliability.GuardImages: the guard's record of data[i]; nil when off

	encode  func(raw []byte) error // the controller's check-byte encoder (SetEncoder)
	scratch []byte                 // Reliability.GuardImages: the StoredPageSize buffer the eager encode runs in

	erasing   sim.Queue[command] // erases in progress, oldest first
	eraseDone func()             // the oldest erase finished; bound once

	// stats
	Reads         sim.Counter
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
	queue      sim.Queue[command]
	cur        command // the command whose cell operation the chip is timing
	cellDone   func()  // that operation finished; bound once
	running    bool
	eraseCount []int64
	bad        []bool
	nextPage   []int   // next programmable page index per block
	readSerial []int64 // reads since last erase, per block (injector state)
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
		data:      make([][]byte, geo.TotalPages()),
		state:     make([]PageState, geo.TotalPages()),
	}
	c.eraseDone = c.erased
	if rel.GuardImages {
		c.sums = make([]guardSums, geo.TotalPages())
		c.scratch = make([]byte, geo.StoredPageSize())
	}
	for b := 0; b < geo.Buses; b++ {
		bus := &busState{
			pipe: sim.NewPipe(eng, fmt.Sprintf("%s/bus%d", name, b), tim.BusBytesPerSec, tim.BusLatency),
		}
		bus.busDone = func() { c.busDone(bus) }
		c.buses = append(c.buses, bus)
		for ch := 0; ch < geo.ChipsPerBus; ch++ {
			cs := &chipState{
				eraseCount: make([]int64, geo.BlocksPerChip),
				bad:        make([]bool, geo.BlocksPerChip),
				nextPage:   make([]int, geo.BlocksPerChip),
				readSerial: make([]int64, geo.BlocksPerChip),
			}
			cs.cellDone = func() { c.cellDone(cs) }
			for blk := 0; blk < geo.BlocksPerChip; blk++ {
				if c.rng.Float64() < rel.FactoryBadBlockProb {
					cs.bad[blk] = true
				}
			}
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

// PageIndex converts an address to the card-linear page index.
func (c *Card) PageIndex(a Addr) int {
	return ((a.Bus*c.geo.ChipsPerBus+a.Chip)*c.geo.BlocksPerChip+a.Block)*c.geo.PagesPerBlock + a.Page
}

// AddrOf converts a card-linear page index back to an address.
func (c *Card) AddrOf(idx int) Addr {
	p := idx % c.geo.PagesPerBlock
	idx /= c.geo.PagesPerBlock
	blk := idx % c.geo.BlocksPerChip
	idx /= c.geo.BlocksPerChip
	ch := idx % c.geo.ChipsPerBus
	bus := idx / c.geo.ChipsPerBus
	return Addr{Bus: bus, Chip: ch, Block: blk, Page: p}
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
// of its own: the only continuations are one per chip (cellDone), one
// per bus (busDone) and one for erases (eraseDone), bound at
// construction. That works because a chip times one read or program at
// a time, a bus, being a FIFO pipe, finishes transfers in the order
// they were started, and so do erases, which all take the same time:
// the continuation always knows which command it is for. A flash
// operation therefore allocates nothing, but for the private copy of a
// read that drew bit errors.
type command struct {
	kind   cmdKind
	sum    uint32 // program, Reliability.GuardImages: checksum of raw as ProgramPage adopted it
	a      Addr
	raw    []byte // read: the stored image, or a corrupted copy; program: the image to store
	onRead func(raw []byte, err error)
	onDone func(err error)
}

// enqueue adds a command to its chip's FIFO queue and starts it when
// the chip is free. Each command releases the chip (runNext) when the
// chip can accept the next operation, which may be before the
// command's own data finishes moving: NAND cache registers let a bus
// transfer overlap the next cell read.
//
//simlint:hotpath
func (c *Card) enqueue(cmd command) {
	cs := c.chipAt(cmd.a)
	cs.queue.Push(cmd)
	if !cs.running {
		cs.running = true
		c.runNext(cs)
	}
}

//simlint:hotpath
func (c *Card) runNext(cs *chipState) {
	if cs.queue.Len() == 0 {
		cs.running = false
		return
	}
	c.start(cs, cs.queue.Pop())
}

// check is what a chip verifies as it reaches a command: the card is
// alive, the block good, and the page in the state the operation needs.
func (c *Card) check(cs *chipState, cmd *command) error {
	a := cmd.a
	if c.failed {
		return fmt.Errorf("%w: %s", ErrDead, c.name)
	}
	if cs.bad[a.Block] {
		return fmt.Errorf("%w: %v", ErrBadBlock, a)
	}
	if cmd.kind == cmdErase {
		return nil // a block address: its page field means nothing
	}
	switch state := c.state[c.PageIndex(a)]; {
	case cmd.kind == cmdRead && state != PageWritten:
		return fmt.Errorf("%w: %v", ErrReadFree, a)
	case cmd.kind == cmdProgram && state != PageFree:
		return fmt.Errorf("%w: %v", ErrNotErased, a)
	case cmd.kind == cmdProgram && a.Page != cs.nextPage[a.Block]:
		return fmt.Errorf("%w: %v (next programmable is page %d)", ErrOutOfOrder, a, cs.nextPage[a.Block])
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
	if err := c.check(cs, &cmd); err != nil {
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
		// Every erase takes the same time, so erases end in the order
		// they began, card-wide.
		c.erasing.Push(cmd)
		c.eng.After(c.tim.Erase, c.eraseDone)
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
	switch cmd.kind {
	case cmdRead:
		// The register drained into the cache register: the chip can
		// start its next op while the image crosses the shared bus.
		c.runNext(cs)
		idx := c.PageIndex(a)
		stored := c.data[idx]
		c.verify(idx, "read")
		serial := cs.readSerial[a.Block]
		cs.readSerial[a.Block]++
		flips, s := c.drawFlips(c.geo.StoredPageSize()*8, idx/c.geo.PagesPerBlock, cs.eraseCount[a.Block], serial)
		cmd.raw = stored
		if flips > 0 {
			//simlint:allow hotpath (the private copy of a read that drew bit errors: at the default error rate one read in 13 000)
			raw := make([]byte, c.geo.StoredPageSize())
			copy(raw, stored)
			if len(stored) == c.geo.PageSize {
				//simlint:allow hotpath (one read in 13 000: the panics on a broken encoder or a guard mismatch allocate as the run ends)
				c.fillCheckBytes(idx, raw)
			}
			c.applyFlips(raw, flips, s)
			cmd.raw = raw
		}
		c.transfer(cmd)
	case cmdProgram:
		idx := c.PageIndex(a)
		c.state[idx] = PageWritten
		c.data[idx] = cmd.raw
		if c.sums != nil {
			c.sums[idx].image = cmd.sum
			c.verify(idx, "program")
			//simlint:allow hotpath (the image guard, a test-only debugging aid)
			c.sums[idx].check = c.encodeEagerly(idx)
		}
		cs.nextPage[a.Block]++
		c.Programs.Inc()
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

// erased ends the oldest erase in progress: the block's wear
// accumulates, and past the endurance limit it may fail and become bad.
func (c *Card) erased() {
	cmd := c.erasing.Pop()
	a := cmd.a
	cs := c.chipAt(a)
	cs.eraseCount[a.Block]++
	c.Erases.Inc()
	if cs.eraseCount[a.Block] > c.rel.EnduranceCycles && c.rng.Float64() < c.rel.WearOutProb {
		cs.bad[a.Block] = true
		c.finish(cs, &cmd, fmt.Errorf("%w: %v (wore out after %d cycles)", ErrBadBlock, a, cs.eraseCount[a.Block]))
		return
	}
	base := c.PageIndex(Addr{Bus: a.Bus, Chip: a.Chip, Block: a.Block})
	for p := 0; p < c.geo.PagesPerBlock; p++ {
		c.verify(base+p, "erase")
		c.state[base+p] = PageFree
		c.data[base+p] = nil
	}
	cs.nextPage[a.Block] = 0
	cs.readSerial[a.Block] = 0
	c.finish(cs, &cmd, nil)
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
func (c *Card) ReadPage(a Addr, cb func(raw []byte, err error)) {
	if err := c.checkAddr(a, true); err != nil {
		cb(nil, err)
		return
	}
	c.enqueue(command{kind: cmdRead, a: a, onRead: cb})
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
	if c.sums != nil {
		cmd.sum = crc32.Checksum(raw, castagnoli)
	}
	c.enqueue(cmd)
}

// Guarded reports Reliability.GuardImages: a layer that adopts images
// for this card checksums them where it adopts them.
func (c *Card) Guarded() bool { return c.sums != nil }

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

// encodeEagerly encodes the page-length image just stored at idx and
// returns the checksum of its check bytes (0 for an image that carries
// its own).
func (c *Card) encodeEagerly(idx int) uint32 {
	if c.encode == nil || len(c.data[idx]) != c.geo.PageSize {
		return 0
	}
	copy(c.scratch, c.data[idx])
	c.fill(idx, c.scratch)
	return crc32.Checksum(c.scratch[c.geo.PageSize:], castagnoli)
}

// fill runs the encoder on enc, a StoredPageSize copy of the page at idx.
func (c *Card) fill(idx int, enc []byte) {
	if err := c.encode(enc); err != nil {
		panic(fmt.Sprintf("nand: %s: filling the check bytes of the image at %v: %v", c.name, c.AddrOf(idx), err))
	}
}

// fillCheckBytes writes the check bytes of raw, the private copy a read
// of the page-length image at idx made, from its page, before the
// read's flips land on it. Under Reliability.GuardImages the fill must
// reproduce the eager encode the side table recorded or the read
// panics, naming the page.
func (c *Card) fillCheckBytes(idx int, raw []byte) {
	if c.encode == nil {
		return
	}
	c.fill(idx, raw)
	if c.sums != nil && crc32.Checksum(raw[c.geo.PageSize:], castagnoli) != c.sums[idx].check {
		panic(fmt.Sprintf("nand: %s: the image at %v does not carry the check bytes its page encoded to when it was stored (found by read)", c.name, c.AddrOf(idx)))
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
// stored at page idx must still be, byte for byte, what ProgramPage
// adopted.
//
//simlint:hotpath
func (c *Card) checkImage(idx int, op string) error {
	if c.sums == nil || c.data[idx] == nil || crc32.Checksum(c.data[idx], castagnoli) == c.sums[idx].image {
		return nil
	}
	a := c.AddrOf(idx)
	//simlint:allow hotpath (debug guard tripped: the run ends here)
	return fmt.Errorf("nand: %s: the image at %v was written to after it was handed to the card (found by %s): page images are immutable", c.name, a, op)
}

// verify fails the operation that finds a stored image changed.
//
//simlint:hotpath
func (c *Card) verify(idx int, op string) {
	if err := c.checkImage(idx, op); err != nil {
		panic(err)
	}
}

// CheckImages verifies every stored image against the checksum taken
// when ProgramPage adopted it and reports the first that a holder has
// written to since. It is for a test's drain; without
// Reliability.GuardImages there is nothing to compare and it returns
// nil.
func (c *Card) CheckImages() error {
	for idx := range c.data {
		if err := c.checkImage(idx, "CheckImages"); err != nil {
			return err
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
	for i := range c.data {
		c.verify(i, "Replace")
		c.data[i] = nil
		c.state[i] = PageFree
	}
	for _, cs := range c.chips {
		for b := range cs.eraseCount {
			cs.eraseCount[b] = 0
			cs.bad[b] = false
			cs.nextPage[b] = 0
			cs.readSerial[b] = 0
		}
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
	c.chipAt(a).bad[a.Block] = true
}

// Peek returns the stored image without timing or error injection.
// It is a debug/test hook, not part of the modelled hardware surface.
func (c *Card) Peek(a Addr) []byte {
	if err := c.checkAddr(a, true); err != nil {
		return nil
	}
	return c.data[c.PageIndex(a)]
}
