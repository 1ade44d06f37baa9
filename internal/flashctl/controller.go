// Package flashctl models the BlueDBM flash controller (paper §3.1.1):
// a low-level, thin, bit-error-corrected hardware interface to raw NAND
// chips, buses, blocks and pages.
//
// The interface contract follows the paper exactly:
//
//   - the user issues a tagged command (read / write / erase);
//   - for writes, the controller scheduler asks the user for the data
//     when it is ready to accept it;
//   - read data returns in bursts that may be interleaved and out of
//     order with respect to other in-flight reads, so users needing
//     FIFO semantics must keep completion buffers (flashserver does);
//   - multiple commands must be kept in flight to saturate the device,
//     since a flash operation costs 50 µs or more.
//
// Each controller instance manages one flash card, mirroring the
// Artix-7 chip on each custom flash board. Data moves between the card
// and its user over a serial chip-to-chip channel modelled on the
// paper's 4-lane Aurora link (3.3 GB/s, 0.5 µs).
package flashctl

import (
	"errors"
	"fmt"

	"repro/internal/ecc"
	"repro/internal/nand"
	"repro/internal/sim"
)

// Controller-level errors.
var (
	ErrTagInUse      = errors.New("flashctl: tag already in flight")
	ErrBadTag        = errors.New("flashctl: tag out of range or idle")
	ErrUncorrectable = errors.New("flashctl: uncorrectable ECC error")
	ErrWrongState    = errors.New("flashctl: command in wrong state")
	ErrDataSize      = errors.New("flashctl: write data must be exactly one page")
	ErrUnknownOp     = errors.New("flashctl: unknown op")
)

// Op selects the flash operation of a command.
type Op uint8

// Flash operations.
const (
	OpRead Op = iota
	OpWrite
	OpErase
)

func (o Op) String() string {
	switch o {
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	case OpErase:
		return "erase"
	default:
		return fmt.Sprintf("op(%d)", uint8(o))
	}
}

// Command is one tagged flash request.
type Command struct {
	Op   Op
	Tag  int
	Addr nand.Addr
	// Bulk marks a read that may wait: the card runs it at bulk
	// priority (nand.Card.ReadPageBulk). Other ops ignore it.
	Bulk bool
}

// Handlers are the user-side callback surface of the controller. Any
// nil handler is simply not invoked.
type Handlers struct {
	// ReadChunk delivers one burst of read data. Bursts belonging to
	// different tags may interleave; bursts of one tag arrive in order,
	// offset by offset, with no gaps.
	//
	// Ownership: the chunks of one tag are consecutive views of one page
	// buffer, so chunk k+1 starts in memory where chunk k ends, and they
	// are read-only. The buffer is as a rule the image the card stores
	// (nand.ReadPage), which every clean read of the page delivers — not
	// even decoded when it is a page image the controller programmed,
	// since it carries no check bytes and its page needs no correction;
	// only a read with bits to correct streams a private, corrected copy
	// (ecc.DecodePage). The controller drops its reference after the
	// last burst: a consumer may keep the views (and reslice the first
	// one up to the whole page, a page image) instead of copying them,
	// and must not write through them.
	ReadChunk func(tag int, offset int, chunk []byte, last bool)
	// ReadDone fires after the final burst (or on error, with no data).
	// corrected is the number of ECC-corrected bit flips in the page.
	ReadDone func(tag int, corrected int, err error)
	// WriteDataReq tells the user the controller is ready to accept the
	// page data for a previously issued write command.
	WriteDataReq func(tag int)
	// WriteDone acknowledges a completed (or failed) program.
	WriteDone func(tag int, err error)
	// EraseDone acknowledges a completed (or failed) erase.
	EraseDone func(tag int, err error)
}

// Config sizes the controller.
type Config struct {
	Tags            int   // tag space; in-flight command limit
	BurstBytes      int   // read-data burst granularity on the serial link
	LinkBytesPerSec int64 // card <-> user serial channel bandwidth
	LinkLatency     sim.Time
}

// DefaultConfig matches the paper's flash board: 128 tags, 3.3 GB/s
// Aurora channel at 0.5 µs, 2 KB bursts.
func DefaultConfig() Config {
	return Config{
		Tags:            128,
		BurstBytes:      2048,
		LinkBytesPerSec: 3_300_000_000,
		LinkLatency:     500 * sim.Nanosecond,
	}
}

// pageState is the page of one tag while it crosses a serial link: a
// read's verified page as it streams to the user, or a write's image on
// its way down to the card. Either way the controller only reads it.
type pageState struct {
	data      []byte // read: view of the stored image, or of the corrected copy; write: the image; nil when nothing is moving
	sent      int    // read: bytes delivered so far
	corrected int
}

type tagState uint8

const (
	tagIdle tagState = iota
	tagReading
	tagAwaitingData // write issued, data not yet supplied
	tagWriting
	tagErasing
)

// Controller drives one nand.Card.
type Controller struct {
	eng   *sim.Engine
	card  *nand.Card
	codec *ecc.PageCodec
	cfg   Config
	h     Handlers

	toUser   *sim.Pipe // card -> user (read data)
	fromUser *sim.Pipe // user -> card (write data)

	tags  []tagState
	addrs []nand.Addr

	// Per-tag command state and the NAND completions, which arrive in
	// any order and are bound once per tag at construction so no command
	// schedules a closure.
	pages  []pageState
	onPage []func(raw []byte, err error) // NAND read completion
	onCard []func(err error)             // NAND program or erase completion

	// The steps that finish in the order they were started — a burst's
	// crossing of the FIFO link up to the user, a write's zero-delay data
	// request, its image's crossing of the FIFO link down to the card —
	// keep their tags in a queue each and share one continuation, which
	// pops the tag it is for.
	bursting  sim.Queue[int] // reads with a burst crossing the link up
	asking    sim.Queue[int] // writes about to ask the user for their page
	linking   sim.Queue[int] // writes whose image is crossing the link down
	onBurst   func()
	onDataReq func()
	onLinked  func()

	// stats
	CorrectedBits sim.Counter
	Uncorrectable sim.Counter
	ReadsIssued   sim.Counter
	WritesIssued  sim.Counter
	ErasesIssued  sim.Counter
}

// New builds a controller over card. The card's OOB size must match
// the ECC codec's requirement (PageSize/8).
func New(eng *sim.Engine, card *nand.Card, cfg Config, h Handlers) (*Controller, error) {
	geo := card.Geometry()
	codec, err := ecc.NewPageCodec(geo.PageSize)
	if err != nil {
		return nil, err
	}
	if codec.OOBSize() != geo.OOBSize {
		return nil, fmt.Errorf("flashctl: card OOB %d does not fit ECC need %d", geo.OOBSize, codec.OOBSize())
	}
	if cfg.Tags <= 0 || cfg.BurstBytes <= 0 || cfg.LinkBytesPerSec <= 0 {
		return nil, fmt.Errorf("flashctl: invalid config %+v", cfg)
	}
	name := card.Name()
	c := &Controller{
		eng:      eng,
		card:     card,
		codec:    codec,
		cfg:      cfg,
		h:        h,
		toUser:   sim.NewPipe(eng, name+"/link-up", cfg.LinkBytesPerSec, cfg.LinkLatency),
		fromUser: sim.NewPipe(eng, name+"/link-down", cfg.LinkBytesPerSec, cfg.LinkLatency),
		tags:     make([]tagState, cfg.Tags),
		addrs:    make([]nand.Addr, cfg.Tags),
		pages:    make([]pageState, cfg.Tags),
		onPage:   make([]func([]byte, error), cfg.Tags),
		onCard:   make([]func(error), cfg.Tags),
	}
	for tag := range c.tags {
		c.onPage[tag] = func(raw []byte, err error) { c.pageRead(tag, raw, err) }
		c.onCard[tag] = func(err error) { c.cardDone(tag, err) }
	}
	c.onBurst = func() { c.burstDelivered(c.bursting.Pop()) }
	c.onDataReq = func() {
		tag := c.asking.Pop()
		if c.h.WriteDataReq != nil {
			c.h.WriteDataReq(tag)
		}
	}
	c.onLinked = func() { c.program(c.linking.Pop()) }
	card.SetEncoder(codec.EncodeInPlace)
	return c, nil
}

// Config returns the controller's configuration.
func (c *Controller) Config() Config { return c.cfg }

// PageSize returns the logical page size exposed to users.
func (c *Controller) PageSize() int { return c.card.Geometry().PageSize }

// FreeTags returns how many tags are currently idle.
//
//simlint:allow unused (probe: the controller and flash-server tests check that every tag comes home after a failure)
func (c *Controller) FreeTags() int {
	n := 0
	for _, s := range c.tags {
		if s == tagIdle {
			n++
		}
	}
	return n
}

// Issue submits a command. It returns an error synchronously for
// malformed commands (bad tag, tag in use, unknown op) before it
// records anything; operation outcomes arrive via the handlers.
func (c *Controller) Issue(cmd Command) error {
	if cmd.Tag < 0 || cmd.Tag >= c.cfg.Tags {
		return fmt.Errorf("%w: %d", ErrBadTag, cmd.Tag)
	}
	if c.tags[cmd.Tag] != tagIdle {
		return fmt.Errorf("%w: %d", ErrTagInUse, cmd.Tag)
	}
	if cmd.Op > OpErase {
		return fmt.Errorf("%w: %v", ErrUnknownOp, cmd.Op)
	}
	c.addrs[cmd.Tag] = cmd.Addr
	switch cmd.Op {
	case OpRead:
		c.tags[cmd.Tag] = tagReading
		c.ReadsIssued.Inc()
		if cmd.Bulk {
			c.card.ReadPageBulk(cmd.Addr, c.onPage[cmd.Tag])
		} else {
			c.card.ReadPage(cmd.Addr, c.onPage[cmd.Tag])
		}
	case OpWrite:
		c.tags[cmd.Tag] = tagAwaitingData
		c.WritesIssued.Inc()
		// The scheduler asks for data as soon as the command is queued;
		// backpressure comes from the fromUser link and the nand bus.
		c.asking.Push(cmd.Tag)
		c.eng.After(0, c.onDataReq)
	case OpErase:
		c.tags[cmd.Tag] = tagErasing
		c.ErasesIssued.Inc()
		c.card.EraseBlock(cmd.Addr, c.onCard[cmd.Tag])
	}
	return nil
}

// WriteImage supplies the page for a pending write command as the
// buffer flash will store: raw is a page image, PageSize bytes
// (nand.Geometry.PageImage). The controller takes ownership of raw and
// hands it to the card, which adopts it (nand.ProgramPage) — the user's
// one snapshot of the page is the only page-sized allocation of the
// program path. The caller must not touch raw afterwards, unless the
// call or the write fails: an error here, or in WriteDone, means
// nothing below kept raw.
//
// The controller encodes only what it will decode, and nothing here:
// the card stores the page without check bytes, a clean read of it is
// not decoded, and a read that draws flips gets its check bytes
// computed from the page by the card, on its private copy.
func (c *Controller) WriteImage(tag int, raw []byte) error {
	if tag < 0 || tag >= c.cfg.Tags {
		return fmt.Errorf("%w: %d", ErrBadTag, tag)
	}
	if c.tags[tag] != tagAwaitingData {
		return fmt.Errorf("%w: tag %d is not awaiting data", ErrWrongState, tag)
	}
	if len(raw) != c.PageSize() {
		return fmt.Errorf("%w: image is %d bytes, want %d", ErrDataSize, len(raw), c.PageSize())
	}
	c.tags[tag] = tagWriting
	// The page crosses the serial link in 128-bit bursts (modelled as
	// one serialized transfer; the check bytes are generated card-side),
	// then is programmed.
	c.pages[tag].data = raw
	c.linking.Push(tag)
	c.fromUser.Transfer(c.PageSize(), c.onLinked)
	return nil
}

// program hands the image that just crossed the link to the card.
func (c *Controller) program(tag int) {
	raw := c.pages[tag].data
	c.pages[tag].data = nil // the card owns the image from here
	c.card.ProgramPage(c.addrs[tag], raw, c.onCard[tag])
}

// cardDone frees the tag of a finished program or erase and
// acknowledges it to the user.
func (c *Controller) cardDone(tag int, err error) {
	done := c.h.WriteDone
	if c.tags[tag] == tagErasing {
		done = c.h.EraseDone
	}
	c.tags[tag] = tagIdle
	if done != nil {
		done(tag, err)
	}
}

// pageRead takes the image the card delivered, verifies it — correcting
// into a private copy if it must, never into raw, which the card may
// still store — and starts streaming the page to the user.
//
// The controller decodes only what can differ from what it programmed.
// A read of a page image that drew no flip delivers the image
// WriteImage was handed, byte for byte: a page with no check bytes,
// which needs no correction. That read streams raw as it stands. Every
// other read — one that drew flips (a StoredPageSize copy, its check
// bytes filled by the card), an image programmed around the controller
// — is decoded. The ECC pipeline's virtual time is charged either way:
// it is part of nand.Timing.ReadPage.
func (c *Controller) pageRead(tag int, raw []byte, err error) {
	if err != nil {
		c.finishRead(tag, 0, err)
		return
	}
	res := ecc.DecodeResult{Data: raw}
	if len(raw) != c.PageSize() {
		res, err = c.codec.DecodePage(raw)
	}
	if err != nil {
		c.Uncorrectable.Inc()
		c.finishRead(tag, 0, fmt.Errorf("%w: %v: %v", ErrUncorrectable, c.addrs[tag], err))
		return
	}
	c.CorrectedBits.Add(int64(res.Corrected))
	c.pages[tag] = pageState{data: res.Data, corrected: res.Corrected}
	c.sendBurst(tag)
}

// sendBurst puts the tag's next BurstBytes on the shared serial link.
// Bursts of concurrent reads interleave in link-FIFO order — exactly
// the out-of-order behaviour §3.1.1 warns users about.
//
//simlint:hotpath
func (c *Controller) sendBurst(tag int) {
	c.bursting.Push(tag)
	c.toUser.Transfer(c.burstLen(tag), c.onBurst)
}

// burstLen is the size of the tag's next burst: BurstBytes, or what is
// left of the page.
//
//simlint:hotpath
func (c *Controller) burstLen(tag int) int {
	r := &c.pages[tag]
	return min(c.cfg.BurstBytes, len(r.data)-r.sent)
}

// burstDelivered hands the burst that just crossed the link to the
// user as a view of the page buffer, then sends the next one or, after
// the last, drops the buffer and completes the read.
//
//simlint:hotpath
func (c *Controller) burstDelivered(tag int) {
	r := &c.pages[tag]
	offset := r.sent
	r.sent += c.burstLen(tag)
	last := r.sent == len(r.data)
	if c.h.ReadChunk != nil {
		c.h.ReadChunk(tag, offset, r.data[offset:r.sent], last)
	}
	if !last {
		c.sendBurst(tag)
		return
	}
	corrected := r.corrected
	*r = pageState{}
	c.finishRead(tag, corrected, nil)
}

func (c *Controller) finishRead(tag, corrected int, err error) {
	c.tags[tag] = tagIdle
	if c.h.ReadDone != nil {
		c.h.ReadDone(tag, corrected, err)
	}
}
