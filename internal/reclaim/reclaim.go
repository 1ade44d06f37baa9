// Package reclaim is the stack's one log-structured page store (paper
// §4, where RFS does the FTL's work itself). The FTL and the RFS are two
// keyings of a Log: the FTL keys its pages by logical page number, one
// log per card, and the RFS by (inode, page), one log over every
// segment it stripes. The log owns what both do to a page:
//   - the reverse map, ppn → key, and with it per-page validity; the
//     layer keeps the forward map (Keying);
//   - the pooled page-op record, its continuations bound once;
//   - a read, counted against its unit until it completes, and a write:
//     admit → allocate → program → install, the old copy invalidated,
//     behind the one write-size check;
//   - the three-step move: read, program, re-validate and install, with
//     its read faults and lost pages;
//   - erase and bad-unit retirement, and the reclaimer whose passes take
//     a victim unit, relocate its live pages and erase it;
//   - one drain check and one mapping check (Check, CheckInvariants).
//
// It runs over one device port (Port): read, program and erase by linear
// ppn, with a one-byte traffic tag. A keying brings its policies as
// functions: Alloc (its frontiers, and when a write may Hold), Pick (a
// victim other than the greedy one), Erased (where an erased unit goes)
// and the depth of a pass.
//
// Concurrency rules (all in virtual time, single-threaded):
//   - A pass starts when an allocation finds the free pool at the
//     low-water mark (Hold). Its victim is sealed, so no new program
//     can target it, but programs already issued may still be in
//     flight: the pass relocates nothing until they have completed and
//     their mappings are installed (Unit.Programs). Before that the
//     victim's live pages look dead, and the erase would destroy them
//     under mappings installed moments later.
//   - Writes proceed during a pass while the free pool stays above a
//     reserve of one unit: their frontiers are disjoint from the victim.
//     At the reserve they queue behind the pass and run when it ends, so
//     they can never starve the relocation destination.
//   - Reads resolve their mapping at issue time and never wait: a move
//     only copies, so a racing read still finds its data on the victim.
//     The one destructive step, the victim erase, waits until the reads
//     in flight against the victim drain (Unit.Reads). After relocation
//     no mapping points into the victim, so no new read can resolve
//     there. Whoever reads a unit registers here, and only here (Read).
//   - Every move re-validates its page before it installs the copy: a
//     page invalidated mid-move is dropped, never resurrected.
//   - A program that fails on a bad block retires its unit and goes out
//     again elsewhere with the same image, a move's included.
//   - A pass that cannot relocate (no room, or a copy's program failed)
//     aborts and stalls the log: allocations stop re-triggering the same
//     doomed pass and fail with ErrNoSpace once the pool is dry, until
//     an invalidation or an erase changes the economics.
package reclaim

import (
	"errors"
	"fmt"

	"repro/internal/flashctl"
	"repro/internal/nand"
	"repro/internal/sim"
)

// ErrNoSpace is what an allocation fails with when the free pool is dry
// and no pass can make room. A write of anything but one page image
// fails with flashctl.ErrDataSize, the sentinel every layer that catches
// it wraps.
var ErrNoSpace = errors.New("reclaim: no free space and nothing to reclaim")

// TagMove is the traffic tag of the log's own work: a move's read and
// program. Ports schedule it apart from the layers' tags.
const TagMove uint8 = 0xFF

// reserveUnits is the free-unit floor below which writes wait behind a
// running pass: the last unit is the relocation destination, and a
// write that raced the pass for it would abort the pass and wedge the
// log.
const reserveUnits = 1

// noKey marks a page that holds no live key.
const noKey = ^uint64(0)

// Port is the device under a log: pages are named by linear ppn,
// unit*pages + page, and Erase takes a unit's first page. A port may
// delay operations arbitrarily, but programs carrying the same tag must
// reach the flash in issue order: a keying allocates each tag's
// frontier pages in issue order and NAND blocks program in order.
//
// Ownership: page images are immutable (nand.Geometry.PageImage). Read
// delivers a page image the callback may keep and must not write to: as
// a rule the image the card stores, whoever else holds it; a move
// programs that very buffer back. Program ADOPTS img, a page image: the
// port passes it down by reference until the card stores it, and must
// neither copy it for its own keeping nor write to it. Only a failed
// program — cb with an error — returns the image to the log, which may
// issue the same one again.
type Port interface {
	Read(ppn int, tag uint8, cb func(data []byte, err error))
	Program(ppn int, tag uint8, img []byte, cb func(err error))
	Erase(ppn int, cb func(err error))
}

// Keying is a layer's forward map, key → ppn; the log keeps the reverse.
type Keying interface {
	// Lookup returns the ppn key maps to, or -1.
	Lookup(key uint64) int
	// Map points key at ppn, or unmaps it (ppn -1); moved marks the copy
	// a move installs. It reports false, and maps nothing, for a key gone
	// from the layer's namespace (a file removed while its write was in
	// flight).
	Map(key uint64, ppn int, moved bool) bool
	// Mapped counts the keys that map a page.
	Mapped() int
}

// Unit is one erase unit's bookkeeping.
type Unit struct {
	Valid, Written  int  // pages holding live data; pages allocated
	Programs, Reads int  // operations in flight against the unit
	Bad, Active     bool // retired; a write frontier
}

// pass is one pass in progress.
type pass struct {
	on, running                 bool // a pass is on; its relocation has started
	victim, next                int  // the unit; its next page to scan
	inflight                    int  // moves started and not yet done
	aborted, relocated, erasing bool
}

// Log is one log-structured page store over a Port.
type Log struct {
	// Port is the device under the log. A test may wrap it before the
	// log's first operation.
	Port  Port
	Units []Unit
	// Free is the free-unit count. The keying's pool keeps it current
	// and calls Urgent when it changes.
	Free int
	// Urgent fires when Free changes (the layer above feeds Urgency
	// into its scheduler). It is never nil.
	Urgent func()

	// Alloc takes the next page for a program on tag: the keying's
	// frontiers. A write passes its retry, and the keying may park it
	// behind a pass (Hold), returning -1 and no error; a move passes
	// nil and gets a page or an error, which fails the pass.
	Alloc func(tag uint8, retry func()) (ppn int, err error)
	// Pick, when set, names the victim of the pass about to start, or
	// returns -1 to leave it to the greedy rule.
	Pick func() int
	// Erased returns a unit the victim erase emptied to the keying's pool.
	Erased func(unit int)

	Writes, Reads             int64 // writes admitted; reads issued
	Programs, Erases          int64 // flash programs and erases issued, moves' included
	Moves, Dropped            int64 // move reads that programmed a copy; that did not (page dead, or no room)
	Passes, Aborts            int64 // passes started; of them, aborted
	BadUnits                  int64 // units retired
	ReadFaults, Uncorrectable int64 // reads that failed; of them, failed by ECC
	MoveReadFaults, LostPages int64 // move reads that failed; mappings they dropped

	name             string
	keys             Keying
	rev              []uint64 // ppn -> key, noKey when dead
	live             int
	pages, pageSize  int
	lowWater, depth  int
	ops              sim.Pool[op]
	p                pass
	stalled, pumping bool
	queue, spare     []func() // ops waiting behind the pass; queue's other storage
	onErased         func(err error)
}

// New builds the log of the layer named name over cards cards of
// geometry geo laid end to end: a unit is an erase block, a page a
// flash page. A pass starts when the free pool drops to lowWater, which
// must be at least 1, and keeps up to depth moves in flight. keys is the
// layer's forward map; the layer sets Alloc and Erased, and fills Free.
func New(name string, geo nand.Geometry, cards, lowWater, depth int, port Port, keys Keying) (*Log, error) {
	if lowWater < 1 {
		return nil, fmt.Errorf("low-water mark %d: a pass needs at least one free unit to start from", lowWater)
	}
	total := cards * geo.TotalPages()
	l := &Log{
		Port:     port,
		Units:    make([]Unit, total/geo.PagesPerBlock),
		Urgent:   func() {},
		name:     name,
		keys:     keys,
		rev:      make([]uint64, total),
		pages:    geo.PagesPerBlock,
		pageSize: geo.PageSize,
		lowWater: lowWater,
		depth:    max(depth, 1),
	}
	for i := range l.rev {
		l.rev[i] = noKey
	}
	l.onErased = l.erased
	l.ops.New = l.newOp
	return l, nil
}

// op is one page operation in flight in the log: a read until its
// callback, a write until its mapping is installed, a move from its
// read until its copy is installed. Ops are pooled, and the
// continuations an op hands down — the port's completions, and itself as
// the thing to queue behind a pass — are bound when the record is made,
// so a page operation allocates nothing here but a write's image.
type op struct {
	key      uint64
	tag      uint8
	ppn, src int // the page read or programmed; a move's victim page
	// img is a write's page image, or what a move read. The op holds the
	// reference so that a program that fails on a bad block can go out
	// again with the same image; while a program is in flight the image
	// belongs to the layers below, and after a successful one to the card.
	img []byte
	rcb func(data []byte, err error)
	wcb func(err error)

	// bound once
	run       func() // write: take a page and program it
	onRead    func(data []byte, err error)
	onProgram func(err error)
}

// newOp is ops.New.
func (l *Log) newOp() *op {
	o := &op{}
	o.run = func() { l.place(o) }
	o.onRead = func(data []byte, err error) { l.readDone(o, data, err) }
	o.onProgram = func(err error) { l.programmed(o, err) }
	return o
}

// put zeroes an op, keeping its bound continuations, and returns it to
// the pool. Its caller has taken the outcome out of it: no port
// completion is outstanding on it and no queue holds it.
//
//simlint:hotpath
func (l *Log) put(o *op) {
	*o = op{run: o.run, onRead: o.onRead, onProgram: o.onProgram}
	l.ops.Put(o)
}

// Live returns the number of pages holding live data.
func (l *Log) Live() int { return l.live }

// Urgency is how badly the log needs its passes to run: 0 with the
// free pool at or above the low-water mark, rising to 1 as the pool
// runs dry. It measures the deficit below the trigger point, not pool
// fullness: while passes keep up, relocation deserves no device share.
func (l *Log) Urgency() float64 {
	return min(max(1-float64(l.Free)/float64(l.lowWater), 0), 1)
}

// Read reads page ppn on tag, counted against its unit until it
// completes: the victim erase waits for that count. The layer resolved
// ppn from its forward map at issue time.
//
//simlint:hotpath
func (l *Log) Read(ppn int, tag uint8, cb func(data []byte, err error)) {
	l.Reads++
	l.Units[ppn/l.pages].Reads++
	o := l.ops.Get()
	o.ppn, o.tag, o.rcb = ppn, tag, cb
	l.read(o)
}

// read issues the flash read of o.ppn; readDone hears the outcome.
//
//simlint:hotpath
func (l *Log) read(o *op) {
	//simlint:allow hotpath (the port dispatch: each port's admission path carries its own hotpath annotations)
	l.Port.Read(o.ppn, o.tag, o.onRead)
}

// readDone is the port's completion of a read or of a move's read.
//
//simlint:hotpath
func (l *Log) readDone(o *op, data []byte, err error) {
	if o.tag == TagMove {
		l.moveRead(o, data, err)
		return
	}
	unit, cb := o.ppn/l.pages, o.rcb
	l.put(o)
	if err != nil {
		l.ReadFaults++
		if errors.Is(err, flashctl.ErrUncorrectable) {
			l.Uncorrectable++
		}
	}
	l.Units[unit].Reads--
	l.wake()
	cb(data, err)
}

// Write stores img, a page image the log adopts, under key on tag. It
// proceeds during a pass on its own frontier, which cannot disturb the
// victim, unless the pool is at the reserve. Writes are not ordered
// against writes queued behind a pass: same-key racers have no ordering
// guarantee anywhere in the stack, and callers that need
// read-your-write await completions.
func (l *Log) Write(key uint64, img []byte, tag uint8, cb func(err error)) {
	if len(img) != l.pageSize {
		cb(fmt.Errorf("%w: got %d want %d", flashctl.ErrDataSize, len(img), l.pageSize))
		return
	}
	l.Writes++
	o := l.ops.Get()
	o.key, o.tag, o.img, o.wcb = key, tag, img, cb
	l.admit(o.run)
}

// place takes a page for o's image and programs it there. It is a
// write's run continuation, what a pass parks behind it. A move's
// allocation must not wait behind its own pass: it takes a page or
// fails the pass.
//
//simlint:hotpath
func (l *Log) place(o *op) {
	retry := o.run
	if o.tag == TagMove {
		retry = nil
	}
	ppn, err := l.Alloc(o.tag, retry)
	switch {
	case err != nil:
		l.landed(o, err)
	case ppn >= 0:
		l.program(o, ppn)
	}
}

// program writes o's image at ppn; programmed hears the outcome.
//
//simlint:hotpath
func (l *Log) program(o *op, ppn int) {
	l.Programs++
	o.ppn = ppn
	l.Units[ppn/l.pages].Programs++
	//simlint:allow hotpath (the port dispatch: each port's admission path carries its own hotpath annotations)
	l.Port.Program(ppn, o.tag, o.img, o.onProgram)
}

// programmed is the port's completion of a program. A program that
// failed on a bad block kept nothing: its unit is retired, and the
// image is the op's again and goes out once more, elsewhere.
//
//simlint:hotpath
func (l *Log) programmed(o *op, err error) {
	unit := o.ppn / l.pages
	l.Units[unit].Programs--
	if errors.Is(err, nand.ErrBadBlock) {
		l.retire(unit)
		l.wake() // a pass waiting on the unit's programs can proceed now
		l.place(o)
		return
	}
	l.landed(o, err) // installs the mapping before a pass waiting on the unit wakes
	l.wake()
}

// landed ends a program — a write's or a move's — whose image is stored
// at o.ppn, or that failed for good.
//
//simlint:hotpath
func (l *Log) landed(o *op, err error) {
	if o.tag == TagMove {
		l.moved(o, err)
		return
	}
	key, ppn, cb := o.key, o.ppn, o.wcb
	l.put(o)
	if err == nil {
		l.install(key, ppn, false)
	}
	cb(err)
}

// install maps key to its new copy at ppn and only then drops the old
// one: the new copy is durable first. A key gone from the namespace
// maps nothing, and the page stays dead for a pass to collect.
//
//simlint:hotpath
func (l *Log) install(key uint64, ppn int, moved bool) {
	old := l.keys.Lookup(key)
	if !l.keys.Map(key, ppn, moved) {
		return
	}
	if old >= 0 {
		l.Invalidate(old)
	}
	l.rev[ppn] = key
	l.Units[ppn/l.pages].Valid++
	l.live++
}

// Invalidate marks page ppn dead, as an overwrite, a trim or a removal
// does; the layer drops its forward mapping itself. It shrinks some
// victim's relocation demand, so it clears a stall; a pass that still
// cannot fit aborts and stalls again, so this cannot loop.
//
//simlint:hotpath
func (l *Log) Invalidate(ppn int) {
	if l.rev[ppn] == noKey {
		return
	}
	l.rev[ppn] = noKey
	l.live--
	l.Units[ppn/l.pages].Valid--
	l.stalled = false
}

// retire takes a unit out of service for good. A keying's frontier that
// still names it finds it retired at its next allocation (Take).
func (l *Log) retire(unit int) {
	u := &l.Units[unit]
	if u.Bad {
		return
	}
	u.Bad, u.Active = true, false
	l.BadUnits++
}

// Take returns the next page of frontier unit u, or -1 once u is full or
// retired, when it stops being a frontier.
func (l *Log) Take(unit int) int {
	u := &l.Units[unit]
	if u.Bad || u.Written == l.pages {
		u.Active = false
		return -1
	}
	u.Written++
	return unit*l.pages + u.Written - 1
}

// Open makes free unit a frontier.
func (l *Log) Open(unit int) {
	u := &l.Units[unit]
	u.Active, u.Written, u.Valid = true, 0, 0
}

// move is a pass's step over one victim page: if the page is live, read
// it, program the copy on TagMove, and re-point its key. It reports
// whether it started.
//
//simlint:hotpath
func (l *Log) move(unit, page int) bool {
	ppn := unit*l.pages + page
	key := l.rev[ppn]
	if key == noKey {
		return false
	}
	o := l.ops.Get()
	o.key, o.tag, o.ppn, o.src = key, TagMove, ppn, ppn
	l.read(o)
	return true
}

// moveRead takes a move's read and programs what it read. The copy is
// placed after the read completes, so concurrent moves still program
// their frontier strictly in order.
//
// Ownership: the read result is re-programmed as it stands — the image
// the victim page stores; until the victim is erased two flash pages
// hold the one immutable image — so a move costs no payload byte.
//
//simlint:hotpath
func (l *Log) moveRead(o *op, data []byte, err error) {
	src, key := o.src, o.key
	if err != nil {
		// Unreadable: drop the mapping if it still points here, and
		// count the loss so that the layer above (mirroring, scrubbing)
		// can see it instead of finding it silently gone.
		l.MoveReadFaults++
		if l.rev[src] == key {
			l.Invalidate(src)
			if l.keys.Lookup(key) == src {
				l.keys.Map(key, -1, true)
				l.LostPages++
			}
		}
		l.endMove(o, false)
		return
	}
	if l.rev[src] != key {
		l.Dropped++ // invalidated while the read was in flight
		l.endMove(o, false)
		return
	}
	dst, aerr := l.Alloc(TagMove, nil)
	if aerr != nil {
		l.Dropped++ // no room for the copy: the pass fails
		l.endMove(o, true)
		return
	}
	l.Moves++
	o.img = data
	l.program(o, dst)
}

// endMove ends a move that programs nothing; abort fails the pass.
//
//simlint:hotpath
func (l *Log) endMove(o *op, abort bool) {
	l.put(o)
	l.done(abort)
}

// moved ends a move whose copy is stored at o.ppn, or whose program
// failed for good, which fails the pass. A page invalidated while the
// copy was in flight keeps its new mapping: the copy stays dead.
//
//simlint:hotpath
func (l *Log) moved(o *op, err error) {
	src, dst, key := o.src, o.ppn, o.key
	l.put(o)
	if err == nil && l.rev[src] == key {
		l.install(key, dst, true)
	}
	l.done(err != nil)
}

// admit runs op now, or queues it behind the running pass when the
// free pool is at the reserve.
func (l *Log) admit(op func()) {
	if l.p.on && l.Free <= reserveUnits {
		l.queue = append(l.queue, op)
		return
	}
	op()
}

// Hold is the gate of an allocation about to take a free unit. At the
// low-water mark it starts a pass and queues retry behind it; while a
// pass runs with the pool at the reserve it queues retry too. It
// reports whether retry was queued; if not, the caller allocates, and
// a dry pool then means ErrNoSpace with no pass in flight.
func (l *Log) Hold(retry func()) bool {
	if l.Free <= l.lowWater && !l.p.on && !l.stalled {
		v := -1
		if l.Pick != nil {
			v = l.Pick()
		}
		if v < 0 {
			v = l.greedy()
		}
		if v >= 0 {
			// Queued before the start: with a synchronous port the whole
			// pass, drain included, can end inside it.
			l.queue = append(l.queue, retry)
			l.Passes++
			l.p = pass{on: true, victim: v}
			l.wake()
			return true
		}
	}
	if l.p.on && l.Free <= reserveUnits {
		l.queue = append(l.queue, retry)
		return true
	}
	return false
}

// greedy picks the sealed unit with the fewest valid pages (the lowest
// index on ties), skipping bad, active and all-valid units; -1 if none.
func (l *Log) greedy() int {
	best := -1
	for i := range l.Units {
		u := &l.Units[i]
		if u.Bad || u.Active || u.Written < l.pages || u.Valid == l.pages {
			continue
		}
		if best < 0 || u.Valid < l.Units[best].Valid {
			best = i
		}
	}
	return best
}

// wake re-checks the two drains a pass waits on: relocation starts once
// no program is in flight against the victim, the erase once no read
// is. It runs after each program or read counted out, a program only
// once it has installed its page's mapping.
//
//simlint:hotpath
func (l *Log) wake() {
	p := &l.p
	switch {
	case !p.on:
	case !p.running:
		if l.Units[p.victim].Programs == 0 {
			p.running = true
			l.pump()
		}
	case p.relocated && !p.erasing && l.Units[p.victim].Reads == 0:
		p.erasing = true
		l.Erases++
		l.Port.Erase(p.victim*l.pages, l.onErased)
	}
}

// done ends a move the pump started. abort fails the pass: there was no
// room for the copy, or its program failed.
//
//simlint:hotpath
func (l *Log) done(abort bool) {
	l.p.inflight--
	l.p.aborted = l.p.aborted || abort
	l.pump()
}

// pump keeps up to depth moves in flight over the victim's pages, then
// erases the victim or ends the aborted pass. It is iterative: a move
// that completes inside move re-enters through done and returns at
// once, so a unit's page count never costs stack.
//
//simlint:hotpath
func (l *Log) pump() {
	p := &l.p
	if l.pumping || !p.running {
		return
	}
	l.pumping = true
	for !p.aborted && p.inflight < l.depth && p.next < l.pages {
		page := p.next
		p.next++
		p.inflight++
		if !l.move(p.victim, page) {
			p.inflight--
		}
	}
	l.pumping = false
	switch {
	case p.inflight > 0:
	case p.aborted:
		l.stalled = true
		l.Aborts++
		l.finish()
	default:
		p.relocated = true
		l.wake()
	}
}

// erased is the victim erase's completion: an erased unit goes back to
// the keying's pool, one that failed its erase is retired.
func (l *Log) erased(err error) {
	v := l.p.victim
	if err != nil {
		l.retire(v)
	} else {
		u := &l.Units[v]
		u.Valid, u.Written = 0, 0
		l.stalled = false // fresh erased space: a stalled log can progress
		l.Erased(v)
	}
	l.finish()
}

// finish ends the pass and drains the ops queued behind it. The queue
// swaps between two backing arrays instead of growing a new one per
// pass; the one being drained is held by this call alone, so a drain
// nested in it (a drained op whose pass ends synchronously) queues into
// fresh storage. A drained op that starts the next pass requeues the
// rest behind it.
func (l *Log) finish() {
	l.p = pass{}
	ops := l.queue
	l.queue, l.spare = l.spare[:0], nil
	for i, op := range ops {
		ops[i] = nil
		if l.p.on {
			l.queue = append(l.queue, op)
			continue
		}
		op()
	}
	l.spare = ops[:0]
}

// Check reports a log that has not drained — a page op out of its pool,
// a pass still on or an op queued behind it, a program or read counted
// in flight — or whose mapping is broken (CheckInvariants). A log that
// passes costs it no allocation.
func (l *Log) Check() error {
	var errs []error
	if l.ops.Out() != 0 {
		errs = append(errs, l.ops.Drained(l.name+" page ops"))
	}
	if l.p.on || len(l.queue) > 0 {
		errs = append(errs, fmt.Errorf("%s: pass on=%v over unit %d, %d ops queued", l.name, l.p.on, l.p.victim, len(l.queue)))
	}
	for i, u := range l.Units {
		if u.Programs != 0 || u.Reads != 0 {
			errs = append(errs, fmt.Errorf("%s: unit %d has %d programs and %d reads in flight", l.name, i, u.Programs, u.Reads))
			break
		}
	}
	if err := l.CheckInvariants(); err != nil {
		errs = append(errs, err)
	}
	return errors.Join(errs...)
}

// CheckInvariants checks the mapping: the forward map (the keying's) and
// the reverse map agree, each unit's Valid is the census of its live
// pages, and Free is the census of units that are erased and neither a
// frontier nor retired. It names the log and the unit.
func (l *Log) CheckInvariants() error {
	live, free := 0, 0
	for i, u := range l.Units {
		valid := 0
		for ppn := i * l.pages; ppn < (i+1)*l.pages; ppn++ {
			key := l.rev[ppn]
			if key == noKey {
				continue
			}
			valid++
			if at := l.keys.Lookup(key); at != ppn {
				return fmt.Errorf("%s: unit %d: page %d holds key %#x, which maps to %d", l.name, i, ppn, key, at)
			}
		}
		if u.Valid != valid {
			return fmt.Errorf("%s: unit %d: valid=%d but %d live pages", l.name, i, u.Valid, valid)
		}
		live += valid
		if !u.Bad && !u.Active && u.Written == 0 {
			free++
		}
	}
	if mapped := l.keys.Mapped(); mapped != live || l.live != live {
		return fmt.Errorf("%s: %d keys mapped and %d counted live, but %d pages hold a key", l.name, mapped, l.live, live)
	}
	if free != l.Free {
		return fmt.Errorf("%s: free=%d but %d units are erased and idle", l.name, l.Free, free)
	}
	return nil
}
