package nand

import (
	"bytes"
	"errors"
	"slices"
	"strings"
	"testing"

	"repro/internal/sim"
)

// The chip's queues: ordinary reads alternating with programs and
// erases, no read passing a program of its page or an erase of its
// block, bulk reads in their own FIFO behind both, and no bulk read
// passed more than bulkPassLimit times.

// queuedCard is a perfect card with the first 16 pages of block 0 on
// chip (0, 0) and on chip (1, 0) programmed.
func queuedCard(t *testing.T) (*sim.Engine, *Card) {
	t.Helper()
	eng := sim.NewEngine()
	c := perfectCard(t, eng)
	for bus := 0; bus < 2; bus++ {
		for p := 0; p < 16; p++ {
			c.ProgramPage(Addr{Bus: bus, Page: p}, mkRaw(c, byte(p)), func(err error) {
				if err != nil {
					t.Fatal(err)
				}
			})
		}
	}
	eng.Run()
	return eng, c
}

// completionLog records which read finished, in order.
type completionLog struct{ names []string }

func (l *completionLog) read(t *testing.T, name string) func([]byte, error) {
	return func(_ []byte, err error) {
		if err != nil {
			t.Errorf("%s: %v", name, err)
		}
		l.names = append(l.names, name)
	}
}

func (l *completionLog) done(t *testing.T, name string) func(error) {
	return func(err error) {
		if err != nil {
			t.Errorf("%s: %v", name, err)
		}
		l.names = append(l.names, name)
	}
}

// On one chip every command below completes in the order it started: a
// read ends one bus transfer after its cell read, before the next cell
// operation can, and a program or an erase holds the chip to its end.

// TestReadsPassQueuedWritesOfOtherBlocks: reads queued behind programs
// and erases of other blocks pass them, one read per waiting command.
func TestReadsPassQueuedWritesOfOtherBlocks(t *testing.T) {
	eng, c := queuedCard(t)
	var log completionLog
	c.ReadPage(Addr{Page: 0}, log.read(t, "r0")) // the chip is busy from here
	c.ProgramPage(Addr{Block: 1}, mkRaw(c, 1), log.done(t, "p1"))
	c.EraseBlock(Addr{Block: 2}, log.done(t, "e2"))
	c.ProgramPage(Addr{Block: 1, Page: 1}, mkRaw(c, 2), log.done(t, "p1'"))
	for i, name := range []string{"r1", "r2", "r3", "r4"} {
		c.ReadPage(Addr{Page: 1 + i}, log.read(t, name))
	}
	eng.Run()
	if want := []string{"r0", "r1", "p1", "r2", "e2", "r3", "p1'", "r4"}; !slices.Equal(log.names, want) {
		t.Errorf("completion order %v, want %v", log.names, want)
	}
}

// TestReadPassesLaterProgramsOfItsBlock: reads of programmed pages pass
// queued programs of later pages of their block, one read per program,
// and return the pages' old bytes.
func TestReadPassesLaterProgramsOfItsBlock(t *testing.T) {
	eng, c := queuedCard(t)
	for p := range 2 {
		c.ProgramPage(Addr{Block: 1, Page: p}, mkRaw(c, byte(0x10+p)), func(err error) {
			if err != nil {
				t.Fatal(err)
			}
		})
	}
	eng.Run()
	var log completionLog
	c.ReadPage(Addr{Page: 0}, log.read(t, "r0")) // the chip is busy from here
	c.ProgramPage(Addr{Block: 1, Page: 2}, mkRaw(c, 0x5a), log.done(t, "p2"))
	c.ProgramPage(Addr{Block: 1, Page: 3}, mkRaw(c, 0x5b), log.done(t, "p3"))
	got := make([][]byte, 3)
	for i, name := range []string{"r1", "r2", "r3"} {
		c.ReadPage(Addr{Block: 1, Page: i % 2}, func(raw []byte, err error) {
			log.read(t, name)(raw, err)
			got[i] = raw
		})
	}
	eng.Run()
	if want := []string{"r0", "r1", "p2", "r2", "p3", "r3"}; !slices.Equal(log.names, want) {
		t.Errorf("completion order %v, want %v", log.names, want)
	}
	for i, raw := range got {
		if !bytes.Equal(raw, mkRaw(c, byte(0x10+i%2))) {
			t.Errorf("read %d of page %d did not return the page's bytes", i+1, i%2)
		}
	}
}

// TestReadNeverPassesItsOwnPage: a read issued while a program of its
// page is queued waits for it and returns the new bytes, while a read
// of another block passes the program; a read issued while an erase of
// its block is queued waits for the erase and finds the page free.
func TestReadNeverPassesItsOwnPage(t *testing.T) {
	eng, c := queuedCard(t)
	var log completionLog
	c.ReadPage(Addr{Page: 0}, log.read(t, "r0"))
	fresh := mkRaw(c, 0x5a)
	c.ProgramPage(Addr{Block: 1}, fresh, log.done(t, "p1"))
	var got []byte
	c.ReadPage(Addr{Block: 1}, func(raw []byte, err error) {
		log.read(t, "same")(raw, err)
		got = raw
	})
	c.ReadPage(Addr{Page: 1}, log.read(t, "other"))
	eng.Run()
	if want := []string{"r0", "other", "p1", "same"}; !slices.Equal(log.names, want) {
		t.Errorf("completion order %v, want %v", log.names, want)
	}
	if !bytes.Equal(got, fresh) {
		t.Error("the read of the page being programmed did not return the programmed image")
	}

	c.ReadPage(Addr{Page: 2}, log.read(t, "r0"))
	c.EraseBlock(Addr{}, log.done(t, "e0"))
	var readErr error
	c.ReadPage(Addr{Page: 3}, func(_ []byte, err error) { readErr = err })
	eng.Run()
	if !errors.Is(readErr, ErrReadFree) {
		t.Errorf("a read issued behind the erase of its block: %v, want ErrReadFree", readErr)
	}
}

// TestWritesNeverPassAnOlderRead: a program or an erase starts after
// every read queued before it, the read of the block it erases
// included.
func TestWritesNeverPassAnOlderRead(t *testing.T) {
	eng, c := queuedCard(t)
	var log completionLog
	c.ReadPage(Addr{Page: 0}, log.read(t, "r0"))
	c.ReadPage(Addr{Page: 1}, log.read(t, "r1"))
	c.ReadPage(Addr{Page: 5}, log.read(t, "r2"))
	c.ProgramPage(Addr{Block: 1}, mkRaw(c, 1), log.done(t, "p1"))
	c.EraseBlock(Addr{}, log.done(t, "e0"))
	c.ReadPage(Addr{Block: 1, Page: 0}, log.read(t, "r3"))
	eng.Run()
	if want := []string{"r0", "r1", "r2", "p1", "e0", "r3"}; !slices.Equal(log.names, want) {
		t.Errorf("completion order %v, want %v", log.names, want)
	}
}

// TestProgramIsNotStarvedByReads: under a nonstop stream of reads at
// one chip, at most one read issued after a program starts before it.
func TestProgramIsNotStarvedByReads(t *testing.T) {
	eng, c := queuedCard(t)
	const total, backlog = 64, 8
	issued, passes := 0, 0
	programIssued, programDone := false, false
	var read func(after bool) func([]byte, error)
	read = func(after bool) func([]byte, error) {
		return func(_ []byte, err error) {
			if err != nil {
				t.Error(err)
			}
			if after && !programDone {
				passes++
			}
			if issued < total {
				issued++
				c.ReadPage(Addr{Page: issued % 16}, read(programIssued))
			}
		}
	}
	for range backlog {
		issued++
		c.ReadPage(Addr{Page: issued % 16}, read(false))
	}
	programIssued = true
	c.ProgramPage(Addr{Block: 1}, mkRaw(c, 1), func(err error) {
		if err != nil {
			t.Error(err)
		}
		programDone = true
	})
	eng.Run()
	if !programDone {
		t.Fatal("the program never completed")
	}
	if passes > 1 {
		t.Errorf("%d reads issued after the program started before it, want at most 1", passes)
	}
	if issued != total {
		t.Errorf("%d reads issued, want %d", issued, total)
	}
}

// TestCheckDrainedNamesTheChip: a command left in a chip's queue, a
// chip still running an erase, or a read still crossing the chip's bus
// fails the card's drain check by card and chip.
func TestCheckDrainedNamesTheChip(t *testing.T) {
	eng, c := queuedCard(t)
	if err := c.CheckDrained(); err != nil {
		t.Fatalf("a drained card: %v", err)
	}
	c.EraseBlock(Addr{Bus: 1, Block: 3}, func(error) {})
	if err := c.CheckDrained(); err == nil || !strings.Contains(err.Error(), "t: chip b1.c0 holds 0 queued commands (running: true)") {
		t.Errorf("a chip erasing: %v, want it named", err)
	}
	eng.Run()
	c.ReadPage(Addr{Bus: 1}, func([]byte, error) {})
	eng.RunUntil(eng.Now() + DefaultTiming().ReadPage + 1)
	if err := c.CheckDrained(); err == nil || !strings.Contains(err.Error(), "t: chip b1.c0 holds 0 queued commands (running: false), its bus 1 transfers") {
		t.Errorf("a read crossing the bus: %v, want its chip named", err)
	}
	eng.Run()
	c.Strand(Addr{Bus: 1, Page: 2})
	if err := c.CheckDrained(); err == nil || !strings.Contains(err.Error(), "t: chip b1.c0 holds 1 queued commands") {
		t.Errorf("a stranded command: %v, want its chip named", err)
	}
}

// TestOrdinaryReadPassesBulkReads: an ordinary read queued behind k
// bulk reads at one chip starts as soon as the chip is free: right
// after the bulk read the chip was already running.
func TestOrdinaryReadPassesBulkReads(t *testing.T) {
	eng, c := queuedCard(t)
	var log completionLog
	for i := range 3 {
		c.ReadPageBulk(Addr{Page: i}, log.read(t, "bulk"))
	}
	c.ReadPage(Addr{Page: 3}, log.read(t, "ordinary"))
	eng.Run()
	if want := []string{"bulk", "ordinary", "bulk", "bulk"}; !slices.Equal(log.names, want) {
		t.Errorf("completion order %v, want %v", log.names, want)
	}
}

// TestBulkReadsKeepFIFOOrder: bulk reads complete in the order they
// were issued, whatever ordinary reads interleave with them.
func TestBulkReadsKeepFIFOOrder(t *testing.T) {
	eng, c := queuedCard(t)
	var log completionLog
	for i := range 8 {
		c.ReadPageBulk(Addr{Page: i}, log.read(t, string(rune('a'+i))))
		if i%3 == 1 {
			c.ReadPage(Addr{Page: 8 + i}, log.read(t, "-"))
		}
	}
	eng.Run()
	var bulk []string
	for _, n := range log.names {
		if n != "-" {
			bulk = append(bulk, n)
		}
	}
	if want := []string{"a", "b", "c", "d", "e", "f", "g", "h"}; !slices.Equal(bulk, want) {
		t.Errorf("bulk completion order %v, want %v", bulk, want)
	}
}

// TestOneKindOfTrafficIsOneFIFO: a card that sees only bulk reads
// completes them in the same order at the same instants as one that
// sees the same reads as ordinary ones — a single FIFO per chip.
func TestOneKindOfTrafficIsOneFIFO(t *testing.T) {
	type done struct {
		i  int
		at sim.Time
	}
	run := func(bulk bool) []done {
		eng, c := queuedCard(t)
		var got []done
		for i := range 24 {
			a := Addr{Bus: i % 3 % 2, Page: (i * 5) % 16}
			cb := func(_ []byte, err error) {
				if err != nil {
					t.Error(err)
				}
				got = append(got, done{i, eng.Now()})
			}
			if bulk {
				c.ReadPageBulk(a, cb)
			} else {
				c.ReadPage(a, cb)
			}
		}
		eng.Run()
		return got
	}
	ordinary, bulk := run(false), run(true)
	if !slices.Equal(ordinary, bulk) {
		t.Errorf("bulk-only completions %v differ from ordinary-only %v", bulk, ordinary)
	}
	// Within one chip, completion order is issue order.
	last := map[int]int{}
	for _, d := range ordinary {
		if chip := d.i % 3 % 2; d.i < last[chip] {
			t.Errorf("read %d completed after read %d on its chip", d.i, last[chip])
		} else {
			last[chip] = d.i
		}
	}
}

// TestBulkReadIsNotStarved: under a saturating stream of ordinary reads
// at one chip, a bulk read is passed at most bulkPassLimit times and
// then completes.
func TestBulkReadIsNotStarved(t *testing.T) {
	eng, c := queuedCard(t)
	const total, backlog = 64, 8
	issued, before, passes := 0, 0, -1
	bulkDone := false
	var ordinary func([]byte, error)
	ordinary = func(_ []byte, err error) {
		if err != nil {
			t.Error(err)
		}
		if !bulkDone {
			passes++ // the first completion is the read the chip was running when the bulk read came
		}
		if issued < total {
			issued++
			c.ReadPage(Addr{Page: issued % 16}, ordinary)
		}
	}
	issued++
	c.ReadPage(Addr{Page: 0}, ordinary) // the chip is busy from here
	c.ReadPageBulk(Addr{Page: 15}, func(_ []byte, err error) {
		if err != nil {
			t.Error(err)
		}
		bulkDone, before = true, issued
	})
	for range backlog {
		issued++
		c.ReadPage(Addr{Page: issued % 16}, ordinary)
	}
	eng.Run()
	if !bulkDone {
		t.Fatal("the bulk read never completed")
	}
	if passes < 1 || passes > bulkPassLimit {
		t.Errorf("%d ordinary reads passed the bulk read, want 1 to %d", passes, bulkPassLimit)
	}
	if before == total {
		t.Errorf("the bulk read completed only after the ordinary stream ended")
	}
}
