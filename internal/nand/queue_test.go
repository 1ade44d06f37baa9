package nand

import (
	"slices"
	"testing"

	"repro/internal/sim"
)

// The chip's two queues: ordinary commands first, bulk reads in their
// own FIFO behind them, and no bulk read passed more than bulkPassLimit
// times.

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
