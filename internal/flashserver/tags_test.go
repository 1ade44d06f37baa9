package flashserver

import (
	"fmt"
	"hash/fnv"
	"testing"

	"repro/internal/nand"
)

// TestTagsUnderExhaustion pins how the server shares the controller's
// tags. Three interfaces issue mixed reads, writes and erases, far more
// than the controller has tags and more than an interface has credits,
// and reads delivered early issue further reads from inside their
// callbacks. Every controller event is recorded with the controller tag
// it carries, every delivery with its interface, request number and
// instant; the digest of that trace holds the three orders the model
// fixes: tags are handed out from 0 and reused last-in first-out, a
// freed tag goes to the oldest waiting op before the completion that
// freed it is delivered, and each interface delivers in request order.
// The digest also holds the chips' order: it moved (0x99a863d0613ba0c9
// → 0x9a59f21aa936dcc2, the same 704 events) when reads of block 0
// began to pass queued programs of block 1 and erases of later blocks
// at each chip, so their completions, and the tags they free, come in
// another order.
func TestTagsUnderExhaustion(t *testing.T) {
	events, digest := exhaustTags(t, false)
	const wantEvents, wantDigest = 704, uint64(0x9a59f21aa936dcc2)
	if events != wantEvents || digest != wantDigest {
		t.Fatalf("%d controller events, digest %#x; want %d, %#x", events, digest, wantEvents, wantDigest)
	}
}

// TestRefusedReadsKeepRequestOrder is the same traffic with reads of a
// never-programmed block mixed into interface c. The card refuses each
// at once when its chip is idle, so its completion arrives while the
// interface is delivering the op whose credit issued it; c must still
// deliver in request order.
func TestRefusedReadsKeepRequestOrder(t *testing.T) {
	exhaustTags(t, true)
}

// exhaustTags runs TestTagsUnderExhaustion's traffic, with reads of an
// unwritten block on c when refused, checks request order, tag
// exhaustion and the drain, and returns the number of controller events
// and the trace's digest.
func exhaustTags(t *testing.T, refused bool) (int, uint64) {
	t.Helper()
	h := fnv.New64a()
	events, maxTag := 0, -1
	eng, ctl, srv := observed(t, 48, func(ev string, tag int) {
		events++
		maxTag = max(maxTag, tag)
		fmt.Fprintf(h, "%s %d\n", ev, tag)
	})
	geo := testGeometry()
	tags := ctl.Config().Tags
	chips := geo.Buses * geo.ChipsPerBus
	chip := func(i int) (int, int) { return i % geo.Buses, i / geo.Buses % geo.ChipsPerBus }

	// Block 0 of every chip holds data to read back.
	setup := srv.NewIface()
	for p := 0; p < geo.PagesPerBlock; p++ {
		for c := 0; c < chips; c++ {
			bus, ch := chip(c)
			setup.WritePhysical(nand.Addr{Bus: bus, Chip: ch, Page: p}, pattern(geo.PageSize, byte(16*c+p)), func(err error) {
				if err != nil {
					t.Fatal(err)
				}
			})
		}
	}
	eng.Run()
	h.Reset()
	events, maxTag = 0, -1

	ifs := []*Iface{srv.NewIface(), srv.NewIface(), srv.NewIface()}
	issued := make([]int, len(ifs))
	var delivered [3][]int
	var deliver func(f, seq int, failed bool)
	deliver = func(f, seq int, failed bool) {
		delivered[f] = append(delivered[f], seq)
		fmt.Fprintf(h, "deliver %c#%d at %d failed=%v\n", 'a'+f, seq, eng.Now(), failed)
		// The first deliveries on b start more reads on c while tags
		// and credits are still short.
		if f == 1 && seq < 24 {
			c := seq % chips
			bus, ch := chip(c)
			read(ifs, issued, 2, nand.Addr{Bus: bus, Chip: ch, Page: seq % geo.PagesPerBlock}, deliver)
		}
	}
	for i := 0; i < 3*geo.PagesPerBlock*chips; i++ {
		c := i % chips
		bus, ch := chip(c)
		// a: programs block 1 of every chip in page order, then an erase
		// of block 2 for every fourth program.
		if i < geo.PagesPerBlock*chips {
			a := nand.Addr{Bus: bus, Chip: ch, Block: 1, Page: i / chips}
			seq := issued[0]
			issued[0]++
			ifs[0].WritePhysical(a, pattern(geo.PageSize, byte(i)), func(err error) { deliver(0, seq, err != nil) })
			if i%4 == 3 {
				seq := issued[0]
				issued[0]++
				ifs[0].Erase(nand.Addr{Bus: bus, Chip: ch, Block: 2 + i%(geo.BlocksPerChip-2)}, func(err error) { deliver(0, seq, err != nil) })
			}
		}
		// b: reads block 0 three times over.
		read(ifs, issued, 1, nand.Addr{Bus: bus, Chip: ch, Page: i / chips % geo.PagesPerBlock}, deliver)
		// c: reads block 0 backwards.
		if i%3 == 0 {
			read(ifs, issued, 2, nand.Addr{Bus: bus, Chip: ch, Page: geo.PagesPerBlock - 1 - i/chips%geo.PagesPerBlock}, deliver)
		}
		if refused && i%3 == 1 {
			read(ifs, issued, 2, nand.Addr{Bus: bus, Chip: ch, Block: 2, Page: i / chips % geo.PagesPerBlock}, deliver)
		}
	}
	eng.Run()

	total := 0
	for f, seqs := range delivered {
		if len(seqs) != issued[f] {
			t.Fatalf("iface %c delivered %d of %d requests", 'a'+f, len(seqs), issued[f])
		}
		for i, seq := range seqs {
			if seq != i {
				t.Fatalf("iface %c delivered out of request order: %v", 'a'+f, seqs)
			}
		}
		total += len(seqs)
	}
	if total <= 2*tags || maxTag != tags-1 {
		t.Fatalf("%d requests used controller tags up to %d: the test must exhaust all %d", total, maxTag, tags)
	}
	if free := ctl.FreeTags(); free != tags {
		t.Fatalf("%d of %d controller tags free at the end", free, tags)
	}
	if out := srv.pool.Out(); out != 0 {
		t.Fatalf("%d page ops out of the pool at the end", out)
	}
	return events, h.Sum64()
}

// read issues a read on ifs[f] whose delivery is recorded under the
// interface's next request number.
func read(ifs []*Iface, issued []int, f int, a nand.Addr, deliver func(f, seq int, failed bool)) {
	seq := issued[f]
	issued[f]++
	ifs[f].ReadPhysical(a, func(_ []byte, err error) { deliver(f, seq, err != nil) })
}
