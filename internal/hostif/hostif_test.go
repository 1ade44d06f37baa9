package hostif

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/sim"
)

func newIf(t *testing.T) (*sim.Engine, *HostIf) {
	t.Helper()
	eng := sim.NewEngine()
	h, err := New(eng, "n0", DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return eng, h
}

func TestSinglePageReadPath(t *testing.T) {
	eng, h := newIf(t)
	var doneAt sim.Time = -1
	h.PageUp(8192, func() {
		doneAt = eng.Now()
		if free := h.FreeReadBuffers(); free != h.Config().ReadBuffers {
			t.Errorf("%d read buffers free in the completion, want all %d", free, h.Config().ReadBuffers)
		}
	})
	eng.Run()
	if doneAt < 0 {
		t.Fatal("completion never fired")
	}
	// 8192B at 1.6GB/s = 5.12us + PCIe latency + interrupt latency.
	min := sim.Time(8192 * 1000 / 1600)
	if doneAt < min {
		t.Fatalf("completed at %v, faster than PCIe allows (%v)", doneAt, min)
	}
	if h.PagesUp.Value() != 1 || h.Interrupts.Value() != 1 {
		t.Fatalf("counters: pages=%d interrupts=%d", h.PagesUp.Value(), h.Interrupts.Value())
	}
}

func TestBufferPoolExhaustion(t *testing.T) {
	eng, h := newIf(t)
	// 129 pages at once: the last one waits for the first buffer to
	// come back, so it lands a whole page time after the 128th.
	var at []sim.Time
	for i := 0; i < 129; i++ {
		h.PageUp(8192, func() { at = append(at, eng.Now()) })
	}
	if h.FreeReadBuffers() != 0 {
		t.Fatalf("%d buffers free with 129 pages asked for", h.FreeReadBuffers())
	}
	eng.Run()
	if len(at) != 129 {
		t.Fatalf("%d of 129 pages completed", len(at))
	}
	if at[128] <= at[127] || at[128] < at[0]+h.Config().InterruptLatency {
		t.Fatalf("the waiting page completed at %v, the first at %v and the 128th at %v", at[128], at[0], at[127])
	}
}

func TestReadBandwidthCap(t *testing.T) {
	// Streaming many pages through the read path cannot exceed 1.6GB/s.
	eng, h := newIf(t)
	const pages = 200
	done := 0
	for i := 0; i < pages; i++ {
		h.PageUp(8192, func() { done++ })
	}
	eng.Run()
	if done != pages {
		t.Fatalf("completed %d of %d", done, pages)
	}
	bw := float64(pages*8192) / eng.Now().Seconds()
	if bw > 1.6e9 {
		t.Fatalf("achieved %.2e B/s, above the PCIe cap", bw)
	}
	if bw < 1.4e9 {
		t.Fatalf("achieved %.2e B/s, PCIe should be nearly saturated", bw)
	}
}

func TestWritePath(t *testing.T) {
	eng, h := newIf(t)
	var deviceGot sim.Time = -1
	h.RPC(func() {
		h.PageDown(8192, func() {
			deviceGot = eng.Now()
			h.ReleaseWriteBuffer()
		})
	})
	eng.Run()
	if deviceGot < 0 {
		t.Fatal("device never received data")
	}
	// 8192B at 1.0GB/s = 8.192us minimum.
	if deviceGot < h.Config().RPCLatency+sim.Time(8192) {
		t.Fatalf("write landed at %v, faster than 1GB/s PCIe", deviceGot)
	}
	if h.PagesDown.Value() != 1 {
		t.Fatalf("PagesDown = %d", h.PagesDown.Value())
	}
}

func TestRPCAndSoftwareLatencies(t *testing.T) {
	eng, h := newIf(t)
	cfg := h.Config()
	var rpcAt, swAt sim.Time = -1, -1
	h.RPC(func() { rpcAt = eng.Now() })
	h.ChargeSoftware(func() { swAt = eng.Now() })
	eng.Run()
	if rpcAt != cfg.RPCLatency {
		t.Fatalf("RPC fired at %v, want %v", rpcAt, cfg.RPCLatency)
	}
	if swAt != cfg.SoftwareOverhead {
		t.Fatalf("software path fired at %v, want %v", swAt, cfg.SoftwareOverhead)
	}
}

func TestConfigValidation(t *testing.T) {
	eng := sim.NewEngine()
	if _, err := New(eng, "x", Config{}); err == nil {
		t.Fatal("zero config accepted")
	}
}

// TestPumpIsOneEventTimedAsBursts: a page handed to the DMA engine in
// one PageUp goes out as one pipe reservation with one
// landing event — not one per DMABurst — yet the completion interrupt
// fires at exactly the virtual time the burst-by-burst transfers would
// have produced: each burst's serialization is rounded down on its own,
// so the sum differs from the serialization of the whole page whenever
// the bandwidth does not divide evenly.
func TestPumpIsOneEventTimedAsBursts(t *testing.T) {
	cases := []struct {
		name        string
		page, burst int
		bytesPerSec int64
	}{
		{"default PCIe, 16 x 512 B", 8192, 512, 1_600_000_000},
		{"burst does not divide the page", 8192, 500, 1_600_000_000},
		{"burst larger than half the page", 8192, 3000, 1_600_000_000},
		{"per-burst rounding matters", 8192, 512, 1_700_000_003},
		{"rounding and a ragged tail", 8192, 731, 1_234_567_891},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.DMABurst, cfg.ToHostBytesPerSec = tc.burst, tc.bytesPerSec

			// Reference: the same page as separate burst transfers, all
			// queued at time zero on an identical pipe.
			refEng := sim.NewEngine()
			ref := sim.NewPipe(refEng, "ref", cfg.ToHostBytesPerSec, cfg.PCIeLatency)
			var landed sim.Time
			bursts := 0
			for left := tc.page; left > 0; left -= tc.burst {
				landed = ref.Transfer(min(tc.burst, left), nil)
				bursts++
			}
			whole := sim.NewPipe(refEng, "whole", cfg.ToHostBytesPerSec, cfg.PCIeLatency).Transfer(tc.page, nil)
			if tc.bytesPerSec != 1_600_000_000 && whole == landed {
				t.Fatalf("case does not exercise per-burst rounding: %d bursts land at %v either way", bursts, landed)
			}

			eng := sim.NewEngine()
			h, err := New(eng, "n0", cfg)
			if err != nil {
				t.Fatal(err)
			}
			var doneAt sim.Time = -1
			h.PageUp(tc.page, func() { doneAt = eng.Now() })
			fired := eng.Fired()
			eng.Run()
			if want := landed + cfg.InterruptLatency; doneAt != want {
				t.Fatalf("completed at %v, the %d separate bursts complete at %v", doneAt, bursts, want)
			}
			// One landing event and one interrupt, whatever the burst count.
			if got := eng.Fired() - fired; got != 2 {
				t.Fatalf("%d events for one page (%d bursts), want 2: one pipe event, one interrupt", got, bursts)
			}
			if h.toHost.Transferred() != int64(tc.page) {
				t.Fatalf("%d bytes crossed PCIe, want %d", h.toHost.Transferred(), tc.page)
			}
		})
	}
}

// TestWaitersMatchTheirGrants: the host interface remembers who waits
// for a buffer, a DMA either way or an interrupt in FIFOs served by one
// continuation each. With more callers than buffers, pages of different
// sizes and buffers recycled mid-run, every caller must still get its
// own landing and its own completion, in request order, and none of it
// may allocate.
func TestWaitersMatchTheirGrants(t *testing.T) {
	eng := sim.NewEngine()
	cfg := DefaultConfig()
	cfg.ReadBuffers, cfg.WriteBuffers = 2, 2
	h, err := New(eng, "n0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	const n = 7
	var completed, landed []int
	sizes := make([]int, n)
	ups := make([]func(), n)
	downs := make([]func(), n)
	for i := 0; i < n; i++ {
		sizes[i] = 512 * (1 + (n-i)%3) // later callers are not always slower
		ups[i] = func() { completed = append(completed, i) }
		downs[i] = func() {
			landed = append(landed, i)
			h.ReleaseWriteBuffer()
		}
	}
	run := func() {
		for i := 0; i < n; i++ {
			h.PageUp(sizes[i], ups[i])
			h.PageDown(sizes[i], downs[i])
		}
		eng.Run()
	}
	run()
	for name, got := range map[string][]int{"read completions": completed, "write landings": landed} {
		if len(got) != n {
			t.Fatalf("%s: %v, want every caller once", name, got)
		}
		for i, who := range got {
			if who != i {
				t.Fatalf("%s out of request order: %v", name, got)
			}
		}
	}
	if h.PagesUp.Value() != n || h.PagesDown.Value() != n {
		t.Fatalf("pages up %d, down %d, want %d each", h.PagesUp.Value(), h.PagesDown.Value(), n)
	}
	if allocs := testing.AllocsPerRun(10, func() {
		completed, landed = completed[:0], landed[:0]
		run()
	}); allocs != 0 {
		t.Fatalf("a round of waits allocates %.0f times, want 0", allocs)
	}
}

// TestExhaustedBuffersKeepTheirOrder pins the instants and the order of
// everything the host interface does with more pages than buffers each
// way: grants, landings, interrupts and completions. Every completion
// records the instant, the read buffers free and the pages that have
// landed up, raised an interrupt and crossed down. A read buffer a
// completion releases goes to the oldest waiter, its DMA reserved,
// before that completion's done runs: done sees no buffer free, and the
// page it sends up lands behind the waiter's. A write buffer is held
// until the caller releases it, a while after its page crossed.
func TestExhaustedBuffersKeepTheirOrder(t *testing.T) {
	eng := sim.NewEngine()
	cfg := DefaultConfig()
	cfg.ReadBuffers, cfg.WriteBuffers = 2, 2
	h, err := New(eng, "n0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	note := func(what string, i int) {
		got = append(got, fmt.Sprintf("%s%d @%d free=%d up=%d intr=%d down=%d",
			what, i, eng.Now(), h.FreeReadBuffers(), h.PagesUp.Value(), h.Interrupts.Value(), h.PagesDown.Value()))
	}
	sizes := []int{8192, 512, 4096, 8192, 100}
	for i, size := range sizes {
		h.PageUp(size, func() {
			note("up", i)
			if i == 0 {
				h.PageUp(2048, func() { note("up", 10) })
			}
		})
		h.PageDown(size, func() {
			note("down", i)
			eng.After(3*sim.Microsecond, h.ReleaseWriteBuffer)
		})
	}
	eng.Run()
	want := []string{
		"up0 @7820 free=0 up=2 intr=2 down=0",
		"up1 @8140 free=0 up=2 intr=2 down=0",
		"down0 @8892 free=0 up=2 intr=2 down=1",
		"down1 @9404 free=0 up=2 intr=2 down=2",
		"up2 @13080 free=0 up=3 intr=3 down=2",
		"down2 @16688 free=0 up=5 intr=5 down=3",
		"up3 @18200 free=0 up=5 intr=5 down=3",
		"up4 @18262 free=1 up=5 intr=5 down=3",
		"up10 @22180 free=2 up=6 intr=6 down=3",
		"down3 @24880 free=2 up=6 intr=6 down=4",
		"down4 @24980 free=2 up=6 intr=6 down=5",
	}
	if !slices.Equal(got, want) {
		t.Fatalf("completions:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}
