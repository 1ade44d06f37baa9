package hostif

import (
	"errors"
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
	var gotBuf = -1
	h.AcquireReadBuffer(8192, func(buf int) {
		doneAt = eng.Now()
		gotBuf = buf
		h.ReleaseReadBuffer(buf)
	}, func(buf int) {
		// Device fills the buffer in 4 interleaved 2KB chunks.
		for i := 0; i < 4; i++ {
			h.DeviceWriteChunk(buf, 2048, i == 3)
		}
	})
	eng.Run()
	if doneAt < 0 {
		t.Fatal("completion never fired")
	}
	if gotBuf < 0 || gotBuf >= 128 {
		t.Fatalf("buffer index %d", gotBuf)
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

func TestDMABurstGating(t *testing.T) {
	// Chunks smaller than the burst threshold must not reach PCIe until
	// enough accumulate.
	eng, h := newIf(t)
	h.AcquireReadBuffer(1024, nil, func(buf int) {
		h.DeviceWriteChunk(buf, 100, false)
	})
	eng.Run()
	if h.ToHostBytes() != 0 {
		t.Fatalf("%d bytes crossed PCIe with only 100 in the FIFO (burst=512)", h.ToHostBytes())
	}
	// Completing the page flushes the partial burst.
	h.DeviceWriteChunk(0, 100, true)
	eng.Run()
	if h.ToHostBytes() != 200 {
		t.Fatalf("flush moved %d bytes, want 200", h.ToHostBytes())
	}
}

func TestInterleavedBuffersIndependent(t *testing.T) {
	// Data landing interleaved across two buffers must complete each
	// page independently (the vector-of-FIFOs property).
	eng, h := newIf(t)
	complete := map[int]bool{}
	fill := func(buf int) {}
	_ = fill
	var bufs []int
	for i := 0; i < 2; i++ {
		h.AcquireReadBuffer(4096, func(buf int) {
			complete[buf] = true
		}, func(buf int) {
			bufs = append(bufs, buf)
		})
	}
	eng.Run()
	if len(bufs) != 2 {
		t.Fatalf("acquired %d buffers", len(bufs))
	}
	// Interleave chunks; buffer B finishes first.
	a, b := bufs[0], bufs[1]
	h.DeviceWriteChunk(a, 2048, false)
	h.DeviceWriteChunk(b, 2048, false)
	h.DeviceWriteChunk(b, 2048, true)
	eng.Run()
	if !complete[b] || complete[a] {
		t.Fatalf("completion state a=%v b=%v, want only b", complete[a], complete[b])
	}
	h.DeviceWriteChunk(a, 2048, true)
	eng.Run()
	if !complete[a] {
		t.Fatal("buffer a never completed")
	}
}

func TestBufferPoolExhaustion(t *testing.T) {
	eng, h := newIf(t)
	// Take all 128 buffers.
	taken := 0
	for i := 0; i < 128; i++ {
		h.AcquireReadBuffer(8192, nil, func(buf int) { taken++ })
	}
	eng.Run()
	if taken != 128 {
		t.Fatalf("took %d of 128", taken)
	}
	queued := false
	h.AcquireReadBuffer(8192, nil, func(buf int) { queued = true })
	eng.Run()
	if queued {
		t.Fatal("129th acquire should wait")
	}
	h.ReleaseReadBuffer(5)
	eng.Run()
	if !queued {
		t.Fatal("released buffer not granted to waiter")
	}
}

func TestReadBandwidthCap(t *testing.T) {
	// Streaming many pages through the read path cannot exceed 1.6GB/s.
	eng, h := newIf(t)
	const pages = 200
	done := 0
	var feed func()
	feed = func() {
		h.AcquireReadBuffer(8192, func(buf int) {
			done++
			h.ReleaseReadBuffer(buf)
		}, func(buf int) {
			for c := 0; c < 4; c++ {
				h.DeviceWriteChunk(buf, 2048, c == 3)
			}
		})
	}
	for i := 0; i < pages; i++ {
		feed()
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
	h.AcquireWriteBuffer(func(buf int) {
		// Host fills buffer (charged elsewhere), rings RPC, device pulls.
		h.RPC(func() {
			h.DeviceReadBuffer(8192, func() {
				deviceGot = eng.Now()
				h.ReleaseWriteBuffer()
			})
		})
	})
	eng.Run()
	if deviceGot < 0 {
		t.Fatal("device never received data")
	}
	// 8192B at 1.0GB/s = 8.192us minimum.
	if deviceGot < sim.Time(8192) {
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

func TestBadBufferIndex(t *testing.T) {
	_, h := newIf(t)
	mustPanicBadBuffer := func(name string, fn func()) {
		defer func() {
			r := recover()
			if r == nil {
				t.Fatalf("%s: bad buffer index accepted", name)
			}
			err, ok := r.(error)
			if !ok || !errors.Is(err, ErrBadBuffer) {
				t.Fatalf("%s: panic %v, want ErrBadBuffer", name, r)
			}
		}()
		fn()
	}
	mustPanicBadBuffer("DeviceWriteChunk(-1)", func() { h.DeviceWriteChunk(-1, 10, false) })
	mustPanicBadBuffer("DeviceWriteChunk(999)", func() { h.DeviceWriteChunk(999, 10, false) })
	mustPanicBadBuffer("ReleaseReadBuffer(999)", func() { h.ReleaseReadBuffer(999) })
}

func TestConfigValidation(t *testing.T) {
	eng := sim.NewEngine()
	if _, err := New(eng, "x", Config{}); err == nil {
		t.Fatal("zero config accepted")
	}
}

// TestPumpIsOneEventTimedAsBursts: a page handed to the DMA engine in
// one DeviceWriteChunk goes out as one pipe reservation with one
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
			cfg.PageBytes, cfg.DMABurst, cfg.ToHostBytesPerSec = tc.page, tc.burst, tc.bytesPerSec

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
			h.AcquireReadBuffer(tc.page, func(buf int) {
				doneAt = eng.Now()
				h.ReleaseReadBuffer(buf)
			}, func(buf int) {
				h.DeviceWriteChunk(buf, tc.page, true)
			})
			fired := eng.Fired()
			eng.Run()
			if want := landed + cfg.InterruptLatency; doneAt != want {
				t.Fatalf("completed at %v, the %d separate bursts complete at %v", doneAt, bursts, want)
			}
			// One landing event and one interrupt, whatever the burst count.
			if got := eng.Fired() - fired; got != 2 {
				t.Fatalf("%d events for one page (%d bursts), want 2: one pipe event, one interrupt", got, bursts)
			}
			if h.ToHostBytes() != int64(tc.page) {
				t.Fatalf("%d bytes crossed PCIe, want %d", h.ToHostBytes(), tc.page)
			}
		})
	}
}

// TestWaitersMatchTheirGrants: the host interface remembers who waits
// for a buffer, a downward DMA or an interrupt in FIFOs served by one
// continuation each. With more callers than buffers, pages of different
// sizes and buffers recycled mid-run, every caller must still get its
// own grant, its own landing and its own completion, in request order,
// and none of it may allocate.
func TestWaitersMatchTheirGrants(t *testing.T) {
	eng := sim.NewEngine()
	cfg := DefaultConfig()
	cfg.ReadBuffers, cfg.WriteBuffers = 2, 2
	h, err := New(eng, "n0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	const n = 7
	var granted, completed, wgranted, landed []int
	bufOf := make(map[int]int)
	reads := make([]struct{ onDone, fn func(buf int) }, n)
	writes := make([]struct {
		fn   func(buf int)
		done func()
	}, n)
	for i := 0; i < n; i++ {
		i := i
		size := 512 * (1 + (n-i)%3) // later callers are not always slower
		reads[i].fn = func(buf int) {
			granted = append(granted, i)
			bufOf[i] = buf
			h.DeviceWriteChunk(buf, size, true)
		}
		reads[i].onDone = func(buf int) {
			if buf != bufOf[i] {
				t.Errorf("read %d completed on buffer %d, was granted %d", i, buf, bufOf[i])
			}
			completed = append(completed, i)
			h.ReleaseReadBuffer(buf)
		}
		writes[i].done = func() {
			landed = append(landed, i)
			h.ReleaseWriteBuffer()
		}
		writes[i].fn = func(int) {
			wgranted = append(wgranted, i)
			h.DeviceReadBuffer(size, writes[i].done)
		}
	}
	run := func() {
		for i := 0; i < n; i++ {
			h.AcquireReadBuffer(8192, reads[i].onDone, reads[i].fn)
			h.AcquireWriteBuffer(writes[i].fn)
		}
		eng.Run()
	}
	run()
	for name, got := range map[string][]int{"read grants": granted, "read completions": completed,
		"write grants": wgranted, "write landings": landed} {
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
		granted, completed, wgranted, landed = granted[:0], completed[:0], wgranted[:0], landed[:0]
		run()
	}); allocs != 0 {
		t.Fatalf("a round of waits allocates %.0f times, want 0", allocs)
	}
}

// TestPageUpIsTheHandWrittenTriple: a burst of page and result DMAs —
// more than there are read buffers, so some wait for a grant — issued
// through PageUp and through the AcquireReadBuffer / DeviceWriteChunk /
// ReleaseReadBuffer triple its callers used to write out must land at
// the same instants, see the same number of free buffers in every
// completion, and leave every buffer free.
func TestPageUpIsTheHandWrittenTriple(t *testing.T) {
	type landing struct {
		at   sim.Time
		free int
	}
	sizes := make([]int, 300)
	for i := range sizes {
		sizes[i] = []int{8192, 16, 700, 8192, 24576}[i%5]
	}
	run := func(up func(h *HostIf, size int, done func())) ([]landing, *HostIf) {
		eng, h := newIf(t)
		got := make([]landing, len(sizes))
		for i, size := range sizes {
			eng.After(sim.Time(i/50)*sim.Microsecond, func() {
				up(h, size, func() { got[i] = landing{eng.Now(), h.FreeReadBuffers()} })
			})
		}
		eng.Run()
		return got, h
	}
	want, hw := run(func(h *HostIf, size int, done func()) {
		h.AcquireReadBuffer(size, func(buf int) {
			h.ReleaseReadBuffer(buf)
			done()
		}, func(buf int) {
			h.DeviceWriteChunk(buf, size, true)
		})
	})
	got, hg := run(func(h *HostIf, size int, done func()) { h.PageUp(size, done) })
	for i := range want {
		if want[i].at == 0 {
			t.Fatalf("transfer %d never landed through the triple", i)
		}
		if got[i] != want[i] {
			t.Fatalf("transfer %d: PageUp landed at %v with %d buffers free, the triple at %v with %d",
				i, got[i].at, got[i].free, want[i].at, want[i].free)
		}
	}
	for _, h := range []*HostIf{hw, hg} {
		if h.FreeReadBuffers() != h.Config().ReadBuffers || h.PagesUp.Value() != int64(len(sizes)) {
			t.Fatalf("%d of %d buffers free after %d pages up", h.FreeReadBuffers(), h.Config().ReadBuffers, h.PagesUp.Value())
		}
	}
}
