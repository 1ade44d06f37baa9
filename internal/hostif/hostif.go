// Package hostif models BlueDBM's host interface (paper §3.3, §5.3):
// a Connectal-style PCIe endpoint providing RPC and DMA between the
// host server and the storage device.
//
// Faithful elements:
//
//   - 128 page buffers each for reads and writes, handed out from free
//     queues, to keep many transfers in flight;
//   - a DMA engine that needs enough contiguous data before issuing a
//     burst, fed by dual-ported per-buffer FIFOs ("a vector of FIFOs",
//     Figure 7) because flash data arrives interleaved across buses
//     and remote nodes;
//   - PCIe Gen1 bandwidth caps: 1.6 GB/s device-to-host and 1.0 GB/s
//     host-to-device, which Figure 13 shows capping Host-Local reads;
//   - RPC doorbell and completion-interrupt latencies, plus the driver
//     software overhead that in-store processing avoids (Figure 12).
package hostif

import (
	"errors"
	"fmt"

	"repro/internal/sim"
)

// ErrBadBuffer is the panic value (wrapped) raised when a device-side
// producer names a read-buffer index that was never granted. A bad
// index is a modeling bug in the caller, never a runtime condition, so
// the host interface fails loudly instead of returning an error that
// no production caller has a way to recover from.
var ErrBadBuffer = errors.New("hostif: buffer index out of range or not busy")

// Config sizes the host interface.
type Config struct {
	ReadBuffers         int   // device -> host page buffers
	WriteBuffers        int   // host -> device page buffers
	PageBytes           int   // page buffer size
	ToHostBytesPerSec   int64 // DMA write into host DRAM (reads)
	FromHostBytesPerSec int64 // DMA read from host DRAM (writes)
	PCIeLatency         sim.Time
	RPCLatency          sim.Time // doorbell -> hardware dispatch
	InterruptLatency    sim.Time // hardware completion -> host wakeup
	DMABurst            int      // minimum contiguous bytes per DMA burst
	// SoftwareOverhead is the host storage-stack cost (driver, block
	// layer, context switches) charged to every host-initiated flash
	// operation — the dominant "Software" band of Fig. 12.
	SoftwareOverhead sim.Time
	// LightSoftware is the cost of a lightweight user-level request
	// path that never enters the storage stack (serving a cached page
	// from DRAM, key-value style). It is what makes the H-D path fast.
	LightSoftware sim.Time
	// BatchRequestOverhead is the incremental software cost of each
	// additional request in a batched doorbell (descriptor setup and
	// marshalling), far below the fixed SoftwareOverhead a doorbell
	// pays once. It is what makes batched submission pay off.
	BatchRequestOverhead sim.Time
}

// DefaultConfig matches the paper's Connectal PCIe Gen 1 deployment.
func DefaultConfig() Config {
	return Config{
		ReadBuffers:          128,
		WriteBuffers:         128,
		PageBytes:            8192,
		ToHostBytesPerSec:    1_600_000_000,
		FromHostBytesPerSec:  1_000_000_000,
		PCIeLatency:          700 * sim.Nanosecond,
		RPCLatency:           900 * sim.Nanosecond,
		InterruptLatency:     2 * sim.Microsecond,
		DMABurst:             512,
		SoftwareOverhead:     70 * sim.Microsecond,
		LightSoftware:        15 * sim.Microsecond,
		BatchRequestOverhead: 5 * sim.Microsecond,
	}
}

// bufState tracks one read buffer's per-buffer FIFO.
type bufState struct {
	fifo     int  // bytes accumulated, not yet bursted
	dmaOut   int  // burst trains handed to the DMA pipe and not yet landed
	expect   int  // total bytes of the page transfer (when known)
	lastSeen bool // producer finished filling
	onDone   func(buf int)
}

// readGrant is one AcquireReadBuffer call waiting for its buffer.
type readGrant struct {
	expect int
	onDone func(buf int)
	fn     func(buf int)
}

// raisedIntr is a completion interrupt on its way to the host.
type raisedIntr struct {
	buf    int
	onDone func(buf int)
}

// HostIf is one node's PCIe host link.
type HostIf struct {
	eng *sim.Engine
	cfg Config

	toHost   *sim.Pipe
	fromHost *sim.Pipe

	readFree    *sim.TokenPool
	writeFree   *sim.TokenPool
	readBufs    []bufState
	readFreeIdx []int    // stack of free read-buffer indices
	landed      []func() // per read buffer: a burst train reached host memory; bound once

	// Whatever waits here in the order it arrived — callers for a read
	// buffer, for a write buffer, for their page to cross PCIe
	// downwards, and finished pages for their completion interrupt to
	// reach the host — waits in a FIFO of its own, served by one
	// continuation bound at construction: the token pools grant strictly
	// in request order, the downward pipe delivers in reservation order
	// and every interrupt takes the same time, so the head of the FIFO
	// is always the one the grant, the delivery or the interrupt is for,
	// and no call allocates a closure to remember who asked.
	readWaiting  sim.Queue[readGrant]
	writeWaiting sim.Queue[func(buf int)]
	downMoving   sim.Queue[func()]
	interrupting sim.Queue[raisedIntr]
	grantRead    func()
	grantWrite   func()
	downLanded   func()
	interrupt    func()

	// stats
	RPCs       sim.Counter
	PagesUp    sim.Counter // device -> host pages completed
	PagesDown  sim.Counter // host -> device pages completed
	Interrupts sim.Counter
}

// New builds a host interface.
func New(eng *sim.Engine, name string, cfg Config) (*HostIf, error) {
	if cfg.ReadBuffers <= 0 || cfg.WriteBuffers <= 0 || cfg.PageBytes <= 0 ||
		cfg.ToHostBytesPerSec <= 0 || cfg.FromHostBytesPerSec <= 0 || cfg.DMABurst <= 0 {
		return nil, fmt.Errorf("hostif: invalid config %+v", cfg)
	}
	h := &HostIf{
		eng:       eng,
		cfg:       cfg,
		toHost:    sim.NewPipe(eng, name+"/pcie-up", cfg.ToHostBytesPerSec, cfg.PCIeLatency),
		fromHost:  sim.NewPipe(eng, name+"/pcie-down", cfg.FromHostBytesPerSec, cfg.PCIeLatency),
		readFree:  sim.NewTokenPool(name+"/rdbuf", cfg.ReadBuffers),
		writeFree: sim.NewTokenPool(name+"/wrbuf", cfg.WriteBuffers),
		readBufs:  make([]bufState, cfg.ReadBuffers),
		landed:    make([]func(), cfg.ReadBuffers),
	}
	for i := cfg.ReadBuffers - 1; i >= 0; i-- {
		h.readFreeIdx = append(h.readFreeIdx, i)
		h.landed[i] = func() {
			h.readBufs[i].dmaOut--
			h.maybeComplete(i)
		}
	}
	h.interrupt = func() {
		in := h.interrupting.Pop()
		in.onDone(in.buf)
	}
	h.grantRead = func() {
		g := h.readWaiting.Pop()
		buf := h.readFreeIdx[len(h.readFreeIdx)-1]
		h.readFreeIdx = h.readFreeIdx[:len(h.readFreeIdx)-1]
		h.readBufs[buf] = bufState{expect: g.expect, onDone: g.onDone}
		g.fn(buf)
	}
	h.grantWrite = func() { h.writeWaiting.Pop()(0) }
	h.downLanded = func() {
		h.PagesDown.Inc()
		h.downMoving.Pop()()
	}
	return h, nil
}

// Config returns the interface configuration.
func (h *HostIf) Config() Config { return h.cfg }

// RPC models the host ringing the device doorbell: fn runs device-side
// after the RPC latency. It does not include SoftwareOverhead — call
// ChargeSoftware for the driver path explicitly so in-store paths can
// skip it, as the paper's architecture does.
func (h *HostIf) RPC(fn func()) {
	h.RPCs.Inc()
	h.eng.After(h.cfg.RPCLatency, fn)
}

// ChargeSoftware runs fn after the host storage-stack overhead.
func (h *HostIf) ChargeSoftware(fn func()) {
	h.eng.After(h.cfg.SoftwareOverhead, fn)
}

// ChargeLightSoftware runs fn after the lightweight (non-storage)
// request-serving overhead.
func (h *HostIf) ChargeLightSoftware(fn func()) {
	h.eng.After(h.cfg.LightSoftware, fn)
}

// --- device -> host (read) path -------------------------------------

// AcquireReadBuffer grants a free read-buffer index to fn, queueing
// FIFO when all 128 are in use. onDone fires host-side (after the
// completion interrupt) when the page transfer into host memory
// finishes; the buffer stays owned until ReleaseReadBuffer.
//
//simlint:hotpath
func (h *HostIf) AcquireReadBuffer(expectBytes int, onDone func(buf int), fn func(buf int)) {
	h.readWaiting.Push(readGrant{expect: expectBytes, onDone: onDone, fn: fn})
	h.readFree.Acquire(1, h.grantRead)
}

// DeviceWriteChunk is called by device-side producers (flash interface,
// network interface, in-store processor) as interleaved data lands in
// read buffer buf. The per-buffer FIFO gates DMA bursts: only when
// DMABurst contiguous bytes are queued (or the page is complete) does
// the DMA engine issue a burst over PCIe. Panics on a buffer index
// that AcquireReadBuffer never granted: that is a caller bug.
//
//simlint:hotpath
func (h *HostIf) DeviceWriteChunk(buf, n int, last bool) {
	if buf < 0 || buf >= len(h.readBufs) {
		panic(fmt.Errorf("%w: %d", ErrBadBuffer, buf))
	}
	st := &h.readBufs[buf]
	st.fifo += n
	if last {
		st.lastSeen = true
	}
	h.pump(buf)
}

// pump drains a read buffer's FIFO into PCIe bursts: every whole
// DMABurst it holds and, once the page is complete, the partial burst
// behind them. The bursts of one call would all be reserved on the
// FIFO pipe in this same instant, back to back, so they go out as one
// train — one reservation and one landing event whatever the page and
// burst sizes — timed as the sum of the individual bursts.
//
//simlint:hotpath
func (h *HostIf) pump(buf int) {
	st := &h.readBufs[buf]
	n := st.fifo - st.fifo%h.cfg.DMABurst
	if st.lastSeen {
		n = st.fifo
	}
	if n > 0 {
		st.fifo -= n
		st.dmaOut++
		h.toHost.TransferBursts(n, h.cfg.DMABurst, h.landed[buf])
	}
	h.maybeComplete(buf)
}

// maybeComplete raises the completion interrupt once the whole page
// has landed.
//
//simlint:hotpath
func (h *HostIf) maybeComplete(buf int) {
	st := &h.readBufs[buf]
	if !st.lastSeen || st.fifo != 0 || st.dmaOut != 0 || st.onDone == nil {
		return
	}
	done := st.onDone
	st.onDone = nil
	h.PagesUp.Inc()
	h.Interrupts.Inc()
	h.interrupting.Push(raisedIntr{buf: buf, onDone: done})
	h.eng.After(h.cfg.InterruptLatency, h.interrupt)
}

// ReleaseReadBuffer returns a buffer to the free queue. Panics on a
// buffer index that AcquireReadBuffer never granted.
func (h *HostIf) ReleaseReadBuffer(buf int) {
	if buf < 0 || buf >= len(h.readBufs) {
		panic(fmt.Errorf("%w: %d", ErrBadBuffer, buf))
	}
	h.readBufs[buf] = bufState{}
	h.readFreeIdx = append(h.readFreeIdx, buf)
	h.readFree.Release(1)
}

// PageUp moves size bytes that are complete on the device — a flash
// page, an engine's result — into host memory: a read buffer, the DMA,
// the completion interrupt, and the buffer goes back as done runs
// host-side. It is the whole of AcquireReadBuffer, DeviceWriteChunk and
// ReleaseReadBuffer for a producer with nothing to interleave.
func (h *HostIf) PageUp(size int, done func()) {
	h.AcquireReadBuffer(size, func(buf int) {
		h.ReleaseReadBuffer(buf)
		done()
	}, func(buf int) { h.DeviceWriteChunk(buf, size, true) })
}

// --- host -> device (write) path ------------------------------------

// AcquireWriteBuffer grants a free write-buffer index (the host then
// memcpys page data into it, which we charge to the caller's own CPU
// model, not here).
//
//simlint:hotpath
func (h *HostIf) AcquireWriteBuffer(fn func(buf int)) {
	h.writeWaiting.Push(fn)
	h.writeFree.Acquire(1, h.grantWrite)
}

// DeviceReadBuffer models the device DMA-reading size bytes from a
// host write buffer; done runs device-side when the data has crossed
// PCIe. Write-path DMA is a contiguous stream (paper: "straightforward
// to parallelize"), so no per-buffer FIFO gating is needed.
//
//simlint:hotpath
func (h *HostIf) DeviceReadBuffer(size int, done func()) {
	h.downMoving.Push(done)
	h.fromHost.Transfer(size, h.downLanded)
}

// ReleaseWriteBuffer returns a write buffer to the free queue.
func (h *HostIf) ReleaseWriteBuffer() {
	h.writeFree.Release(1)
}

// ToHostUtilization reports PCIe device-to-host utilization.
func (h *HostIf) ToHostUtilization() float64 { return h.toHost.Utilization() }

// ToHostBytes reports total bytes DMAed into host memory.
func (h *HostIf) ToHostBytes() int64 { return h.toHost.Transferred() }
