// Package hostif models BlueDBM's host interface (paper §3.3, §5.3):
// a Connectal-style PCIe endpoint providing RPC and DMA between the
// host server and the storage device.
//
// Faithful elements:
//
//   - 128 page buffers each for reads and writes, handed out in request
//     order, to keep many transfers in flight;
//   - a DMA engine that moves a page as DMABurst-sized bursts: every
//     producer hands it a whole page (PageUp), since the flash server
//     and the network assemble pages before they reach it;
//   - PCIe Gen1 bandwidth caps: 1.6 GB/s device-to-host and 1.0 GB/s
//     host-to-device, which Figure 13 shows capping Host-Local reads;
//   - RPC doorbell and completion-interrupt latencies, plus the driver
//     software overhead that in-store processing avoids (Figure 12).
package hostif

import (
	"fmt"

	"repro/internal/sim"
)

// Config sizes the host interface.
type Config struct {
	ReadBuffers         int   // device -> host page buffers
	WriteBuffers        int   // host -> device page buffers
	ToHostBytesPerSec   int64 // DMA write into host DRAM (reads)
	FromHostBytesPerSec int64 // DMA read from host DRAM (writes)
	PCIeLatency         sim.Time
	RPCLatency          sim.Time // doorbell -> hardware dispatch
	InterruptLatency    sim.Time // hardware completion -> host wakeup
	DMABurst            int      // bytes per DMA burst
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

// transfer is one PageUp or PageDown waiting for its buffer.
type transfer struct {
	size int
	done func()
}

// HostIf is one node's PCIe host link.
type HostIf struct {
	eng *sim.Engine
	cfg Config

	toHost   *sim.Pipe
	fromHost *sim.Pipe

	readFree  *sim.TokenPool
	writeFree *sim.TokenPool

	// Whatever waits here in the order it arrived — transfers for a read
	// or a write buffer, pages crossing PCIe up until their completion
	// interrupt reaches the host, pages crossing down — waits in a FIFO
	// of its own, served by continuations bound at construction: the
	// token pools grant strictly in request order, the pipes deliver in
	// reservation order and every interrupt takes the same time, so the
	// head of the FIFO is always the one the grant, the landing or the
	// interrupt is for, and no call allocates a closure to remember who
	// asked.
	readWaiting  sim.Queue[transfer]
	writeWaiting sim.Queue[transfer]
	upMoving     sim.Queue[func()]
	downMoving   sim.Queue[func()]
	grantRead    func()
	grantWrite   func()
	upLanded     func()
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
	if cfg.ReadBuffers <= 0 || cfg.WriteBuffers <= 0 ||
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
	}
	h.grantRead = func() {
		tr := h.readWaiting.Pop()
		h.upMoving.Push(tr.done)
		h.toHost.TransferBursts(tr.size, cfg.DMABurst, h.upLanded)
	}
	h.upLanded = func() {
		h.PagesUp.Inc()
		h.Interrupts.Inc()
		h.eng.After(cfg.InterruptLatency, h.interrupt)
	}
	h.interrupt = func() {
		done := h.upMoving.Pop()
		h.readFree.Release()
		done()
	}
	h.grantWrite = func() {
		tr := h.writeWaiting.Pop()
		h.downMoving.Push(tr.done)
		h.fromHost.Transfer(tr.size, h.downLanded)
	}
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

// PageUp moves size bytes that are complete on the device — a flash
// page, an engine's result — into host memory: it waits for a read
// buffer, DMAs the bytes up as one train of DMABurst bursts, raises the
// completion interrupt and, when that reaches the host, returns the
// buffer — granting it to the next waiter, whose DMA is reserved at
// once — and runs done. Transfers complete in the order they were
// asked for.
//
//simlint:hotpath
func (h *HostIf) PageUp(size int, done func()) {
	h.readWaiting.Push(transfer{size, done})
	h.readFree.Acquire(h.grantRead)
}

// PageDown moves size bytes from host memory to the device: it waits
// for a write buffer (the host memcpys the page into it, which the
// caller charges to its own CPU model), and done runs device-side when
// the bytes have crossed PCIe. The buffer stays held until
// ReleaseWriteBuffer.
//
//simlint:hotpath
func (h *HostIf) PageDown(size int, done func()) {
	h.writeWaiting.Push(transfer{size, done})
	h.writeFree.Acquire(h.grantWrite)
}

// ReleaseWriteBuffer returns a write buffer to the free queue.
func (h *HostIf) ReleaseWriteBuffer() {
	h.writeFree.Release()
}

// ToHostUtilization reports PCIe device-to-host utilization.
func (h *HostIf) ToHostUtilization() float64 { return h.toHost.Utilization() }

// ToHostBytes reports total bytes DMAed into host memory.
func (h *HostIf) ToHostBytes() int64 { return h.toHost.Transferred() }
