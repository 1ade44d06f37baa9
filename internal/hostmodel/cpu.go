// Package hostmodel models the Xeon host server of each BlueDBM node:
// a pool of cores running software threads, and a shared DRAM with
// bounded bandwidth. The application-acceleration experiments (paper
// §7) compare in-store processors against host software whose
// throughput is set by per-item compute cost, core count, and memory
// bandwidth; this package supplies exactly those knobs.
package hostmodel

import (
	"fmt"

	"repro/internal/sim"
)

// Config describes the host machine (paper §5: 24 cores, 50 GB DRAM).
type Config struct {
	Cores           int
	DRAMBytesPerSec int64
	DRAMLatency     sim.Time
}

// DefaultConfig matches the paper's Xeon servers.
func DefaultConfig() Config {
	return Config{
		Cores:           24,
		DRAMBytesPerSec: 60_000_000_000,
		DRAMLatency:     100 * sim.Nanosecond,
	}
}

// CPU is one host's compute model.
type CPU struct {
	eng      *sim.Engine
	cfg      Config
	runnable int // threads currently executing or queued
	dram     *sim.Pipe

	busy sim.Time // accumulated core-busy time, for utilization
}

// New builds a CPU model.
func New(eng *sim.Engine, name string, cfg Config) (*CPU, error) {
	if cfg.Cores <= 0 || cfg.DRAMBytesPerSec <= 0 {
		return nil, fmt.Errorf("hostmodel: invalid config %+v", cfg)
	}
	return &CPU{
		eng:  eng,
		cfg:  cfg,
		dram: sim.NewPipe(eng, name+"/dram", cfg.DRAMBytesPerSec, cfg.DRAMLatency),
	}, nil
}

// Config returns the machine description.
func (c *CPU) Config() Config { return c.cfg }

// Utilization returns the fraction of total core-time spent busy.
func (c *CPU) Utilization() float64 {
	if c.eng.Now() == 0 {
		return 0
	}
	return float64(c.busy) / float64(int64(c.eng.Now())*int64(c.cfg.Cores))
}

// ReadDRAM charges a DRAM transfer of n bytes and runs fn when the
// data is available. All threads share the bandwidth.
func (c *CPU) ReadDRAM(n int, fn func()) {
	c.dram.Transfer(n, fn)
}

// Stats is a snapshot of the host envelope's consumption: how much of
// the shared memory-bandwidth and core budget the software running on
// this node has used. The bench JSONs report it per experiment arm so
// memory-bandwidth pressure (DRAM-cache hits, ISP merge, host scans
// all share the same pipe) is visible next to the latency numbers.
// Exported floats are NaN/Inf-guarded like the sched/volume snapshots.
type Stats struct {
	DRAMBytesMoved  int64   `json:"dram_bytes_moved"`
	DRAMTransfers   int64   `json:"dram_transfers"`
	DRAMUtilization float64 `json:"dram_utilization"`
	CPUUtilization  float64 `json:"cpu_utilization"`
	CoreBusyMs      float64 `json:"core_busy_ms"`
}

// Stats returns the cumulative host-envelope counters.
func (c *CPU) Stats() Stats {
	return Stats{
		DRAMBytesMoved:  c.dram.Transferred(),
		DRAMTransfers:   c.dram.Transfers(),
		DRAMUtilization: sim.Finite(c.dram.Utilization()),
		CPUUtilization:  sim.Finite(c.Utilization()),
		CoreBusyMs:      sim.Finite(float64(c.busy) / float64(sim.Millisecond)),
	}
}

// Delta returns the counters accumulated since a prior snapshot. The
// utilization fields are gauges over the whole run and keep their
// current value (a windowed utilization would need the window's wall
// time, which the caller has; the byte and transfer counters are what
// per-arm comparisons need).
func (s Stats) Delta(since Stats) Stats {
	return Stats{
		DRAMBytesMoved:  s.DRAMBytesMoved - since.DRAMBytesMoved,
		DRAMTransfers:   s.DRAMTransfers - since.DRAMTransfers,
		DRAMUtilization: s.DRAMUtilization,
		CPUUtilization:  s.CPUUtilization,
		CoreBusyMs:      sim.Finite(s.CoreBusyMs - since.CoreBusyMs),
	}
}

// Thread is a software thread: a serial queue of compute work. Work on
// different threads runs in parallel up to the core count; beyond it,
// time-sharing stretches every running op proportionally.
type Thread struct {
	cpu     *CPU
	queue   sim.Queue[workItem]
	running bool
	current workItem // the in-flight item; threads run strictly serially
	step    func()   // bound once: run current, then pump the queue
}

type workItem struct {
	cost sim.Time
	fn   func()
}

// NewThread creates an idle thread. The step continuation is bound
// here once and reused for every work item, so the per-item dispatch
// in next() allocates nothing.
func (c *CPU) NewThread() *Thread {
	t := &Thread{cpu: c}
	t.step = func() {
		t.current.fn()
		t.next()
	}
	return t
}

// NewThreads creates n idle threads, one when n is zero or negative: a
// pool of software workers as the thread sweeps size it.
func (c *CPU) NewThreads(n int) []*Thread {
	ths := make([]*Thread, max(n, 1))
	for i := range ths {
		ths[i] = c.NewThread()
	}
	return ths
}

// Do queues fn to run after cost of compute. Ops on one thread are
// strictly serial.
func (t *Thread) Do(cost sim.Time, fn func()) {
	if cost < 0 {
		panic(fmt.Sprintf("hostmodel: negative cost %v", cost))
	}
	t.queue.Push(workItem{cost: cost, fn: fn})
	if !t.running {
		t.running = true
		t.cpu.runnable++
		t.next()
	}
}

func (t *Thread) next() {
	if t.queue.Len() == 0 {
		t.running = false
		t.cpu.runnable--
		return
	}
	item := t.queue.Pop()
	// Time-sharing: with R runnable threads on C cores, each op takes
	// R/C times longer once R > C.
	eff := item.cost
	if r := t.cpu.runnable; r > t.cpu.cfg.Cores {
		eff = sim.Time(int64(eff) * int64(r) / int64(t.cpu.cfg.Cores))
	}
	t.cpu.busy += item.cost
	// A thread runs one item at a time (next is re-entered only from
	// step), so parking it in t.current is safe and lets the bound step
	// closure run it without a per-item capture.
	t.current = item
	t.cpu.eng.After(eff, t.step)
}
