package sim

import "fmt"

// Pipe models a serialized transfer resource — a flash bus, a serial
// network link, or a DMA channel — with a fixed bandwidth and a fixed
// propagation latency. Transfers queue FIFO: a transfer occupies the
// pipe for size/bandwidth, and its payload is delivered latency after
// the occupancy ends (store-and-forward).
type Pipe struct {
	eng         *Engine
	name        string
	bytesPerSec int64
	latency     Time

	busyUntil   Time
	busyTotal   Time // accumulated occupancy, for utilization stats
	transferred int64
	transfers   int64
}

// NewPipe constructs a pipe. bytesPerSec must be positive; latency may
// be zero.
func NewPipe(eng *Engine, name string, bytesPerSec int64, latency Time) *Pipe {
	if bytesPerSec <= 0 {
		panic(fmt.Sprintf("sim: pipe %q: non-positive bandwidth %d", name, bytesPerSec))
	}
	if latency < 0 {
		panic(fmt.Sprintf("sim: pipe %q: negative latency %v", name, latency))
	}
	return &Pipe{eng: eng, name: name, bytesPerSec: bytesPerSec, latency: latency}
}

// Name returns the pipe's diagnostic name.
func (p *Pipe) Name() string { return p.name }

// serialization returns the wire occupancy of a transfer of n bytes.
//
//simlint:hotpath
func (p *Pipe) serialization(n int) Time {
	return Time(int64(n) * int64(Second) / p.bytesPerSec)
}

// Transfer enqueues a transfer of size bytes and schedules done at the
// delivery time. It returns the delivery time.
//
//simlint:hotpath
func (p *Pipe) Transfer(size int, done func()) Time {
	if size < 0 {
		panic(fmt.Sprintf("sim: pipe %q: negative transfer size %d", p.name, size))
	}
	return p.reserve(p.serialization(size), int64(size), 1, done)
}

// TransferBursts enqueues total bytes as back-to-back bursts of at
// most burst bytes — exactly the reservations that one Transfer call
// per burst, all made in this instant, would make — and schedules done
// once, at the delivery time of the last burst, which it returns. The
// occupancy is the sum of the per-burst serializations (each rounded
// down on its own), not the serialization of total, so the delivery
// time is bit-identical to the per-burst form at one event instead of
// ceil(total/burst).
//
//simlint:hotpath
func (p *Pipe) TransferBursts(total, burst int, done func()) Time {
	if total < 0 || burst <= 0 {
		panic(fmt.Sprintf("sim: pipe %q: bad burst transfer: %d bytes in bursts of %d", p.name, total, burst))
	}
	full, tail := total/burst, total%burst
	ser := Time(full) * p.serialization(burst)
	n := int64(full)
	if tail > 0 {
		ser += p.serialization(tail)
		n++
	}
	return p.reserve(ser, int64(total), n, done)
}

// reserve occupies the pipe for ser starting when it next falls free,
// accounts bytes moved in n transfers, and schedules done at delivery.
//
//simlint:hotpath
func (p *Pipe) reserve(ser Time, bytes, n int64, done func()) Time {
	start := p.eng.Now()
	if p.busyUntil > start {
		start = p.busyUntil
	}
	p.busyUntil = start + ser
	p.busyTotal += ser
	p.transferred += bytes
	p.transfers += n
	delivery := p.busyUntil + p.latency
	if done != nil {
		p.eng.At(delivery, done)
	}
	return delivery
}

// Transferred returns the total bytes accepted so far.
func (p *Pipe) Transferred() int64 { return p.transferred }

// Transfers returns the number of transfers accepted so far.
func (p *Pipe) Transfers() int64 { return p.transfers }

// Utilization returns the fraction of time the pipe has been occupied,
// measured against the engine's current clock. Returns 0 at time zero.
func (p *Pipe) Utilization() float64 {
	if p.eng.Now() == 0 {
		return 0
	}
	busy := p.busyTotal
	// Occupancy reserved beyond "now" has not elapsed yet.
	if p.busyUntil > p.eng.Now() {
		busy -= p.busyUntil - p.eng.Now()
	}
	return float64(busy) / float64(p.eng.Now())
}
