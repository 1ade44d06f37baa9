// Package core assembles the BlueDBM appliance (paper §3, Figure 1):
// a homogeneous cluster of host servers, each coupled to a storage
// device that combines flash cards, a flash controller with ECC, an
// in-store processing substrate, an integrated storage network, and a
// PCIe host interface.
//
// The package exposes the global address space over all flash in the
// cluster and the four access paths the evaluation compares
// (Figure 12): ISP-F (in-store processor to remote flash over the
// integrated network), H-F (host to remote flash over the integrated
// network), H-RH-F (host to remote flash via the remote host), and
// H-D (host to remote DRAM).
package core

import (
	"fmt"

	"repro/internal/fabric"
	"repro/internal/flashctl"
	"repro/internal/hostif"
	"repro/internal/hostmodel"
	"repro/internal/nand"
	"repro/internal/sim"
)

// Params configures a cluster. DefaultParams reproduces the paper's
// 20-node deployment at reduced flash capacity (the geometry scales
// capacity, not behaviour: all bandwidths and latencies are faithful).
type Params struct {
	Nodes        int
	CardsPerNode int

	Geometry    nand.Geometry
	FlashTiming nand.Timing
	Reliability nand.Reliability

	Controller flashctl.Config
	Net        fabric.Config
	Topology   fabric.Topology // zero value: ring with 4 lanes
	Host       hostif.Config
	CPU        hostmodel.Config

	// QueueDepth is the flash server per-interface command queue depth.
	QueueDepth int
	// DRAMBytesPerSec is the on-device DRAM buffer bandwidth.
	DRAMBytesPerSec int64
	// DRAMLatency is the on-device DRAM access latency (H-D path).
	DRAMLatency sim.Time

	Seed uint64
}

// DefaultParams returns a paper-faithful cluster of n nodes. Flash
// geometry is scaled down (512 MB/card instead of 512 GB) so tests and
// benchmarks run quickly; timing and bandwidth parameters are the
// paper's.
func DefaultParams(n int) Params {
	return Params{
		Nodes:        n,
		CardsPerNode: 2,
		Geometry: nand.Geometry{
			// One independently-readable LUN per bus: with the 60 µs
			// cell read this pins the card at the paper's ~1.1 GB/s
			// logical read bandwidth (see nand.DefaultTiming).
			Buses:         8,
			ChipsPerBus:   1,
			BlocksPerChip: 64,
			PagesPerBlock: 32,
			PageSize:      8192,
			OOBSize:       1024,
		},
		FlashTiming:     nand.DefaultTiming(),
		Reliability:     nand.Reliability{BitErrorRate: 1e-9, EnduranceCycles: 3000, WearOutProb: 0.02},
		Controller:      flashctl.DefaultConfig(),
		Net:             fabric.DefaultConfig(),
		Host:            hostif.DefaultConfig(),
		CPU:             hostmodel.DefaultConfig(),
		QueueDepth:      256,
		DRAMBytesPerSec: 10_000_000_000,
		DRAMLatency:     200 * sim.Nanosecond,
		Seed:            1,
	}
}

// Validate checks parameter consistency.
func (p Params) Validate() error {
	if p.Nodes <= 0 {
		return fmt.Errorf("core: %d nodes", p.Nodes)
	}
	if p.CardsPerNode <= 0 {
		return fmt.Errorf("core: %d cards per node", p.CardsPerNode)
	}
	if err := p.Geometry.Validate(); err != nil {
		return err
	}
	if p.QueueDepth <= 0 {
		return fmt.Errorf("core: queue depth %d", p.QueueDepth)
	}
	return nil
}

// PageSize returns the cluster's page size.
func (p Params) PageSize() int { return p.Geometry.PageSize }

// readsPerChip is the flash read depth a scan keeps per chip: "4 read
// commands saturate a flash bus" (paper §7.3).
const readsPerChip = 4

// ReadDepth returns one node's flash read depth, readsPerChip per chip
// of its cards: the reads an in-store engine or a host-mediated scan
// keeps in flight (ispvol), and the scheduler's Accel token budget
// (sched), which holds that many admitted reads per node.
func (p Params) ReadDepth() int {
	return readsPerChip * p.CardsPerNode * p.Geometry.Buses * p.Geometry.ChipsPerBus
}

// NodeCapacity returns bytes of flash per node.
func (p Params) NodeCapacity() int64 {
	return int64(p.CardsPerNode) * p.Geometry.TotalBytes()
}
