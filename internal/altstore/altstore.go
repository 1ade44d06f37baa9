// Package altstore models the comparator storage devices of the
// paper's evaluation: the off-the-shelf M.2 PCIe SSD (600 MB/s for
// 8 KB accesses, sequential-optimized — §7.1) and a conventional hard
// disk (seek-dominated random access — Figures 17 and 21).
//
// These are black-box envelope models: the experiments only depend on
// the devices' published throughput/latency behaviour, not on their
// internals. Completion callbacks take an error so the devices share
// one reader signature with the flash paths; an envelope model never
// fails a request, so the error is always nil.
package altstore

import (
	"fmt"

	"repro/internal/sim"
)

// Device is the one reader interface of the comparator drives: the host
// reads size bytes, sequential selecting the prefetch-friendly path
// where the drive has one, and done runs when the data is in host
// memory. The software baselines of Figures 17 and 21 stream from a
// Device (lsh.RunMixedDRAM, search.SearchSoftware).
type Device interface {
	Read(size int, sequential bool, done func(error))
}

var (
	_ Device = (*SSD)(nil)
	_ Device = (*HDD)(nil)
)

// SSDConfig describes an off-the-shelf NVMe/M.2 SSD.
type SSDConfig struct {
	Channels          int      // internal parallelism
	RandomLatency     sim.Time // per-command latency for a random read
	SeqLatency        sim.Time // per-command latency when the FTL prefetcher hits
	StreamBytesPerSec int64    // interface / sequential cap
}

// DefaultSSD matches the paper's 512 GB M.2 PCIe SSD: ~600 MB/s on
// 8 KB accesses when sequential, much worse when random (Figure 18).
func DefaultSSD() SSDConfig {
	return SSDConfig{
		Channels:          4,
		RandomLatency:     110 * sim.Microsecond,
		SeqLatency:        12 * sim.Microsecond,
		StreamBytesPerSec: 600_000_000,
	}
}

// SSD is the comparator flash drive.
type SSD struct {
	eng      *sim.Engine
	cfg      SSDConfig
	channels *sim.TokenPool
	stream   *sim.Pipe

	Reads sim.Counter
}

// NewSSD builds the device.
func NewSSD(eng *sim.Engine, name string, cfg SSDConfig) (*SSD, error) {
	if cfg.Channels <= 0 || cfg.StreamBytesPerSec <= 0 {
		return nil, fmt.Errorf("altstore: invalid SSD config %+v", cfg)
	}
	return &SSD{
		eng:      eng,
		cfg:      cfg,
		channels: sim.NewTokenPool(name+"/chan", cfg.Channels),
		stream:   sim.NewPipe(eng, name+"/bus", cfg.StreamBytesPerSec, 0),
	}, nil
}

// Read fetches size bytes; sequential selects the prefetch-friendly
// path. done runs when the data is in host memory.
//
//simlint:once done
func (s *SSD) Read(size int, sequential bool, done func(error)) {
	s.Reads.Inc()
	lat := s.cfg.RandomLatency
	if sequential {
		lat = s.cfg.SeqLatency
	}
	s.channels.Acquire(func() {
		s.eng.After(lat, func() {
			s.channels.Release()
			s.stream.Transfer(size, func() { done(nil) })
		})
	})
}

// HDDConfig describes a conventional hard disk.
type HDDConfig struct {
	Seek              sim.Time // average seek + rotational delay
	StreamBytesPerSec int64    // media transfer rate
}

// DefaultHDD is a 7200 rpm SATA disk of the paper's era.
func DefaultHDD() HDDConfig {
	return HDDConfig{
		Seek:              8 * sim.Millisecond,
		StreamBytesPerSec: 147_000_000,
	}
}

// HDD is the comparator disk: one actuator, so everything serializes.
type HDD struct {
	eng      *sim.Engine
	cfg      HDDConfig
	actuator *sim.TokenPool
	stream   *sim.Pipe

	Reads sim.Counter
}

// NewHDD builds the device.
func NewHDD(eng *sim.Engine, name string, cfg HDDConfig) (*HDD, error) {
	if cfg.StreamBytesPerSec <= 0 {
		return nil, fmt.Errorf("altstore: invalid HDD config %+v", cfg)
	}
	return &HDD{
		eng:      eng,
		cfg:      cfg,
		actuator: sim.NewTokenPool(name+"/arm", 1),
		stream:   sim.NewPipe(eng, name+"/media", cfg.StreamBytesPerSec, 0),
	}, nil
}

// Read fetches size bytes; non-sequential reads pay the seek.
//
//simlint:once done
func (h *HDD) Read(size int, sequential bool, done func(error)) {
	h.Reads.Inc()
	h.access(size, sequential, done)
}

//simlint:once done
func (h *HDD) access(size int, sequential bool, done func(error)) {
	h.actuator.Acquire(func() {
		seek := h.cfg.Seek
		if sequential {
			seek = 0
		}
		h.eng.After(seek, func() {
			h.stream.Transfer(size, func() {
				h.actuator.Release()
				done(nil)
			})
		})
	})
}
