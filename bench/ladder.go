package main

// The ladder: one rung per layer entry point. Each rung builds only
// the stack beneath its entry point on a fresh engine, warms it, then
// makes a fixed, seeded series of calls one at a time — issue, run the
// engine dry, next — and reports per call the host CPU time, events fired,
// allocations and bytes allocated, and the unloaded simulated latency
// from issue to callback. A layer's own cost is its rung minus the
// rung beneath it.

import (
	"fmt"
	"runtime"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/ecc"
	"repro/internal/fabric"
	"repro/internal/flashserver"
	"repro/internal/ispvol"
	"repro/internal/nand"
	"repro/internal/rfs"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/volume"
)

// ladderSeed fixes the ladder's inputs: its numbers are a property of
// the commit, not of the run's -seed.
const ladderSeed = 0x1adde7

// rungCalls is each rung's call count at full size, sized for about a
// quarter of a second of host time: every -trace 1 run measures the
// whole ladder again, and fourteen rungs have to fit beside its window.
var rungCalls = map[string]int{
	"sim.event":          10_000_000,
	"ecc.decode_page":    40_000,
	"nand.read":          75_000,
	"flashserver.read":   15_000,
	"flashserver.write":  8_192,
	"fabric.send_4hop":   100_000,
	"core.isp_read":      15_000,
	"core.host_read":     12_500,
	"sched.read":         10_000,
	"volume.read":        10_000,
	"volume.write":       4_000,
	"cache.read_hit":     5_000_000,
	"rfs.append":         8_192,
	"ispvol.search_page": 6_400,
}

const ladderPages = 1024 // pages seeded beneath the read rungs

// oneCall is one depth-1 call's completion record.
type oneCall struct {
	eng *sim.Engine
	at  sim.Time
	ok  bool
	rcb func([]byte, error)
	wcb func(error)
}

func newCall(eng *sim.Engine) *oneCall {
	p := &oneCall{eng: eng}
	p.rcb = func(_ []byte, err error) { p.at, p.ok = eng.Now(), err == nil }
	p.wcb = func(err error) { p.at, p.ok = eng.Now(), err == nil }
	return p
}

// arm forgets the last call's completion, so a callback the stack
// drops reads as a failed call and not as the call before it, and
// returns the time the next call is issued at.
func (p *oneCall) arm() sim.Time {
	p.at, p.ok = -1, false
	return p.eng.Now()
}

// meter times n calls. call issues one call and returns once the
// engine has run dry, reporting the call's simulated latency.
func meter(name string, eng *sim.Engine, n int, call func(i int) (sim.Time, bool)) (map[string]float64, error) {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	var f0 uint64
	if eng != nil {
		f0 = eng.Fired()
	}
	var simTotal sim.Time
	t0 := cpuTime()
	for i := 0; i < n; i++ {
		lat, ok := call(i)
		if !ok {
			return nil, fmt.Errorf("ladder %s: call %d failed", name, i)
		}
		simTotal += lat
	}
	cpu := cpuTime() - t0
	runtime.ReadMemStats(&m1)
	fn := float64(n)
	out := map[string]float64{
		name + ".host_ns":     float64(cpu.Nanoseconds()) / fn,
		name + ".events":      0,
		name + ".allocs":      float64(m1.Mallocs-m0.Mallocs) / fn,
		name + ".alloc_bytes": float64(m1.TotalAlloc-m0.TotalAlloc) / fn,
		name + ".sim_us":      simTotal.Micros() / fn,
	}
	if eng != nil {
		out[name+".events"] = float64(eng.Fired()-f0) / fn
	}
	return out, nil
}

// ladderCluster is a one-node appliance with ladderPages stamped pages
// seeded from dense index 0.
func ladderCluster(st *stamper) (*core.Cluster, error) {
	c, err := core.NewCluster(core.DefaultParams(1))
	if err != nil {
		return nil, err
	}
	err = c.SeedLinear(0, ladderPages, func(idx int, page []byte) { st.fill(page, 0, uint64(idx), 0) })
	return c, err
}

// ladderVolume is a one-node volume on small flash, every logical page
// written once, under the default scheduler.
func ladderVolume(st *stamper, blocksPerChip int) (*core.Cluster, *volume.Volume, *volume.Stream, error) {
	p := core.DefaultParams(1)
	p.Geometry.BlocksPerChip = blocksPerChip
	c, err := core.NewCluster(p)
	if err != nil {
		return nil, nil, nil, err
	}
	s, err := sched.New(c, sched.DefaultConfig())
	if err != nil {
		return nil, nil, nil, err
	}
	v, err := volume.New(c, s, volume.DefaultConfig())
	if err != nil {
		return nil, nil, nil, err
	}
	vers := newVersions(st, 0, v.Pages(), v.PageSize())
	if err := seedVolume(v, c, vers, v.Pages(), 0, func(i int) int { return i }); err != nil {
		return nil, nil, nil, err
	}
	vs, err := v.NewStream("ladder", sched.Interactive)
	return c, v, vs, err
}

// runLadder measures every rung; at smoke size with a hundredth of the
// calls on the smallest flash that still collects garbage.
func runLadder(smoke bool) (map[string]float64, error) {
	out := map[string]float64{}
	for _, r := range rungs {
		n, blocks := rungCalls[r.name], 8
		if smoke {
			n, blocks = max(n/100, 64), 2
		}
		m, err := runRung(r.name, n, blocks)
		if err != nil {
			return nil, err
		}
		if !r.hasSim {
			delete(m, r.name+".sim_us")
		}
		for k, v := range m {
			out[k] = v
		}
	}
	return out, nil
}

func runRung(name string, n, blocksPerChip int) (map[string]float64, error) {
	st := &stamper{seed: ladderSeed}
	r := newRNG(ladderSeed)
	switch name {
	case "sim.event":
		eng := sim.NewEngine()
		fn := func() {}
		return meter(name, eng, n, func(int) (sim.Time, bool) {
			eng.After(sim.Microsecond, fn)
			return 0, eng.Step()
		})

	case "ecc.decode_page":
		codec, err := ecc.NewPageCodec(8192)
		if err != nil {
			return nil, err
		}
		page := make([]byte, 8192)
		st.fill(page, 0, 0, 0)
		raw, err := codec.EncodePage(page)
		if err != nil {
			return nil, err
		}
		// Each call decodes a page with one flipped data bit; the decode
		// repairs it in place, so the next call starts from a clean page.
		return meter(name, nil, n, func(int) (sim.Time, bool) {
			ecc.FlipBit(raw, r.intn(8192*8))
			res, err := codec.DecodePageInPlace(raw)
			return 0, err == nil && res.Corrected == 1
		})

	case "nand.read":
		eng := sim.NewEngine()
		p := core.DefaultParams(1)
		card, err := nand.NewCard(eng, "ladder", p.Geometry, p.FlashTiming, p.Reliability, ladderSeed)
		if err != nil {
			return nil, err
		}
		codec, err := ecc.NewPageCodec(p.Geometry.PageSize)
		if err != nil {
			return nil, err
		}
		page := make([]byte, p.Geometry.PageSize)
		var addrs []nand.Addr
		pr := newCall(eng)
		for i := 0; i < ladderPages; i++ {
			a := nand.Addr{Bus: i % p.Geometry.Buses, Page: i / p.Geometry.Buses % p.Geometry.PagesPerBlock,
				Block: i / p.Geometry.Buses / p.Geometry.PagesPerBlock}
			st.fill(page, 0, uint64(i), 0)
			raw, err := codec.EncodePage(page)
			if err != nil {
				return nil, err
			}
			pr.arm()
			card.ProgramPage(a, raw, pr.wcb)
			eng.Run()
			if !pr.ok {
				return nil, fmt.Errorf("ladder %s: program %v failed", name, a)
			}
			addrs = append(addrs, a)
		}
		return meter(name, eng, n, func(int) (sim.Time, bool) {
			t := pr.arm()
			card.ReadPage(addrs[r.intn(len(addrs))], pr.rcb)
			eng.Run()
			return pr.at - t, pr.ok
		})

	case "flashserver.read", "flashserver.write", "core.isp_read", "core.host_read", "sched.read":
		c, err := ladderCluster(st)
		if err != nil {
			return nil, err
		}
		eng, node := c.Eng, c.Node(0)
		pr := newCall(eng)
		ifaces := []*flashserver.Iface{node.NewIface(0, "ladder0"), node.NewIface(1, "ladder1")}
		var stream *sched.Stream
		if name == "sched.read" {
			s, err := sched.New(c, sched.DefaultConfig())
			if err != nil {
				return nil, err
			}
			if stream, err = s.NewStream("ladder", 0, sched.Interactive); err != nil {
				return nil, err
			}
		}
		page := make([]byte, c.Params.PageSize())
		return meter(name, eng, n, func(i int) (sim.Time, bool) {
			t := pr.arm()
			a := core.LinearPage(c.Params, 0, r.intn(ladderPages))
			switch name {
			case "flashserver.read":
				ifaces[a.Card].ReadPhysical(a.Addr, pr.rcb)
			case "flashserver.write":
				// Fresh pages past the seeded ones, in dense order, which
				// programs every block's pages in order.
				a = core.LinearPage(c.Params, 0, ladderPages+i)
				st.fill(page, 0, uint64(ladderPages+i), 0)
				ifaces[a.Card].WritePhysical(a.Addr, page, pr.wcb)
			case "core.isp_read":
				node.ISPReadDirect(a, pr.rcb)
			case "core.host_read":
				node.HostRead(a, core.PathHF, nil, pr.rcb)
			case "sched.read":
				if err := stream.Read(a, pr.rcb); err != nil {
					return 0, false
				}
			}
			eng.Run()
			return pr.at - t, pr.ok
		})

	case "fabric.send_4hop":
		eng := sim.NewEngine()
		net, err := fabric.Ring(16, 4).Build(eng, fabric.DefaultConfig(), 0)
		if err != nil {
			return nil, err
		}
		src, err := net.Node(0).BindEndpoint(0)
		if err != nil {
			return nil, err
		}
		dst, err := net.Node(4).BindEndpoint(0)
		if err != nil {
			return nil, err
		}
		var at sim.Time
		dst.OnReceive = func(fabric.NodeID, int, any) { at = eng.Now() }
		return meter(name, eng, n, func(int) (sim.Time, bool) {
			t := eng.Now()
			at = -1
			err := src.Send(4, 8192, nil, nil)
			eng.Run()
			return at - t, err == nil && at >= t
		})

	case "volume.read", "volume.write", "cache.read_hit":
		c, v, vs, err := ladderVolume(st, blocksPerChip)
		if err != nil {
			return nil, err
		}
		eng := c.Eng
		pr := newCall(eng)
		page := make([]byte, v.PageSize())
		switch name {
		case "volume.read":
			return meter(name, eng, n, func(int) (sim.Time, bool) {
				t := pr.arm()
				vs.Read(r.intn(v.Pages()), pr.rcb)
				eng.Run()
				return pr.at - t, pr.ok
			})
		case "volume.write":
			write := func(int) (sim.Time, bool) {
				t := pr.arm()
				lpn := r.intn(v.Pages())
				st.fill(page, 0, uint64(lpn), 1)
				vs.Write(lpn, page, pr.wcb)
				eng.Run() // the collection a write triggers is part of its cost
				return pr.at - t, pr.ok
			}
			// Overwrite the logical space once so collection is in
			// steady state before the measured calls.
			for i := 0; i < v.Pages(); i++ {
				if _, ok := write(i); !ok {
					return nil, fmt.Errorf("ladder %s: warm-up write failed", name)
				}
			}
			return meter(name, eng, n, write)
		default:
			const resident = 128
			ca, err := cache.New(c, v, cache.DefaultConfig(2*resident))
			if err != nil {
				return nil, err
			}
			cs, err := ca.NewStream("ladder", 0, sched.Interactive)
			if err != nil {
				return nil, err
			}
			for lpn := 0; lpn < resident; lpn++ {
				cs.Read(lpn, pr.rcb)
				eng.Run()
			}
			before := ca.Stats().Hits
			m, err := meter(name, eng, n, func(int) (sim.Time, bool) {
				t := pr.arm()
				cs.Read(r.intn(resident), pr.rcb)
				eng.Run()
				return pr.at - t, pr.ok
			})
			if err == nil && ca.Stats().Hits-before != int64(n) {
				err = fmt.Errorf("ladder %s: %d of %d reads hit", name, ca.Stats().Hits-before, n)
			}
			return m, err
		}

	case "rfs.append", "ispvol.search_page":
		c, err := core.NewCluster(core.DefaultParams(1))
		if err != nil {
			return nil, err
		}
		s, err := sched.New(c, sched.DefaultConfig())
		if err != nil {
			return nil, err
		}
		fs, _, err := rfs.NewClusterFS(c, s, rfs.ClusterConfig{}, rfs.DefaultConfig())
		if err != nil {
			return nil, err
		}
		f, err := fs.Create("ladder")
		if err != nil {
			return nil, err
		}
		eng := c.Eng
		pr := newCall(eng)
		page := make([]byte, fs.PageSize())
		appendPage := func(i int) (sim.Time, bool) {
			t := pr.arm()
			st.fill(page, 0, uint64(i), 0)
			f.AppendPage(page, pr.wcb)
			eng.Run()
			return pr.at - t, pr.ok
		}
		if name == "rfs.append" {
			return meter(name, eng, n, appendPage)
		}
		// One query scans the whole file; a call is one page of it.
		const filePages = 256
		for i := 0; i < filePages; i++ {
			if _, ok := appendPage(i); !ok {
				return nil, fmt.Errorf("ladder %s: append failed", name)
			}
		}
		isp, err := ispvol.New(c, s, nil, ispvol.DefaultConfig())
		if err != nil {
			return nil, err
		}
		queries := (n + filePages - 1) / filePages
		m, err := meter(name, eng, queries, func(int) (sim.Time, bool) {
			t := pr.arm()
			isp.SearchFile(0, f, needles[0], func(res *ispvol.SearchResult, err error) {
				pr.at, pr.ok = eng.Now(), err == nil && res.FailedPages == 0 && len(res.Matches) == 0
			})
			eng.Run()
			return pr.at - t, pr.ok
		})
		for k := range m {
			m[k] /= filePages
		}
		return m, err
	}
	return nil, fmt.Errorf("ladder: no rung %q", name)
}
