package graph

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/sim"
)

// Mode selects the traversal access path (Figure 20's bars).
type Mode int

// Traversal modes.
const (
	ModeISPF  Mode = iota // in-store processor reads remote flash directly
	ModeHF                // host reads remote flash over the integrated network
	ModeHRHF              // host reads remote flash via the remote host
	ModeHDRAM             // host reads remote DRAM via the remote host
	ModeMixed             // remote host serves from DRAM, PctFlash% miss to flash
)

func (m Mode) String() string {
	switch m {
	case ModeISPF:
		return "ISP-F"
	case ModeHF:
		return "H-F"
	case ModeHRHF:
		return "H-RH-F"
	case ModeHDRAM:
		return "H-DRAM"
	case ModeMixed:
		return "DRAM+flash"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// TraverseConfig parameterizes a run.
type TraverseConfig struct {
	Start    int
	Steps    int
	Mode     Mode
	PctFlash int // ModeMixed: percentage of lookups served from flash
	Seed     uint64
	Walkers  int // parallel dependent chains; 1 matches the paper
}

// Walker-stream derivation constants: walker w's vertex-selection RNG
// is seeded Seed + w*walkerSeedStride, and its ModeMixed path-choice
// RNG Seed + w*walkerSeedStride + pathSeedOffset. Path choice MUST be
// an independent stream: drawing it from the walk RNG would make a
// Mixed walk visit a different vertex sequence than every other mode
// under the same seed, and the VisitSum cross-validation the checksum
// exists for could never pass.
const (
	walkerSeedStride = 977
	pathSeedOffset   = 7919
)

// WalkerSeed returns walker w's vertex-selection RNG seed; walker w
// also starts at WalkerStart. Exported so reference implementations
// (in-memory, in-store migrating) replay exactly the same walks.
func (cfg TraverseConfig) WalkerSeed(w int) uint64 {
	return cfg.Seed + uint64(w)*walkerSeedStride
}

// WalkerStart returns walker w's starting vertex in a graph of n
// vertices.
func (cfg TraverseConfig) WalkerStart(w, n int) int {
	return (cfg.Start + w*31) % n
}

// Result reports a traversal.
type Result struct {
	Steps         int64
	Elapsed       sim.Time
	LookupsPerSec float64
	// VisitSum is a checksum over the visited vertex sequences so
	// different access paths can be verified to walk the same graph:
	// walker 0's folded sum for a single walker, the XOR of the
	// per-walker sums otherwise (XOR is interleaving-independent, so
	// modes with different completion interleavings still compare).
	VisitSum uint64
	// VisitSums holds each walker's folded checksum, indexed by walker.
	VisitSums []uint64
}

// FoldVisit extends a walker's checksum with one visited vertex.
func FoldVisit(sum uint64, v int) uint64 {
	return sum*1099511628211 + uint64(v)
}

// AdvanceStep folds the visit of current into sum and draws the next
// vertex: a uniform restart on a dead end, a uniform neighbor pick
// otherwise. Every traversal implementation — the host-centric
// Traverse, the in-memory reference, ispvol's migrating in-store walk
// — advances through this one function: it consumes exactly one RNG
// draw per step, and the cross-arm VisitSum validation depends on all
// arms consuming the same stream identically.
func AdvanceStep(sum uint64, current int, nbs []uint32, vertices int, rng *sim.RNG) (uint64, int) {
	sum = FoldVisit(sum, current)
	if len(nbs) == 0 {
		return sum, rng.Intn(vertices)
	}
	return sum, int(nbs[rng.Intn(len(nbs))])
}

// CombineVisitSums derives the cross-mode VisitSum from per-walker sums.
func CombineVisitSums(sums []uint64) uint64 {
	if len(sums) == 1 {
		return sums[0]
	}
	var x uint64
	for _, s := range sums {
		x ^= s
	}
	return x
}

// Traverse performs dependent lookups from the home node and drains
// the cluster's event engine. A lookup that fails (read error or
// malformed adjacency page) fails the whole run: a truncated walk
// reported as success is how silent data loss looks in a benchmark.
func Traverse(c *core.Cluster, home int, g *Graph, cfg TraverseConfig) (*Result, error) {
	var res *Result
	var rerr error
	fired := false
	TraverseAsync(c, home, g, cfg, func(r *Result, err error) {
		res, rerr, fired = r, err, true
	})
	c.Run()
	if !fired {
		return nil, fmt.Errorf("graph: traversal: %w", sim.ErrUnfinished)
	}
	return res, rerr
}

// TraverseAsync starts the traversal and fires done in virtual time
// when every walker has finished (or the first failure is known); the
// caller drives the engine. It is the composable form used by
// experiments that co-run traversals with foreground load.
//
//simlint:once done
func TraverseAsync(c *core.Cluster, home int, g *Graph, cfg TraverseConfig, done func(*Result, error)) {
	if cfg.Steps <= 0 {
		done(nil, fmt.Errorf("%w: %d", ErrBadSteps, cfg.Steps))
		return
	}
	if cfg.Mode < ModeISPF || cfg.Mode > ModeMixed {
		done(nil, fmt.Errorf("%w: %v", ErrBadMode, cfg.Mode))
		return
	}
	if cfg.Walkers <= 0 {
		cfg.Walkers = 1
	}
	node := c.Node(home)
	res := &Result{VisitSums: make([]uint64, cfg.Walkers)}
	start := c.Eng.Now()
	// All walkers are accounted for BEFORE any of them starts: a
	// walker that fails synchronously (an immediate send error)
	// must not zero the count while later walkers are still unspawned,
	// or done would fire more than once.
	remaining := cfg.Walkers
	var firstErr error
	finishWalker := func() {
		remaining--
		if remaining != 0 {
			return
		}
		if firstErr != nil {
			done(nil, firstErr)
			return
		}
		res.VisitSum = CombineVisitSums(res.VisitSums)
		res.Elapsed = c.Eng.Now() - start
		if res.Elapsed > 0 {
			res.LookupsPerSec = float64(res.Steps) / res.Elapsed.Seconds()
		}
		done(res, nil)
	}

	for w := 0; w < cfg.Walkers; w++ {
		w := w
		rng := sim.NewRNG(cfg.WalkerSeed(w))
		pathRNG := sim.NewRNG(cfg.WalkerSeed(w) + pathSeedOffset)
		current := cfg.WalkerStart(w, g.Vertices())
		stepsLeft := cfg.Steps

		var step func()
		fail := func(err error) {
			if firstErr == nil {
				firstErr = fmt.Errorf("graph: walker %d at vertex %d: %w", w, current, err)
			}
			finishWalker()
		}
		handle := func(data []byte, err error) {
			if err != nil {
				fail(err)
				return
			}
			nbs, derr := DecodePage(data)
			if derr != nil {
				fail(derr)
				return
			}
			res.Steps++
			res.VisitSums[w], current = AdvanceStep(res.VisitSums[w], current, nbs, g.Vertices(), rng)
			stepsLeft--
			if stepsLeft == 0 {
				finishWalker()
				return
			}
			step()
		}
		step = func() {
			addr := g.PageOf(current)
			switch cfg.Mode {
			case ModeISPF:
				node.ISPReadDirect(addr, handle)
			case ModeHF:
				node.HostRead(addr, core.PathHF, nil, handle)
			case ModeHRHF:
				node.HostRead(addr, core.PathHRHF, nil, handle)
			case ModeHDRAM:
				node.HostRead(addr, core.PathHD, nil, handle)
			case ModeMixed:
				if pathRNG.Intn(100) < cfg.PctFlash {
					node.HostRead(addr, core.PathHRHF, nil, handle)
				} else {
					node.HostRead(addr, core.PathHD, nil, handle)
				}
			}
		}
		step()
	}
}

// ReferenceWalk computes walker 0's walk in memory (no simulation)
// for correctness checks; it mirrors Traverse with Walkers=1.
func ReferenceWalk(g *Graph, cfg TraverseConfig) uint64 {
	return ReferenceWalkWalker(g, cfg, 0)
}

// ReferenceWalkWalker computes walker w's in-memory checksum: the
// oracle every access path — host-centric or migrating in-store — is
// validated against, one walker at a time.
func ReferenceWalkWalker(g *Graph, cfg TraverseConfig, w int) uint64 {
	rng := sim.NewRNG(cfg.WalkerSeed(w))
	current := cfg.WalkerStart(w, g.Vertices())
	var sum uint64
	for s := 0; s < cfg.Steps; s++ {
		sum, current = AdvanceStep(sum, current, g.adj[current], g.Vertices(), rng)
	}
	return sum
}
