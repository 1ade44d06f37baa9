package ispvol

// In-store graph traversal with walker migration (paper §7.2 promoted
// to an end-to-end cluster scenario): instead of a fixed home node
// pulling every adjacency page to itself — the ISP-F/H-F/H-RH-F
// access paths Figure 20 compares per-access — the WALK migrates to
// the data. The engine at the node owning the current vertex reads
// the adjacency page locally (admitted through sched's Accel class,
// issued device-side), folds the visit into the walker's checksum,
// picks the next vertex, and forwards the walker's state — current
// vertex, steps left, checksum, RNG state; ~56 bytes — over the
// integrated storage network to the next vertex's owner. Each
// dependent lookup therefore costs one local flash read plus at most
// one tiny state hop, instead of a full page crossing the network
// (and, on the H-RH-F path, two host software stacks) per step. This
// is the network-latency argument of §3.2 turned into an application:
// the fabric's sub-microsecond hops make walker state cheap to move,
// and the flash never moves at all.
//
// The walker's RNG state rides the message (sim.RNG.State /
// NewRNGFromState), so a migrating walk replays EXACTLY the vertex
// sequence of graph.ReferenceWalkWalker and of the host-centric
// graph.Traverse under the same TraverseConfig — the VisitSum
// cross-validation that makes the speedup claim checkable.

import (
	"fmt"

	"repro/internal/accel/graph"
	"repro/internal/sim"
)

// walkerStateBytes is the on-wire size of a migrating walker: query
// id, walker id, current vertex, steps left, checksum, RNG state,
// step/migration counters — the whole walk fits in a header-and-
// change message.
const walkerStateBytes = 56

// WalkResult reports one migrating traversal.
type WalkResult struct {
	Steps      int64
	Walkers    int
	Migrations int64 // walker-state forwards between nodes
	// VisitSum / VisitSums mirror graph.Result: per-walker folded
	// checksums, aggregated as walker 0's sum (one walker) or the XOR
	// (several), so they compare directly against graph.Traverse and
	// graph.ReferenceWalkWalker.
	VisitSum      uint64
	VisitSums     []uint64
	Elapsed       sim.Time
	LookupsPerSec float64
}

// walkerMsg is a walker's migrating state. The *graph.Graph handle
// stands in for the vertex->page directory every node's ISP holds (a
// replicated table in hardware); only the state fields are charged on
// the wire.
type walkerMsg struct {
	query      uint64
	origin     int
	walker     int
	g          *graph.Graph
	current    int // vertex whose adjacency page is read next
	stepsLeft  int
	sum        uint64
	rngState   uint64
	steps      int64 // completed lookups
	migrations int64
}

// walkDone reports a finished (or failed) walker to the origin, in a
// partMsg.
type walkDone struct {
	walker     int
	steps      int64
	sum        uint64
	migrations int64
	err        error
}

// walkQuery is the origin-side completion state.
type walkQuery struct {
	sys       *System
	id        uint64
	origin    int
	remaining int
	res       *WalkResult
	firstErr  error
	start     sim.Time
	done      func(*WalkResult, error)
}

// WalkMigrate runs the migrating in-store traversal of g under cfg
// (cfg.Mode is ignored — the access path IS the migration). done
// fires in virtual time once every walker has reported back to origin
// and the result has DMA'd into its host's memory; the caller drives
// the engine. A failed lookup fails the run, exactly like
// graph.Traverse.
func (sys *System) WalkMigrate(origin int, g *graph.Graph, cfg graph.TraverseConfig, done func(*WalkResult, error)) {
	if err := sys.checkOrigin(origin); err != nil {
		done(nil, err)
		return
	}
	if cfg.Steps <= 0 {
		done(nil, fmt.Errorf("ispvol: %w: %d", graph.ErrBadSteps, cfg.Steps))
		return
	}
	if cfg.Walkers <= 0 {
		cfg.Walkers = 1
	}
	q := &walkQuery{
		sys:       sys,
		origin:    origin,
		remaining: cfg.Walkers,
		res: &WalkResult{
			Walkers:   cfg.Walkers,
			VisitSums: make([]uint64, cfg.Walkers),
		},
		start: sys.c.Eng.Now(),
		done:  done,
	}
	q.id = sys.startQuery(q)
	// One software + RPC charge launches every walker: the host seeds
	// each walker's state and ships it to its first vertex's owner.
	node := sys.nodes[origin].node
	node.Host.ChargeSoftware(func() {
		node.Host.RPC(func() {
			for w := 0; w < cfg.Walkers; w++ {
				rng := sim.NewRNG(cfg.WalkerSeed(w))
				start := cfg.WalkerStart(w, g.Vertices())
				m := &walkerMsg{
					query:     q.id,
					origin:    origin,
					walker:    w,
					g:         g,
					current:   start,
					stepsLeft: cfg.Steps,
					rngState:  rng.State(),
				}
				sys.deliver(origin, g.OwnerOf(start), walkerStateBytes, m)
			}
		})
	})
}

// runWalkStep executes one dependent lookup of a migrating walker on
// the node owning its current vertex, then forwards the state (or
// reports completion).
func (sys *System) runWalkStep(ns *nodeISP, m *walkerMsg) {
	self := ns.node.ID()
	addr := m.g.PageOf(m.current)
	if addr.Node != self {
		// Walkers are always delivered to OwnerOf(current), and the
		// graph's address snapshot is immutable (read-stable store),
		// so a misdelivery is a routing bug, not a recoverable state.
		panic(fmt.Sprintf("ispvol: walker %d for vertex %d (node %d) delivered to node %d",
			m.walker, m.current, addr.Node, self))
	}
	// report ships the walker's final state to the origin; err is the
	// lookup failure that ended it early, if any.
	report := func(err error) {
		d := &walkDone{walker: m.walker, steps: m.steps, sum: m.sum, migrations: m.migrations}
		if err != nil {
			d.err = fmt.Errorf("ispvol: walker %d at vertex %d: %w", m.walker, m.current, err)
		}
		sys.deliver(self, m.origin, 48, &partMsg{query: m.query, walk: d})
	}
	// The lookup holds an acceleration unit for the flash read, and
	// the read itself is admitted through the node's Accel stream —
	// walker traffic is a scheduled tenant like every other engine.
	// (The decode runs after the unit frees: parsing an adjacency
	// list is free in the model, like the engines' inline compares.)
	ns.units.Acquire(func() {
		sys.readPage(self, pageRef{addr: addr}, func(data []byte, err error) {
			ns.units.Release()
			if err != nil {
				report(err)
				return
			}
			nbs, derr := graph.DecodePage(data)
			if derr != nil {
				report(derr)
				return
			}
			m.steps++
			rng := sim.NewRNGFromState(m.rngState)
			m.sum, m.current = graph.AdvanceStep(m.sum, m.current, nbs, m.g.Vertices(), rng)
			m.rngState = rng.State()
			m.stepsLeft--
			if m.stepsLeft == 0 {
				report(nil)
				return
			}
			next := m.g.OwnerOf(m.current)
			if next == self {
				// Next vertex is local: keep walking, no network hop.
				sys.runWalkStep(ns, m)
				return
			}
			m.migrations++
			sys.deliver(self, next, walkerStateBytes, m)
		})
	})
}

// part merges one walker's completion into the origin state.
func (q *walkQuery) part(pm *partMsg) {
	m := pm.walk
	q.res.Steps += m.steps
	q.res.Migrations += m.migrations
	q.res.VisitSums[m.walker] = m.sum
	if m.err != nil && q.firstErr == nil {
		q.firstErr = m.err
	}
	q.remaining--
	if q.remaining > 0 {
		return
	}
	q.sys.finishQuery(q.id)
	if q.firstErr != nil {
		q.done(nil, q.firstErr)
		return
	}
	q.res.VisitSum = graph.CombineVisitSums(q.res.VisitSums)
	q.sys.dmaToHost(q.origin, 16+8*len(q.res.VisitSums), func() {
		q.res.Elapsed = q.sys.c.Eng.Now() - q.start
		if q.res.Elapsed > 0 {
			q.res.LookupsPerSec = float64(q.res.Steps) / q.res.Elapsed.Seconds()
		}
		q.done(q.res, nil)
	})
}
