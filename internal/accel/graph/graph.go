// Package graph implements BlueDBM's distributed graph traversal
// workload (paper §7.2): adjacency lists stored as flash pages spread
// across the cluster, traversed by dependent lookups — each step's
// target is known only after the previous page has been read and
// parsed, making the workload latency-bound and extremely sensitive to
// the access path (Figure 20).
package graph

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/sim"
)

// Graph errors.
var (
	ErrTooManyEdges = errors.New("graph: adjacency list exceeds one page")
	ErrBadPage      = errors.New("graph: malformed adjacency page")
	ErrBadSteps     = errors.New("graph: steps must be positive")
	ErrBadMode      = errors.New("graph: unknown traversal mode")
)

// Config describes a synthetic graph.
type Config struct {
	Vertices  int
	AvgDegree int
	Seed      uint64
	// HomeNode is excluded from vertex placement so that every lookup
	// from it is remote, matching the paper's remote-access experiment.
	HomeNode int
}

// Graph is a cluster-resident graph.
type Graph struct {
	cfg     Config
	cluster *core.Cluster
	adj     [][]uint32 // in-memory reference copy (for oracles/tests)
	placeOn []int      // storage nodes hosting vertices (striped layout)
	// addrs, when non-nil, pins vertex v's adjacency page to addrs[v]
	// explicitly instead of the striped SeedLinear layout — the form
	// used when the graph lives in a logical volume or file system and
	// page placement is whatever the FTLs chose.
	addrs []core.PageAddr
}

// EncodePage serializes an adjacency list into one flash page.
func EncodePage(neighbors []uint32, pageSize int) ([]byte, error) {
	if 4+4*len(neighbors) > pageSize {
		return nil, fmt.Errorf("%w: %d edges", ErrTooManyEdges, len(neighbors))
	}
	page := make([]byte, pageSize)
	binary.LittleEndian.PutUint32(page, uint32(len(neighbors)))
	for i, nb := range neighbors {
		binary.LittleEndian.PutUint32(page[4+4*i:], nb)
	}
	return page, nil
}

// DecodePage parses an adjacency page.
func DecodePage(page []byte) ([]uint32, error) {
	if len(page) < 4 {
		return nil, ErrBadPage
	}
	deg := binary.LittleEndian.Uint32(page)
	if 4+4*int(deg) > len(page) {
		return nil, fmt.Errorf("%w: degree %d", ErrBadPage, deg)
	}
	out := make([]uint32, deg)
	for i := range out {
		out[i] = binary.LittleEndian.Uint32(page[4+4*i:])
	}
	return out, nil
}

// Build generates a random graph and stores its adjacency pages across
// the cluster's flash (one vertex per page, striped over all nodes
// except HomeNode).
func Build(c *core.Cluster, cfg Config) (*Graph, error) {
	if cfg.Vertices <= 0 || cfg.AvgDegree <= 0 {
		return nil, fmt.Errorf("graph: bad config %+v", cfg)
	}
	var hosts []int
	for n := 0; n < c.Nodes(); n++ {
		if n != cfg.HomeNode || c.Nodes() == 1 {
			hosts = append(hosts, n)
		}
	}
	if len(hosts) == 0 {
		return nil, fmt.Errorf("graph: no storage nodes available")
	}
	perHost := (cfg.Vertices + len(hosts) - 1) / len(hosts)
	if perHost > core.PagesPerNode(c.Params) {
		return nil, fmt.Errorf("graph: %d vertices per node exceeds capacity %d",
			perHost, core.PagesPerNode(c.Params))
	}

	g := &Graph{cfg: cfg, cluster: c, placeOn: hosts}
	g.adj = GenAdjacency(cfg, c.Params.PageSize())

	// Store: vertex v -> host hosts[v % H], dense index v / H.
	ps := c.Params.PageSize()
	for h, host := range hosts {
		count := 0
		for v := h; v < cfg.Vertices; v += len(hosts) {
			count++
			_ = v
		}
		if count == 0 {
			continue
		}
		hostIdx := host
		if err := c.SeedLinear(host, count, func(idx int, page []byte) {
			v := h + idx*len(hosts)
			enc, err := EncodePage(g.adj[v], ps)
			if err != nil {
				panic(err)
			}
			copy(page, enc)
		}); err != nil {
			return nil, fmt.Errorf("graph: seeding node %d: %w", hostIdx, err)
		}
	}
	return g, nil
}

// GenAdjacency generates the synthetic adjacency lists for cfg,
// deterministically in cfg.Seed, capped so every list encodes into
// one page of pageSize bytes. It is the data half of Build, exported
// so graphs stored through other layers (a logical volume, a file
// system) hold exactly the same topology as a raw-flash Build with
// the same config.
func GenAdjacency(cfg Config, pageSize int) [][]uint32 {
	rng := sim.NewRNG(cfg.Seed)
	adj := make([][]uint32, cfg.Vertices)
	for v := range adj {
		deg := 1 + rng.Intn(2*cfg.AvgDegree-1)
		maxDeg := pageSize/4 - 1
		if deg > maxDeg {
			deg = maxDeg
		}
		nbs := make([]uint32, deg)
		for i := range nbs {
			nbs[i] = uint32(rng.Intn(cfg.Vertices))
		}
		adj[v] = nbs
	}
	return adj
}

// NewStored wraps a graph whose adjacency pages are ALREADY stored in
// the cluster, one vertex per page, with vertex v's page at addrs[v] —
// the form used when the graph lives in a logical volume (addresses
// from volume.PhysMap) or a cluster file (rfs.File.PhysicalAddrs).
// The addresses are snapshots: the backing store must stay read-only
// for the graph's lifetime, exactly like the ispvol queries' address
// lists. adj is the in-memory oracle matching the stored pages
// (usually GenAdjacency with the same config the pages were encoded
// from).
func NewStored(c *core.Cluster, cfg Config, adj [][]uint32, addrs []core.PageAddr) (*Graph, error) {
	if cfg.Vertices <= 0 || len(adj) != cfg.Vertices || len(addrs) != cfg.Vertices {
		return nil, fmt.Errorf("graph: stored graph shape mismatch: %d vertices, %d lists, %d addrs",
			cfg.Vertices, len(adj), len(addrs))
	}
	return &Graph{cfg: cfg, cluster: c, adj: adj, addrs: addrs}, nil
}

// PageOf returns the flash location of vertex v's adjacency page.
func (g *Graph) PageOf(v int) core.PageAddr {
	if g.addrs != nil {
		return g.addrs[v]
	}
	h := v % len(g.placeOn)
	return core.LinearPage(g.cluster.Params, g.placeOn[h], v/len(g.placeOn))
}

// OwnerOf returns the node holding vertex v's adjacency page — the
// node a migrating walker must run its next lookup on.
func (g *Graph) OwnerOf(v int) int { return g.PageOf(v).Node }

// Vertices returns the vertex count.
func (g *Graph) Vertices() int { return g.cfg.Vertices }
