package fabric

import (
	"encoding/json"
	"fmt"

	"repro/internal/sim"
)

// Topology is the serializable wiring plan of a cluster: the network
// configuration file the paper relies on instead of a discovery
// protocol (§3.2.3).
type Topology struct {
	Name  string   `json:"name"`
	Nodes int      `json:"nodes"`
	Edges [][2]int `json:"edges"` // node pairs; repeats mean parallel lanes
}

// Validate checks node indices and port budgets.
func (t Topology) Validate(portsPerNode int) error {
	if t.Nodes <= 0 {
		return fmt.Errorf("fabric: topology %q has %d nodes", t.Name, t.Nodes)
	}
	used := make([]int, t.Nodes)
	for _, e := range t.Edges {
		a, b := e[0], e[1]
		if a < 0 || a >= t.Nodes || b < 0 || b >= t.Nodes {
			return fmt.Errorf("fabric: edge %v out of range", e)
		}
		if a == b {
			return fmt.Errorf("fabric: self-loop on node %d", a)
		}
		used[a]++
		used[b]++
	}
	for n, u := range used {
		if u > portsPerNode {
			return fmt.Errorf("fabric: node %d needs %d ports, only %d available", n, u, portsPerNode)
		}
	}
	return nil
}

// MarshalJSON-able round trip helpers.

// Encode serializes the topology as JSON.
func (t Topology) Encode() ([]byte, error) { return json.MarshalIndent(t, "", "  ") }

// DecodeTopology parses a topology config file.
func DecodeTopology(b []byte) (Topology, error) {
	var t Topology
	if err := json.Unmarshal(b, &t); err != nil {
		return Topology{}, fmt.Errorf("fabric: bad topology config: %w", err)
	}
	return t, nil
}

// Build instantiates the topology on a fresh network and computes its
// routes, each endpoint 0..maxEndpoint with a table of its own and
// every higher one routing as endpoint 0, and the hop counts
// (Network.Hops).
func (t Topology) Build(eng *sim.Engine, cfg Config, maxEndpoint int) (*Network, error) {
	if err := t.Validate(cfg.PortsPerNode); err != nil {
		return nil, err
	}
	net := New(eng, cfg, t.Nodes)
	for _, e := range t.Edges {
		if err := net.Connect(NodeID(e[0]), NodeID(e[1])); err != nil {
			return nil, err
		}
	}
	if err := net.computeRoutes(maxEndpoint); err != nil {
		return nil, err
	}
	return net, nil
}

// Line wires n nodes in a chain with `lanes` parallel cables per hop.
func Line(n, lanes int) Topology {
	t := Topology{Name: fmt.Sprintf("line-%d", n), Nodes: n}
	for i := 0; i+1 < n; i++ {
		for l := 0; l < lanes; l++ {
			t.Edges = append(t.Edges, [2]int{i, i + 1})
		}
	}
	return t
}

// Ring wires n nodes in a cycle with `lanes` parallel cables per hop —
// the paper's example deployment (4 lanes to each neighbor, §6.3).
func Ring(n, lanes int) Topology {
	t := Topology{Name: fmt.Sprintf("ring-%d", n), Nodes: n}
	for i := 0; i < n; i++ {
		for l := 0; l < lanes; l++ {
			t.Edges = append(t.Edges, [2]int{i, (i + 1) % n})
		}
	}
	return t
}

// Mesh2D wires a w x h grid (paper Figure 5b).
func Mesh2D(w, h int) Topology {
	t := Topology{Name: fmt.Sprintf("mesh-%dx%d", w, h), Nodes: w * h}
	id := func(x, y int) int { return y*w + x }
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if x+1 < w {
				t.Edges = append(t.Edges, [2]int{id(x, y), id(x+1, y)})
			}
			if y+1 < h {
				t.Edges = append(t.Edges, [2]int{id(x, y), id(x, y+1)})
			}
		}
	}
	return t
}

// DistributedStar wires `hubs` fully-meshed hub nodes, each serving an
// equal share of the remaining nodes (paper Figure 5a).
func DistributedStar(n, hubs int) Topology {
	t := Topology{Name: fmt.Sprintf("star-%d-%d", n, hubs), Nodes: n}
	for i := 0; i < hubs; i++ {
		for j := i + 1; j < hubs; j++ {
			t.Edges = append(t.Edges, [2]int{i, j})
		}
	}
	for leaf := hubs; leaf < n; leaf++ {
		t.Edges = append(t.Edges, [2]int{leaf % hubs, leaf})
	}
	return t
}

// FullMesh wires every node pair directly (small clusters only).
func FullMesh(n int) Topology {
	t := Topology{Name: fmt.Sprintf("full-%d", n), Nodes: n}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			t.Edges = append(t.Edges, [2]int{i, j})
		}
	}
	return t
}
