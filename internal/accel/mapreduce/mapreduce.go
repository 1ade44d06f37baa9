// Package mapreduce implements the "BlueDBM-Optimized MapReduce" the
// paper plans in §8: the map phase runs in-store on every node,
// scanning that node's flash shard at device bandwidth, and the
// shuffle rides the integrated storage network directly from storage
// device to storage device — host software only sees the final
// reduced results. The demonstration job is word count over text
// shards. A node's map phase is one sim.Lanes over its shard (engines x
// window lanes), and its join is the shuffle: the partials leave at the
// instant the shard's last page is mapped.
package mapreduce

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/sim"
)

// MapReduce errors.
var (
	ErrNoInput = errors.New("mapreduce: no input pages")
)

// Config describes a word-count job.
type Config struct {
	// PagesPerNode is each node's input shard size.
	PagesPerNode int
	// Reducers is the number of reduce partitions; partition p lives on
	// node p % cluster size.
	Reducers int
	// Gen produces the input pages (same generator on every node, with
	// the node id mixed into the page index so shards differ).
	Gen func(node, idx int, page []byte)
}

// Result is the completed job.
type Result struct {
	Counts        map[string]int64
	Elapsed       sim.Time
	BytesShuffled int64
	PagesMapped   int64
	WordsPerSec   float64
}

// tokenize splits a page into words (runs of non-space bytes,
// truncated at page boundaries; the oracle tokenizes identically).
func tokenize(page []byte, emit func(word string)) {
	start := -1
	for i, c := range page {
		if c == ' ' || c == 0 {
			if start >= 0 {
				emit(string(page[start:i]))
				start = -1
			}
			continue
		}
		if start < 0 {
			start = i
		}
	}
	if start >= 0 {
		emit(string(page[start:]))
	}
}

// hashWord assigns a word to a reduce partition.
func hashWord(w string, parts int) int {
	var h uint32 = 2166136261
	for i := 0; i < len(w); i++ {
		h ^= uint32(w[i])
		h *= 16777619
	}
	return int(h % uint32(parts))
}

// partial is one mapper's contribution to one partition.
type partial struct {
	part   int
	counts map[string]int64
}

func (p *partial) wireSize() int {
	n := 8
	for w := range p.counts {
		n += len(w) + 8
	}
	return n
}

// endpoint index for the shuffle traffic.
const shuffleEP = core.EPUser

// WordCount runs the job across the whole cluster.
func WordCount(c *core.Cluster, cfg Config) (*Result, error) {
	if cfg.PagesPerNode <= 0 {
		return nil, ErrNoInput
	}
	if cfg.Reducers <= 0 {
		cfg.Reducers = c.Nodes()
	}
	nodes := c.Nodes()

	// Seed every node's shard.
	for n := 0; n < nodes; n++ {
		n := n
		if err := c.SeedLinear(n, cfg.PagesPerNode, func(idx int, page []byte) {
			if cfg.Gen != nil {
				cfg.Gen(n, idx, page)
			}
		}); err != nil {
			return nil, fmt.Errorf("mapreduce: seeding node %d: %w", n, err)
		}
	}

	res := &Result{Counts: make(map[string]int64)}
	start := c.Eng.Now()

	// Reducers: bind the shuffle endpoint on every node and merge
	// partials as they arrive. Each node expects one partial per
	// (mapper, partition-it-hosts) pair.
	expect := make([]int, nodes)
	for p := 0; p < cfg.Reducers; p++ {
		expect[p%nodes] += nodes
	}
	received := make([]int, nodes)
	eps := make([]*fabric.Endpoint, nodes)
	for n := 0; n < nodes; n++ {
		n := n
		ep, err := c.Node(n).NetNode().BindEndpoint(shuffleEP)
		if err != nil {
			return nil, err
		}
		ep.OnReceive = func(_ fabric.NodeID, size int, payload any) {
			pt := payload.(*partial)
			for w, cnt := range pt.counts {
				res.Counts[w] += cnt
			}
			res.BytesShuffled += int64(size)
			received[n]++
		}
		eps[n] = ep
	}

	// Mappers: every node scans its own shard in-store and ships
	// partition partials to the reducers over the integrated network.
	const engines = 8
	const window = 4
	for n := 0; n < nodes; n++ {
		n := n
		node := c.Node(n)
		partials := make([]*partial, cfg.Reducers)
		for p := range partials {
			partials[p] = &partial{part: p, counts: make(map[string]int64)}
		}
		sim.Lanes(cfg.PagesPerNode, engines*window, func(_, i int, next func()) {
			a := core.LinearPage(c.Params, n, i)
			node.ReadLocal(a.Card, a.Addr, func(data []byte, err error) {
				if err == nil {
					// The map engine tokenizes at stream rate.
					tokenize(data, func(w string) {
						partials[hashWord(w, cfg.Reducers)].counts[w]++
					})
					res.PagesMapped++
				}
				next()
			})
		}, func() {
			// The shard is mapped: shuffle its partials.
			for _, pt := range partials {
				dst := fabric.NodeID(pt.part % nodes)
				if err := eps[n].Send(dst, pt.wireSize(), pt, nil); err != nil {
					panic(fmt.Sprintf("mapreduce: shuffle send: %v", err))
				}
			}
		})
	}
	c.Run()

	for n := 0; n < nodes; n++ {
		if received[n] != expect[n] {
			return nil, fmt.Errorf("mapreduce: reducer node %d got %d of %d partials",
				n, received[n], expect[n])
		}
	}
	res.Elapsed = c.Eng.Now() - start
	if res.Elapsed > 0 {
		var words int64
		for _, v := range res.Counts {
			words += v
		}
		res.WordsPerSec = float64(words) / res.Elapsed.Seconds()
	}
	return res, nil
}

// ReferenceCounts computes the job's expected output in memory.
func ReferenceCounts(nodes, pagesPerNode, pageSize int, gen func(node, idx int, page []byte)) map[string]int64 {
	out := make(map[string]int64)
	page := make([]byte, pageSize)
	for n := 0; n < nodes; n++ {
		for i := 0; i < pagesPerNode; i++ {
			for j := range page {
				page[j] = 0
			}
			if gen != nil {
				gen(n, i, page)
			}
			tokenize(page, func(w string) { out[w]++ })
		}
	}
	return out
}

// TopWords returns the k most frequent words, ties broken
// alphabetically — a stable summary for display.
func TopWords(counts map[string]int64, k int) []string {
	type wc struct {
		w string
		c int64
	}
	all := make([]wc, 0, len(counts))
	for w, c := range counts {
		all = append(all, wc{w, c})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].c != all[j].c {
			return all[i].c > all[j].c
		}
		return all[i].w < all[j].w
	})
	if k > len(all) {
		k = len(all)
	}
	out := make([]string, k)
	for i := 0; i < k; i++ {
		out[i] = all[i].w
	}
	return out
}
