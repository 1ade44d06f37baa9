package mapreduce

import (
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/core/coretest"
	"repro/internal/nand"
	"repro/internal/workload"
)

func mrCluster(t *testing.T, nodes int) *core.Cluster {
	t.Helper()
	p := core.DefaultParams(nodes)
	p.Geometry.BlocksPerChip = 8
	p.Geometry.PagesPerBlock = 16
	c := coretest.NewCluster(t, p)
	return c
}

// shardGen mixes the node id into the page stream so shards differ.
func shardGen(seed uint64) func(node, idx int, page []byte) {
	return func(node, idx int, page []byte) {
		workload.TextPages(seed+uint64(node)*1009, "", 0)(idx, page)
	}
}

func TestTokenize(t *testing.T) {
	var got []string
	tokenize([]byte("flash  storage network\x00\x00dram"), func(w string) { got = append(got, w) })
	want := []string{"flash", "storage", "network", "dram"}
	if len(got) != len(want) {
		t.Fatalf("tokens %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("tokens %v, want %v", got, want)
		}
	}
	tokenize(nil, func(string) { t.Fatal("token from empty page") })
}

func TestHashWordStableAndInRange(t *testing.T) {
	for _, w := range []string{"a", "flash", "network", ""} {
		p1, p2 := hashWord(w, 7), hashWord(w, 7)
		if p1 != p2 {
			t.Fatalf("hash unstable for %q", w)
		}
		if p1 < 0 || p1 >= 7 {
			t.Fatalf("partition %d out of range", p1)
		}
	}
}

func TestWordCountMatchesReference(t *testing.T) {
	const nodes = 4
	const pages = 24
	c := mrCluster(t, nodes)
	gen := shardGen(77)
	res, err := WordCount(c, Config{PagesPerNode: pages, Reducers: 8, Gen: gen})
	if err != nil {
		t.Fatal(err)
	}
	want := ReferenceCounts(nodes, pages, c.Params.PageSize(), gen)
	if len(res.Counts) != len(want) {
		t.Fatalf("distinct words %d, want %d", len(res.Counts), len(want))
	}
	for w, cnt := range want {
		if res.Counts[w] != cnt {
			t.Fatalf("count[%q] = %d, want %d", w, res.Counts[w], cnt)
		}
	}
	if res.PagesMapped != nodes*pages {
		t.Fatalf("mapped %d pages, want %d", res.PagesMapped, nodes*pages)
	}
	if res.BytesShuffled == 0 {
		t.Fatal("no shuffle traffic recorded")
	}
	if res.WordsPerSec <= 0 {
		t.Fatal("no throughput recorded")
	}
}

func TestWordCountSingleNode(t *testing.T) {
	c := mrCluster(t, 1)
	gen := shardGen(3)
	res, err := WordCount(c, Config{PagesPerNode: 8, Reducers: 2, Gen: gen})
	if err != nil {
		t.Fatal(err)
	}
	want := ReferenceCounts(1, 8, c.Params.PageSize(), gen)
	for w, cnt := range want {
		if res.Counts[w] != cnt {
			t.Fatalf("count[%q] = %d, want %d", w, res.Counts[w], cnt)
		}
	}
}

func TestTopWords(t *testing.T) {
	counts := map[string]int64{"b": 3, "a": 3, "c": 10, "d": 1}
	top := TopWords(counts, 3)
	if len(top) != 3 || top[0] != "c" || top[1] != "a" || top[2] != "b" {
		t.Fatalf("top = %v", top)
	}
	if got := TopWords(counts, 99); len(got) != 4 {
		t.Fatalf("overlong k: %v", got)
	}
}

func TestWordCountValidation(t *testing.T) {
	c := mrCluster(t, 2)
	if _, err := WordCount(c, Config{}); !errors.Is(err, ErrNoInput) {
		t.Fatalf("empty config: %v", err)
	}
}

func TestMapScalesWithNodes(t *testing.T) {
	// Twice the nodes map twice the data in roughly the same time: the
	// whole point of running map in-store on every shard.
	rate := func(nodes int) float64 {
		c := mrCluster(t, nodes)
		res, err := WordCount(c, Config{PagesPerNode: 24, Reducers: nodes, Gen: shardGen(9)})
		if err != nil {
			t.Fatal(err)
		}
		return res.WordsPerSec
	}
	r2, r4 := rate(2), rate(4)
	if r4 < 1.6*r2 {
		t.Fatalf("4 nodes (%.0f words/s) should roughly double 2 nodes (%.0f)", r4, r2)
	}
}

// The job's schedule, pinned: no figure or artifact runs WordCount.
// Each shard has more pages than engines x window (32), so every node's
// map phase refills its lanes, and the shuffle starts at the instant
// the last page of a shard is mapped. The values were recorded before
// the runner moved onto sim.Lanes.
func TestWordCountTimingPinned(t *testing.T) {
	c := mrCluster(t, 4)
	res, err := WordCount(c, Config{PagesPerNode: 48, Reducers: 6, Gen: shardGen(41)})
	if err != nil {
		t.Fatal(err)
	}
	var words int64
	for _, v := range res.Counts {
		words += v
	}
	if res.Elapsed != 229832 || res.BytesShuffled != 3176 || res.PagesMapped != 192 || words != 202163 {
		t.Errorf("WordCount: elapsed %d ns, %d B shuffled, %d pages, %d words",
			int64(res.Elapsed), res.BytesShuffled, res.PagesMapped, words)
	}
}

// TestWordCountFailingReadFailsTheRun: a shard page that cannot be
// read fails the job with the read's own error instead of returning
// the counts of the pages that could. The job seeds its own input, so
// the failure is planted by its page generator: starting node 1's
// shard, it blanks node 0's first card, which node 0 has finished
// writing.
func TestWordCountFailingReadFailsTheRun(t *testing.T) {
	c := mrCluster(t, 2)
	gen := shardGen(77)
	res, err := WordCount(c, Config{PagesPerNode: 24, Gen: func(node, idx int, page []byte) {
		if node == 1 && idx == 0 {
			c.Node(0).Card(0).Replace()
		}
		gen(node, idx, page)
	}})
	if !errors.Is(err, nand.ErrReadFree) || res != nil {
		t.Fatalf("result %t, error %v; want no result and an error wrapping nand.ErrReadFree", res != nil, err)
	}
}
