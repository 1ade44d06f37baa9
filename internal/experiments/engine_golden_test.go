package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/workload"
)

// engineGoldenDigest runs the seeded 4-node full-stack golden scenario
// on p — the engine-bench workload mix (multi-class, cluster-addressed
// reads and writes through scheduler, fabric, host interface and NAND)
// at a fixed size — and returns the event count, final virtual time,
// and a sha256 digest over the JSON-marshalled workload and scheduler
// statistics.
//
// The scenario is fully seeded: every execution, in any process, must
// return identical values. The golden test pins them against captured
// constants; the repeat-run test calls this twice in one process to
// catch nondeterminism that a single run cannot see (map iteration
// order, global state leaking between runs).
func engineGoldenDigest(p core.Params) (fired uint64, now sim.Time, digest string, err error) {
	const nodes = 4
	cfg := defaultEngineBench(false)
	cfg.Requests = 48

	st, err := physicalStack(p, nodes, cfg.Pages, cfg.Seed, cfg.Sched)
	if err != nil {
		return 0, 0, "", err
	}
	c, s := st.C, st.S
	loop, err := workload.RunClosedLoop(s, c, engineSpecs(cfg, nodes), cfg.Pages, cfg.Depth, cfg.Requests)
	if err != nil {
		return 0, 0, "", err
	}

	blob, err := json.Marshal(struct {
		Loop  workload.LoopResult `json:"loop"`
		Sched sched.Snapshot      `json:"sched"`
	}{loop, s.Snapshot()})
	if err != nil {
		return 0, 0, "", err
	}
	sum := sha256.Sum256(blob)
	return c.Eng.Fired(), c.Eng.Now(), hex.EncodeToString(sum[:]), nil
}

// Golden values captured from the pre-refactor engine (global
// min-heap, heap-allocated events). The timer-wheel/pool engine must
// reproduce them exactly: the wheel changes the *data structure*, not
// the (time, insertion-seq) firing order, so every latency sample,
// batch boundary and coalescing decision — and therefore this digest
// — must be byte-identical. If a substrate change moves these values
// it changed simulation semantics, not just speed, and either has a
// bug or needs this golden (and an explanation) updated.
//
// goldenEngineFired was re-pinned once, 65591 → 44741, when hostif
// began to reserve the 16 × 512 B DMA bursts of a page on the PCIe pipe
// as one burst train with one landing event instead of 16: the 1390
// pages this scenario DMAs to hosts shed 15 events each (20850). The
// events removed only incremented a byte counter; goldenEngineNow and
// goldenEngineDigest did not move, which is the proof that every
// delivery time and every latency sample stayed where it was.
//
// It was re-pinned a second time, 44741 → 28273, when the fabric
// stopped firing events for a segment that only returns a credit: the
// 8344 non-last segments this scenario delivers shed two events each
// (arrive and deliver on their final hop, 16688), and the 220 times a
// blocked link direction had to be woken for a lazily returned credit
// cost one event each. goldenEngineNow and goldenEngineDigest did not
// move.
//
// goldenEngineDigest was re-pinned once, 3163921a… → 892c9b1e…, when
// sim.Hist went from keeping every sample to log-linear buckets: each
// p50/p99 became its bucket's low edge (realtime 342.633/738.742 →
// 342.528/738.304 µs, interactive 411.073/783.054 → 410.624/782.336,
// batch 563.3/1881.847 → 563.2/1880.064). No count, mean or maximum
// moved, and neither did goldenEngineFired or goldenEngineNow.
//
// All three were re-pinned together (28273 → 28261 events, 50188497 →
// 50113825 ns, 892c9b1e… → f3d48b71…) when host reads got their own
// in-order flash interface per card, apart from host programs: a read
// no longer waits for the delivery of a program issued before it on
// another chip. The mix's means fell (realtime 367.687 → 362.191 µs,
// interactive 429.995 → 424.427, batch 686.875 → 683.787), doorbells
// went 132 → 131 and coalesced reads 23 → 24; the same 1 536 requests
// completed without error.
const (
	goldenEngineFired  = 28261
	goldenEngineNow    = sim.Time(50113825)
	goldenEngineDigest = "f3d48b71c0040b5a6466a0c574a91008e4c1b6e0b2d79c99debfc06438eb561e"
)

// TestEngineGoldenDeterminism pins the substrate's exact event
// ordering across refactors.
func TestEngineGoldenDeterminism(t *testing.T) {
	fired, now, digest, err := engineGoldenDigest(record(t, "engine").Params)
	if err != nil {
		t.Fatal(err)
	}
	if fired != goldenEngineFired {
		t.Errorf("events fired = %d, want %d (event population changed)", fired, goldenEngineFired)
	}
	if now != goldenEngineNow {
		t.Errorf("final virtual time = %d, want %d (timing changed)", int64(now), int64(goldenEngineNow))
	}
	if digest != goldenEngineDigest {
		t.Errorf("stats digest = %s, want %s (latency/throughput stats drifted)", digest, goldenEngineDigest)
	}
}

// TestEngineGoldenRepeatRun runs the golden scenario twice in one
// process and requires byte-identical digests. A single run compared
// against a captured constant cannot distinguish "deterministic" from
// "accidentally matched once"; two runs in the same process will
// diverge under exactly the failure modes simlint's maprange check
// exists to prevent (map iteration order is re-randomized per map, so
// an order-dependent loop gives different interleavings run to run)
// and under any global mutable state leaking between simulations.
func TestEngineGoldenRepeatRun(t *testing.T) {
	p := record(t, "engine").Params
	fired1, now1, digest1, err := engineGoldenDigest(p)
	if err != nil {
		t.Fatal(err)
	}
	fired2, now2, digest2, err := engineGoldenDigest(p)
	if err != nil {
		t.Fatal(err)
	}
	if fired1 != fired2 || now1 != now2 || digest1 != digest2 {
		t.Errorf("repeat run diverged:\n run1: fired=%d now=%d digest=%s\n run2: fired=%d now=%d digest=%s",
			fired1, int64(now1), digest1, fired2, int64(now2), digest2)
	}
}
