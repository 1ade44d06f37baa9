package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"

	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/workload"
)

// EngineGoldenDigest runs the seeded 4-node full-stack golden
// scenario — the engine-bench workload mix (multi-class,
// cluster-addressed reads and writes through scheduler, fabric, host
// interface and NAND) at a fixed size — and returns the event count,
// final virtual time, and a sha256 digest over the JSON-marshalled
// workload and scheduler statistics.
//
// The scenario is fully seeded: every execution, in any process, must
// return identical values. The golden test pins them against captured
// constants; the repeat-run test calls this twice in one process to
// catch nondeterminism that a single run cannot see (map iteration
// order, global state leaking between runs).
//
//simlint:allow unused (checker: the engine golden digest that TestEngineGoldenDigest pins)
func EngineGoldenDigest() (fired uint64, now sim.Time, digest string, err error) {
	const nodes = 4
	cfg := DefaultEngineBench(false)
	cfg.Requests = 48

	st, err := physicalStack(nodes, cfg.Pages, cfg.Seed, cfg.Sched)
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
