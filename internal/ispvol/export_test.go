package ispvol

import (
	"errors"
	"fmt"

	"repro/internal/sim"
)

// Units exposes a node's acceleration-unit pool.
func (sys *System) Units(node int) *sim.TokenPool { return sys.nodes[node].units }

// Sync starts one asynchronous query (a closure over Search,
// TableScan, NearestNeighbor or WalkMigrate), drains the engine and
// returns the query's result, for a test that has nothing else in
// flight. A query whose done does not fire exactly once, or that
// leaves the cluster failing its drain check, fails.
func Sync[R any](sys *System, start func(done func(R, error))) (R, error) {
	var res R
	var rerr error
	fired := 0
	start(func(r R, e error) { res, rerr, fired = r, e, fired+1 })
	sys.c.Run()
	if fired != 1 {
		return res, fmt.Errorf("ispvol: query completed %d times", fired)
	}
	if err := sys.c.Check(); err != nil {
		return res, errors.Join(rerr, err)
	}
	return res, rerr
}
