package ispvol

import (
	"errors"

	"repro/internal/isp"
)

// Units exposes a node's acceleration-unit scheduler.
func (sys *System) Units(node int) *isp.Scheduler { return sys.nodes[node].units }

// Sync starts one asynchronous query (a closure over Search,
// TableScan, NearestNeighbor or WalkMigrate), drains the engine and
// returns the query's result, for a test that has nothing else in
// flight.
func Sync[R any](sys *System, start func(done func(R, error))) (R, error) {
	var res R
	var rerr error
	fired := false
	start(func(r R, e error) { res, rerr, fired = r, e, true })
	sys.c.Run()
	if !fired {
		return res, errors.New("ispvol: query never completed")
	}
	return res, rerr
}
