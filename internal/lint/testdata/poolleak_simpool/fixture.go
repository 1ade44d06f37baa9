// Fixture for poolleak over the module's one pool type: records of a
// sim.Pool, taken and returned through its generic Get and Put from a
// package other than the one that carries the //simlint:pool marker.
// Pinned here: the record dropped on an early return, the record put
// twice, that filling a callback field of the record in is not a
// hand-off, and that a balanced or handed-off record is no finding.
package fixture

import (
	"errors"

	"repro/internal/sim"
)

var errBusy = errors.New("busy")

// op is the pooled per-request record.
type op struct {
	n    int
	done func()
}

type owner struct {
	ops sim.Pool[op]
}

// leakOnError forgets the record on the error path. Storing the
// caller's callback into it does not move it anywhere.
func (o *owner) leakOnError(busy bool, done func()) error {
	r := o.ops.Get() // want `poolleak: pooled r acquired here may leak: some path reaches return without put or handoff`
	r.done = done
	if busy {
		return errBusy
	}
	o.ops.Put(r)
	return nil
}

// doublePut returns the record twice on the busy path.
func (o *owner) doublePut(busy bool) {
	r := o.ops.Get()
	if busy {
		o.ops.Put(r)
	}
	o.ops.Put(r) // want `poolleak: pooled r may be released twice on one path`
}

// balanced returns the record on every path: no finding.
func (o *owner) balanced(busy bool) error {
	r := o.ops.Get()
	r.n++
	if busy {
		o.ops.Put(r)
		return errBusy
	}
	o.ops.Put(r)
	return nil
}

func start(f func()) {}

// handoff passes the record's bound continuation on: whoever runs it
// holds the record.
func (o *owner) handoff() {
	r := o.ops.Get()
	start(r.done)
}
