// The obligation check over an annotated pool type: objects it hands
// out must be released or handed off on every path. Its siblings hold
// the module's own sim.Pool (simpool) and completion callbacks marked
// //simlint:once (once).
//
// Pinned here: the early-return leak, the double put, reacquisition
// while held, the handoff exemptions (argument, field store, closure
// capture, method-value), an audited suppression, and the double put
// of an object that arrives as a parameter, which is not seen.
package fixture

import "errors"

var errBusy = errors.New("busy")

// ctx is the pooled per-op context.
//
//simlint:pool get=getCtx put=putCtx
type ctx struct {
	n    int
	done func()
}

type owner struct {
	free []*ctx
	held *ctx
}

func (o *owner) getCtx() *ctx {
	if n := len(o.free); n > 0 {
		c := o.free[n-1]
		o.free = o.free[:n-1]
		return c
	}
	return &ctx{}
}

func (o *owner) putCtx(c *ctx) {
	c.n = 0
	o.free = append(o.free, c)
}

// leakOnError forgets the context on the error path: the classic bug.
func (o *owner) leakOnError(busy bool) error {
	c := o.getCtx() // want `obligation: pooled c acquired here may leak: some path reaches return without put or handoff`
	if busy {
		return errBusy
	}
	o.putCtx(c)
	return nil
}

// doublePut releases twice on the busy path.
func (o *owner) doublePut(busy bool) {
	c := o.getCtx()
	if busy {
		o.putCtx(c)
	}
	o.putCtx(c) // want `obligation: pooled c may be released twice on one path`
}

// reacquire overwrites a held context with a fresh one.
func (o *owner) reacquire() {
	c := o.getCtx()
	c = o.getCtx() // want `obligation: pooled c reacquired while a previous acquisition may still be held`
	o.putCtx(c)
}

// balanced releases on every path: no finding.
func (o *owner) balanced(busy bool) error {
	c := o.getCtx()
	if busy {
		o.putCtx(c)
		return errBusy
	}
	c.n++
	o.putCtx(c)
	return nil
}

func consume(c *ctx) {}

// handoffArg passes the context on: the callee owns it now.
func (o *owner) handoffArg() {
	c := o.getCtx()
	consume(c)
}

// handoffField parks the context in a reachable place.
func (o *owner) handoffField() {
	c := o.getCtx()
	o.held = c
}

// handoffCapture hands the obligation to a closure.
func (o *owner) handoffCapture() func() {
	c := o.getCtx()
	return func() { o.putCtx(c) }
}

// handoffBoundCallback uses a func-typed field of the context as data:
// whoever runs it holds a live reference, so ownership moved.
func run(f func()) {}

func (o *owner) handoffBoundCallback() {
	c := o.getCtx()
	run(c.done)
}

// neutralUses reads fields, indexes and compares without moving
// ownership, then leaks: still a finding.
func (o *owner) neutralUses(xs []int) int {
	c := o.getCtx() // want `obligation: pooled c acquired here may leak: some path reaches return without put or handoff`
	if c == o.held {
		o.putCtx(c)
		return 0
	}
	return xs[c.n] + c.n
}

// panicPath dies instead of returning: exempt.
func (o *owner) panicPath(bad bool) {
	c := o.getCtx()
	if bad {
		panic("corrupt state")
	}
	o.putCtx(c)
}

// suppressed keeps one audited intentional leak.
func (o *owner) suppressed() {
	//simlint:allow obligation (fixture: demonstrates an audited intentional-drop suppression)
	c := o.getCtx()
	c.n++
}

// releaseTwice puts an object it did not get, twice: a caller's
// pooled object arrives as a parameter and holds no obligation here,
// so the second put is not seen (the completion that puts a request
// twice, planted as P5 in the package doc's ledger, goes the same way).
func (o *owner) releaseTwice(c *ctx) {
	o.putCtx(c)
	o.putCtx(c)
}
