// The obligation check over completion callbacks: functions whose
// callback is marked //simlint:once must invoke it exactly once on
// every path. Pinned here: the silent-hang path (a return the
// callback never saw), the double completion, the handoff exemptions
// (argument, struct store, closure capture), marker hygiene, and an
// audited suppression.

package fixture

import "errors"

var errBad = errors.New("bad request")

// hangs forgets the callback on the early return: the caller waits
// forever.
//
//simlint:once done
func hangs(n int, done func(error)) { // want `obligation: callback done is not invoked on some path to return: the caller waits forever`
	if n < 0 {
		return
	}
	done(nil)
}

// doubleFire completes twice when both conditions hold.
//
//simlint:once done
func doubleFire(fail bool, done func(error)) {
	if fail {
		done(errBad)
	}
	done(nil) // want `obligation: callback done may be invoked a second time here`
}

// exact completes exactly once on every branch: no finding.
//
//simlint:once done
func exact(n int, done func(error)) {
	if n < 0 {
		done(errBad)
		return
	}
	done(nil)
}

func enqueue(fn func(error)) {}

// handoffArg forwards the obligation to enqueue.
//
//simlint:once done
func handoffArg(done func(error)) {
	enqueue(done)
}

type waiter struct{ cb func(error) }

// handoffStore parks the callback for a later completion.
//
//simlint:once done
func handoffStore(w *waiter, done func(error)) {
	w.cb = done
}

// handoffCapture lets a closure own the completion.
//
//simlint:once done
func handoffCapture(done func(error)) func() {
	return func() { done(nil) }
}

// panicPath dies instead of returning: exempt.
//
//simlint:once done
func panicPath(bad bool, done func(error)) {
	if bad {
		panic("corrupt state")
	}
	done(nil)
}

// bareMarker resolves the sole func-typed parameter without naming it.
//
//simlint:once
func bareMarker(n int, done func(error)) { // want `obligation: callback done is not invoked on some path to return: the caller waits forever`
	if n > 0 {
		done(nil)
	}
}

// ambiguous has two func-typed parameters: the bare form is a finding.
//
//simlint:once
func ambiguous(a func(), b func()) { // want `obligation: bare //simlint:once needs exactly one func-typed parameter on ambiguous \(found 2\); name one`
	a()
	b()
}

// wrongType names a non-func parameter.
//
//simlint:once n
func wrongType(n int, done func(error)) { // want `obligation: once parameter n of wrongType is not func-typed`
	done(nil)
}

// suppressed keeps one audited fire-and-forget path.
//
//simlint:once done
//simlint:allow obligation (fixture: demonstrates an audited intentional no-completion suppression)
func suppressed(drop bool, done func()) {
	if !drop {
		done()
	}
}
