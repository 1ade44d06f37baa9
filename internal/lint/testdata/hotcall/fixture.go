// Fixture for hotpath's walk over the call graph: allocations one or
// two helpers below a //simlint:hotpath root are findings carrying the
// full call chain; interface dispatch fans out to every in-module
// implementation; an audited //simlint:allow hotpath prunes a cold
// edge, and the same directive on an allocation line inside a reached
// function audits that single site.
package fixture

type sink struct {
	buf  []byte
	tmp  []int
	devs []device
}

// --- transitive propagation -------------------------------------------

//simlint:hotpath
func hotRoot(s *sink) {
	helper(s)
}

func helper(s *sink) {
	deeper(s)
	s.buf = make([]byte, 8) // want `hotpath: hot call chain fixture.hotRoot → fixture.helper: make allocates in hot path`
}

func deeper(s *sink) {
	s.tmp = []int{1} // want `hotpath: hot call chain fixture.hotRoot → fixture.helper → fixture.deeper: slice literal allocates in hot path`
}

// --- interface fan-out ------------------------------------------------

type device interface {
	put(n int)
}

type devA struct{ log []int }

func (d *devA) put(n int) {
	d.log = make([]int, n) // want `hotpath: hot call chain fixture.dispatch → fixture.devA.put: make allocates in hot path`
}

type devB struct{ sum *int }

func (d *devB) put(n int) {
	d.sum = new(int) // want `hotpath: hot call chain fixture.dispatch → fixture.devB.put: new allocates in hot path`
}

//simlint:hotpath
func dispatch(d device, n int) {
	d.put(n)
}

// --- audited cold edge ------------------------------------------------

//simlint:hotpath
func hotWithColdEdge(s *sink) {
	//simlint:allow hotpath (fixture: setup-only slow path, never on the per-op path)
	coldSetup(s)
}

// coldSetup allocates freely: its only hot caller audited the edge
// away, so nothing below it is checked.
func coldSetup(s *sink) {
	s.devs = make([]device, 0, 16)
	s.buf = make([]byte, 4096)
}

// --- audited allocation inside a reached function ---------------------

//simlint:hotpath
func hotGrowth(s *sink) {
	grow(s)
}

func grow(s *sink) {
	//simlint:allow hotpath (fixture: amortized doubling, demonstrates a single-site audit in a reached function)
	s.tmp = make([]int, len(s.tmp)*2)
}

// neverCalled is unreachable from any hot root: allocations are free.
func neverCalled() []byte {
	return make([]byte, 1<<20)
}

// --- escapecheck cross-check anchors ----------------------------------
// The sites below produce no AST findings; the escapes test feeds
// synthetic compiler decisions at their lines to pin the cross-check's
// hot/cold, panic-path and suppression behavior.

func keep(s *sink) {}

//simlint:hotpath
func hotPanics(s *sink, n int) {
	if n < 0 {
		panic("bad fixture input") // escapes:panic
	}
	keep(s)
}

//simlint:hotpath
func hotAudited(s *sink) {
	//simlint:allow escapecheck (fixture: demonstrates auditing a compiler-only escape the AST cannot see)
	keep(s) // escapes:audited
}

//simlint:hotpath
func hotUnseen(s *sink) {
	keep(s) // escapes:unseen
}
