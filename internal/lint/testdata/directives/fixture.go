// Fixture for the suppression-directive audit: malformed directives,
// unknown checks, unknown markers, missing reasons and unused
// suppressions are all findings of the "simlint" pseudo-check (asserted
// programmatically — a want comment cannot share a line with a
// directive). The names of the checks folded into forbidden are
// unknown, and so are those of the deleted checks — the allocation
// checks hotpath and escapecheck, obligation and the two it had folded
// in, poolleak and oncedone — and the deleted checks' markers.
package fixture

//simlint:allow
var a = 1

//simlint:allow maprange
var b = 2

//simlint:allow nosuchcheck (reason given)
var c = 3

//simlint:allow maprange (nothing on the next line ranges a map)
var d = 4

//simlint:allow poolleak (folded into obligation, since deleted)
var e = 5

//simlint:allow oncedone (folded into obligation, since deleted)
var f = 6

//simlint:allow walltime (folded into forbidden)
var g = 7

//simlint:allow noconcurrency (folded into forbidden)
var h = 8

//simlint:allow hotpath (deleted: the allocation pins hold hot paths)
var i = 9

//simlint:allow escapecheck (deleted with hotpath)
var j = 10

// k carries the deleted check's marker, which nothing reads any more.
//
//simlint:hotpath
func k() {}

//simlint:nosuchmarker
var l = 11

//simlint:allow obligation (deleted: the pools' drain checks and the tests hold it)
var m = 12

// n carries obligation's pooled-type marker.
//
//simlint:pool get=Get put=Put
type n struct{}

// o carries obligation's callback marker.
//
//simlint:once done
func o(done func()) { done() }
