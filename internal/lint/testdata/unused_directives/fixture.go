// Fixture for the audit of unused suppressions (asserted
// programmatically — a want comment cannot share a line with a
// directive): an allow with no reason and an allow that covers nothing
// are findings of the "simlint" pseudo-check.
package fixture

//simlint:allow unused
func NoReason() {}

//simlint:allow unused (but Referenced is referenced)
func Referenced() {}

var _ = Referenced
