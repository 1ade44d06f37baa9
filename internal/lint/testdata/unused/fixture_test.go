package fixture

// The analyzers never see test files: this reference does not keep
// OnlyTested.
var _ = OnlyTested
