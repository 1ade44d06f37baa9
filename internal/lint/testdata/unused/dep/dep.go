// Package dep is the second fixture package: a reference from another
// package counts.
package dep

// Helper is referenced by the fixture package.
func Helper() int { return 1 }

func Orphan() {} // want `unused: func Orphan has no reference outside test files`
