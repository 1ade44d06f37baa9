package flashserver

// Stack and Pattern are the package tests' card stack and page
// contents, for the tests outside the package (alloc_test.go).
var (
	Stack   = stack
	Pattern = pattern
)
