package flashserver

// Stack and Pattern are the package tests' card stack and page
// contents, for the tests outside the package (alloc_test.go).
var (
	Stack   = stack
	Pattern = pattern
)

// Pages returns the number of mapped pages for a handle (0 if absent).
func (a *ATU) Pages(h FileHandle) int {
	return len(a.maps[h])
}
