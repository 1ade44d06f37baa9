// Fixture for the unused analyzer: an exported name is a finding
// unless non-test code references it. The package's other references
// live in use, at the bottom; fixture_test.go is never loaded.
package fixture

import (
	"fmt"

	"repro/internal/fixture/dep"
)

func UnusedFunc() {} // want `unused: func UnusedFunc has no reference outside test files`

type UnusedType struct{} // want `unused: type UnusedType has no reference outside test files`

const UnusedConst = 1 // want `unused: const UnusedConst has no reference outside test files`

var UnusedVar = 2 // want `unused: var UnusedVar has no reference outside test files`

// Used is referenced, and so are Called and the methods its interfaces
// and fmt reach.
type Used struct{}

func (Used) Called() {}

func (Used) UnusedMethod() {} // want `unused: method Used.UnusedMethod has no reference outside test files`

func (Used) String() string { return "used" }

// OnlyTested is referenced by fixture_test.go alone.
func OnlyTested() {} // want `unused: func OnlyTested has no reference outside test files`

// Shape is an interface the package uses: Square's Area satisfies it
// and is reached through it, never named.
type Shape interface{ Area() int }

type Square struct{}

func (Square) Area() int { return 1 }

func total(s Shape) int { return s.Area() }

// Recurse only calls itself, and Node only names itself: neither
// counts.
func Recurse(n int) int { // want `unused: func Recurse has no reference outside test files`
	if n == 0 {
		return 0
	}
	return Recurse(n - 1)
}

type Node struct { // want `unused: type Node has no reference outside test files`
	Next *Node
}

// Receiver is named only as a receiver, which is not a use.
type Receiver struct{} // want `unused: type Receiver has no reference outside test files`

func (Receiver) helper() {}

// Box's methods are reached through an instantiation.
type Box[T any] struct{ v T }

func (b *Box[T]) Put(v T) { b.v = v }

func (b *Box[T]) Get() T { return b.v } // want `unused: method Box.Get has no reference outside test files`

// Allowed has no reference, and an audited directive keeps it.
//
//simlint:allow unused (kept for the fixture: an audited allow is accepted)
func Allowed() {}

func use() {
	Used{}.Called()
	fmt.Println(Used{}, total(Square{}), dep.Helper())
	new(Box[int]).Put(1)
}

var _ = use
