// Package core holds the fixture module's reachable and dead code.
package core

import "fmt"

// Shape is a module interface: every method matching Area is a root.
type Shape interface{ Area() float64 }

// Model is re-exported by pub.
type Model struct{ n int }

// NewModel is called from pub.Build.
func NewModel() *Model { return &Model{} }

// Size is reached only through pub's alias.
func (m *Model) Size() int { return m.n }

// String satisfies fmt.Stringer; only fmt calls it.
func (m *Model) String() string { return fmt.Sprint(m.n) }

// reset is unexported, so the alias does not make it API.
func (m *Model) reset() { m.n = 0 } // want unreachable

type square struct{ side float64 }

// Area matches Shape.Area, so dispatch may reach it.
func (s square) Area() float64 { return s.side * s.side }

// Render is called from main.
func Render(m *Model) string { return fmt.Sprint(m) }

// Each hands every element to fn.
func Each(xs []int, fn func(int)) {
	for _, x := range xs {
		fn(x)
	}
}

// table is a package-level declaration, so the functions it names are
// roots.
var table = map[string]func() int{"one": one}

func one() int { return 1 }

// Dead has no caller.
func Dead() { onlyFromDead() } // want unreachable

func onlyFromDead() {} // want unreachable

// Fixture is a helper the tests of several packages share.
//
//etlint:ignore unreachable shared by the tests of core and pub
func Fixture() *Model { return &Model{n: 3} }
