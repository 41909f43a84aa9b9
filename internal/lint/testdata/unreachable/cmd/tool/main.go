// Command tool is the fixture module's entry point: main and init are
// roots, and a method value handed to a callback is reached.
package main

import (
	"fmt"

	"unreach/internal/core"
	"unreach/pub"
)

func init() { setup() }

func setup() {}

func main() {
	fmt.Println(core.Render(pub.Build()))
	core.Each([]int{1, 2}, printer{}.print)
}

type printer struct{}

func (printer) print(i int) { fmt.Println(i) }
