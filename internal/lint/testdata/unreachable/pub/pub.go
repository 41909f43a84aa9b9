// Package pub is the fixture module's public API: its exported
// functions are roots, and so are the exported methods of every type it
// re-exports by alias.
package pub

import "unreach/internal/core"

// Model re-exports core.Model; Model.Size becomes API through it.
type Model = core.Model

// Build is exported API.
func Build() *Model { return core.NewModel() }

func helper() {} // want unreachable
