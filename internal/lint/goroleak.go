package lint

import (
	"go/types"
)

// goroLeak enforces goroutine lifecycle discipline in non-test
// internal/ packages: every `go` statement must be joined — the
// spawned body calls Done() on a sync.WaitGroup that some loaded
// function Wait()s on (the WAL group committer and the MultiStore replica
// fan-out pattern) — or carry an audited suppression explaining why it
// may outlive its spawner. An unjoined goroutine survives shutdown,
// races teardown, and leaks under load.
type goroLeak struct{}

func (goroLeak) ID() string { return "goroleak" }
func (goroLeak) Doc() string {
	return "every go statement in internal/ must be joined via a WaitGroup that is Wait()ed on, or carry an audited suppression"
}
func (goroLeak) Check(p *Package) []Finding { return nil }

func (goroLeak) CheckModule(m *Module) []Finding {
	waited := make(map[types.Object]bool)
	for _, n := range m.order {
		for _, obj := range n.sum.waitsOn {
			waited[obj] = true
		}
	}
	var out []Finding
	for _, n := range m.order {
		if !n.Pkg.Internal() {
			continue
		}
		for _, sp := range n.sum.spawns {
			if sp.doneOn != nil && waited[sp.doneOn] {
				continue
			}
			what := "goroutine"
			if sp.target != nil && sp.target.Decl != nil {
				what = "goroutine running " + string(sp.target.Key)
			}
			switch {
			case sp.doneOn == nil:
				out = append(out, findingAt(n.Pkg, sp.pos, "goroleak",
					"%s is never joined: have the body Done() a sync.WaitGroup that shutdown Wait()s on, or suppress with a reason", what))
			default:
				out = append(out, findingAt(n.Pkg, sp.pos, "goroleak",
					"%s calls Done() on a WaitGroup nothing Wait()s on; add the Wait to the shutdown path", what))
			}
		}
	}
	return out
}
