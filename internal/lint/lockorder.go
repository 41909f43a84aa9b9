package lint

import (
	"go/token"
	"sort"
)

// lockOrder flags lock acquisitions that invert the declared partial
// order of the serving core (DESIGN §6) and cycles among undeclared
// lock classes. The order is inferred from actual call paths: a direct
// nested Lock is a pair, and a call made while holding a lock pairs
// the held class with everything the callee may transitively acquire
// (go statements excluded — a spawned goroutine locks on its own
// stack).
type lockOrder struct{}

func (lockOrder) ID() string { return "lockorder" }
func (lockOrder) Doc() string {
	return "lock acquisition must follow the declared entry→pool→manager partial order; cycles and inversions are flagged"
}
func (lockOrder) Check(p *Package) []Finding { return nil }

// lockLevels encodes the serving core's lock order (DESIGN §6) as the
// expected partial order: a lock may only be acquired while holding
// locks of strictly lower level. entry locks are coarse session locks
// and come first; the labelpool lock sits above them; the manager's
// map lock above that; the leaf metadata locks (pool registry, stream
// registry) are taken last and never held across other acquisitions.
// Classes absent from the table participate only in cycle detection.
var lockLevels = map[lockClass]int{
	"internal/service|entry.mu":         0,
	"internal/service|labelPool.mu":     10,
	"internal/service|Manager.mu":       20,
	"internal/service|Manager.poolMu":   30,
	"internal/service|Manager.streamMu": 30,
}

// lockPair is one observed "acquired b while holding a" fact.
type lockPair struct {
	held, acq lockClass
	pos       token.Pos
	pkg       *Package
	via       string // "" for a direct acquire, the callee key for a call
}

func (lockOrder) CheckModule(m *Module) []Finding {
	var pairs []lockPair
	for _, n := range m.order {
		for _, a := range n.sum.acquires {
			for _, h := range a.held {
				pairs = append(pairs, lockPair{held: h, acq: a.class, pos: a.pos, pkg: n.Pkg})
			}
		}
		for _, e := range n.Edges {
			if e.Kind == EdgeGo || e.To == nil || len(e.Held) == 0 {
				continue
			}
			acq := make([]lockClass, 0, len(m.ta[e.To]))
			for c := range m.ta[e.To] {
				acq = append(acq, c)
			}
			sort.Slice(acq, func(i, j int) bool { return acq[i] < acq[j] })
			for _, c := range acq {
				for _, h := range e.Held {
					if h == c && e.To == n {
						continue // direct recursion re-reports the same site
					}
					pairs = append(pairs, lockPair{held: h, acq: c, pos: e.Pos, pkg: n.Pkg, via: string(e.To.Key)})
				}
			}
		}
	}

	// Pair graph for cycle detection among classes without a declared
	// level: acq reaching back to held means the order is cyclic.
	succ := make(map[lockClass][]lockClass)
	for _, p := range pairs {
		succ[p.held] = append(succ[p.held], p.acq)
	}
	reaches := func(from, to lockClass) bool {
		seen := map[lockClass]bool{from: true}
		stack := []lockClass{from}
		for len(stack) > 0 {
			c := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, nx := range succ[c] {
				if nx == to {
					return true
				}
				if !seen[nx] {
					seen[nx] = true
					stack = append(stack, nx)
				}
			}
		}
		return false
	}

	var out []Finding
	seen := make(map[string]bool)
	report := func(p lockPair, format string, args ...any) {
		f := findingAt(p.pkg, p.pos, "lockorder", format, args...)
		key := f.File + "|" + string(p.held) + "|" + string(p.acq) + "|" + f.Message
		if seen[key] {
			return
		}
		seen[key] = true
		out = append(out, f)
	}
	for _, p := range pairs {
		hl, hasHL := lockLevels[p.held]
		al, hasAL := lockLevels[p.acq]
		switch {
		case p.held == p.acq:
			if p.via == "" {
				report(p, "re-acquires %s while already holding it (self-deadlock)", p.acq.display())
			} else {
				report(p, "call to %s may re-acquire %s already held here (self-deadlock)", p.via, p.acq.display())
			}
		case hasHL && hasAL:
			if al <= hl {
				if p.via == "" {
					report(p, "acquires %s while holding %s — inverts the declared lock order (DESIGN §6)", p.acq.display(), p.held.display())
				} else {
					report(p, "call to %s may acquire %s while %s is held — inverts the declared lock order (DESIGN §6)", p.via, p.acq.display(), p.held.display())
				}
			}
		default:
			// No declared order: flag only when the pair closes a cycle.
			if reaches(p.acq, p.held) {
				if p.via == "" {
					report(p, "acquires %s while holding %s, and the reverse order also occurs — lock-order cycle", p.acq.display(), p.held.display())
				} else {
					report(p, "call to %s may acquire %s while %s is held, and the reverse order also occurs — lock-order cycle", p.via, p.acq.display(), p.held.display())
				}
			}
		}
	}
	return out
}
