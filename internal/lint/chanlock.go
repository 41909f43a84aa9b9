package lint

// chanLock flags potentially blocking operations — channel send,
// channel receive, select without default, range over a channel,
// WaitGroup.Wait, Cond.Wait — performed while a mutex is held, either
// directly or through a synchronous call whose callee may block.
// Blocking under a lock turns backpressure into deadlock: every other
// path needing the lock stalls behind an unbounded wait.
type chanLock struct{}

func (chanLock) ID() string { return "chanlock" }
func (chanLock) Doc() string {
	return "no blocking channel operation or Wait while holding a mutex, directly or via callees"
}
func (chanLock) Check(p *Package) []Finding { return nil }

// chanLockExempt lists coarse locks designed to be held across
// blocking work. The per-session entry lock serializes all session
// work including checkpoint retries and store I/O (DESIGN §6);
// holding it across a bounded sleep or store call is the design, not
// a defect.
var chanLockExempt = map[lockClass]bool{
	"internal/service|entry.mu": true,
}

func firstNonExempt(held []lockClass) (lockClass, bool) {
	for _, c := range held {
		if !chanLockExempt[c] {
			return c, true
		}
	}
	return "", false
}

func (chanLock) CheckModule(m *Module) []Finding {
	var out []Finding
	for _, n := range m.order {
		if !n.Pkg.Internal() {
			continue // scoped to the serving core and libraries under internal/
		}
		for _, b := range n.sum.blocks {
			if c, ok := firstNonExempt(b.held); ok {
				out = append(out, findingAt(n.Pkg, b.pos, "chanlock",
					"%s while holding %s can block every path needing the lock", b.what, c.display()))
			}
		}
		for _, e := range n.Edges {
			if e.Kind == EdgeGo || e.To == nil || len(e.Held) == 0 {
				continue
			}
			c, ok := firstNonExempt(e.Held)
			if !ok {
				continue
			}
			if cause, blocks := m.tb[e.To]; blocks {
				out = append(out, findingAt(n.Pkg, e.Pos, "chanlock",
					"call to %s while holding %s may block (%s)", e.To.Key, c.display(), cause.what))
			}
		}
	}
	return out
}
