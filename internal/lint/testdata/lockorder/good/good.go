// Package good holds lock-order patterns that must stay clean: the
// declared entry→pool→manager acquisition order, release-before-acquire,
// one-way undeclared nesting, and TryLock (untracked by design).
package good

import "sync"

type entry struct{ mu sync.Mutex }
type labelPool struct{ mu sync.Mutex }
type Manager struct{ mu sync.Mutex }

// declaredOrder acquires strictly up the declared levels.
func declaredOrder(e *entry, p *labelPool, m *Manager) {
	e.mu.Lock()
	p.mu.Lock()
	m.mu.Lock()
	m.mu.Unlock()
	p.mu.Unlock()
	e.mu.Unlock()
}

// handoff releases the pool lock before taking the entry lock — the
// real drain path's shape.
func handoff(p *labelPool, e *entry) {
	p.mu.Lock()
	p.mu.Unlock()
	e.mu.Lock()
	e.mu.Unlock()
}

// journal and index nest one way only: no cycle, no finding.
type journal struct{ mu sync.Mutex }
type index struct{ mu sync.Mutex }

func oneWay(j *journal, ix *index) {
	j.mu.Lock()
	ix.mu.Lock()
	ix.mu.Unlock()
	j.mu.Unlock()
}

// opportunistic uses TryLock, which cannot deadlock and is untracked.
func opportunistic(p *labelPool, e *entry) {
	p.mu.Lock()
	if e.mu.TryLock() {
		e.mu.Unlock()
	}
	p.mu.Unlock()
}
