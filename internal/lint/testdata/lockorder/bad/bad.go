// Package bad exercises lockorder: inversions of the declared
// entry→pool→manager order (DESIGN §6), an undeclared cycle, and a
// self re-acquire — directly and through a callee.
package bad

import "sync"

// entry mirrors internal/service.entry (declared level 0).
type entry struct{ mu sync.Mutex }

// labelPool mirrors internal/service.labelPool (declared level 10).
type labelPool struct{ mu sync.Mutex }

// drainInverted takes the entry lock while still holding the pool
// lock — the inverse of the real drain path, which releases p.mu
// before acquiring the session entry.
func drainInverted(p *labelPool, e *entry) {
	p.mu.Lock()
	e.mu.Lock() // want lockorder
	e.mu.Unlock()
	p.mu.Unlock()
}

// lockEntry is the indirection for the interprocedural case.
func lockEntry(e *entry) {
	e.mu.Lock()
	e.mu.Unlock()
}

// drainIndirect commits the same inversion through a callee: the
// summary of lockEntry carries entry.mu into the call edge.
func drainIndirect(p *labelPool, e *entry) {
	p.mu.Lock()
	lockEntry(e) // want lockorder
	p.mu.Unlock()
}

// doubleLock re-acquires a mutex it already holds.
func doubleLock(e *entry) {
	e.mu.Lock()
	e.mu.Lock() // want lockorder
	e.mu.Unlock()
	e.mu.Unlock()
}

// journal and index are undeclared classes: no level in DESIGN §6,
// so only a cycle between them is a finding.
type journal struct{ mu sync.Mutex }
type index struct{ mu sync.Mutex }

func journalThenIndex(j *journal, ix *index) {
	j.mu.Lock()
	ix.mu.Lock() // want lockorder
	ix.mu.Unlock()
	j.mu.Unlock()
}

func indexThenJournal(j *journal, ix *index) {
	ix.mu.Lock()
	j.mu.Lock() // want lockorder
	j.mu.Unlock()
	ix.mu.Unlock()
}
