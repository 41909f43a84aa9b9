package service

import (
	"time"

	"exptrain/internal/dataset"
	"exptrain/internal/persist"
)

// Test hooks: read-only probes and a clock override that only the
// tests use.

// Kinds returns the registered error kinds in emission-stable order.
func Kinds() []KindInfo { return append([]KindInfo(nil), kindRegistry...) }

// QueuedSubmissions reports how many submissions are waiting in the
// session's labelpool (0 if it has none).
func (m *Manager) QueuedSubmissions(id string) int {
	p := m.peekPool(id)
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.queue)
}

// build materializes the relation.
func (s Source) build() (*dataset.Relation, error) {
	rel, _, err := s.materialize()
	return rel, err
}

// Store returns the checkpoint store.
func (m *Manager) Store() persist.Store { return m.store }

// setNow installs a clock — a test hook.
func (m *Manager) setNow(now func() time.Time) {
	m.mu.Lock()
	m.now = now
	m.mu.Unlock()
}

// Counts reports how many sessions are live and parked.
func (m *Manager) Counts() (live, parked int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.live), len(m.parked)
}
