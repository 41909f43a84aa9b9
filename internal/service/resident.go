package service

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"exptrain/internal/game"
	"exptrain/internal/persist"
)

// entry is one resident session. Its mutex serializes the session
// protocol; lastUsed is guarded by the manager's mutex (it is bumped
// during lookup, which already holds it).
type entry struct {
	mu       sync.Mutex
	id       string
	spec     Spec
	sess     *game.Session
	lastUsed time.Time
	// wal records per-round deltas for WAL-backed durability; nil when
	// the store takes no appends. Its take/restore/clear run under mu.
	wal *walRecorder
	// based marks that a snapshot of this session durably landed in the
	// store under its id — the base appended deltas replay onto. Until
	// it is set, flushWal checkpoints instead of appending; guarded by
	// mu.
	based bool
	// gone marks the entry evicted or shut down. A goroutine that won
	// the entry lock after blocking must re-check it and retry the
	// lookup: the session now lives in the store, not here.
	gone bool
}

// parkedSession is what the manager keeps of an evicted session: the
// spec it resumes from and the rounds its checkpoint holds, so Get can
// report the count without resuming it. held is non-nil while a resume
// reads the session's snapshot as its source (holdSource), and is
// closed when the read is done; unparking waits for it.
type parkedSession struct {
	spec   Spec
	rounds int
	held   chan struct{}
}

// install registers a built entry, making room first if needed.
func (m *Manager) install(ctx context.Context, e *entry) error {
	for {
		m.mu.Lock()
		if m.draining {
			m.mu.Unlock()
			return ErrShuttingDown
		}
		if len(m.live) < m.opts.MaxSessions {
			e.lastUsed = m.now()
			m.live[e.id] = e
			m.mu.Unlock()
			return nil
		}
		victim := m.victimLocked(nil)
		m.mu.Unlock()
		if victim == nil {
			return ErrTooManySessions
		}
		if err := m.evict(ctx, victim); err != nil {
			return fmt.Errorf("service: evicting %s for capacity: %w", victim.id, err)
		}
	}
}

// victimLocked picks the least-recently-used live entry (excluding
// keep) whose lock is immediately free — an entry mid-request is never
// evicted. Healthy entries are preferred over degraded ones: a degraded
// session's last checkpoint failed, so evicting it will likely fail
// again; it is chosen only when no healthy candidate exists, which
// doubles as its recovery path once the store heals. Caller holds
// m.mu; the returned entry is locked.
func (m *Manager) victimLocked(keep *entry) *entry {
	var candidates []*entry
	for _, e := range m.live {
		if e != keep {
			candidates = append(candidates, e)
		}
	}
	sort.Slice(candidates, func(i, j int) bool {
		di, dj := m.degraded[candidates[i].id], m.degraded[candidates[j].id]
		if di != dj {
			return !di // healthy first
		}
		return candidates[i].lastUsed.Before(candidates[j].lastUsed)
	})
	for _, e := range candidates {
		if e.mu.TryLock() {
			if e.gone {
				e.mu.Unlock()
				continue
			}
			return e
		}
	}
	return nil
}

// evict checkpoints a locked entry into the store and parks it. The
// entry lock is released before returning.
//
// The invariant this method protects: a session leaves the live map
// only after its checkpoint durably landed. If the Put exhausts the
// retry policy the session stays live and is marked degraded — serving
// continues from memory, nothing submitted is lost, and a later
// checkpoint (Sweep, Snapshot, Shutdown, or a forced eviction) retries
// and clears the mark.
func (m *Manager) evict(ctx context.Context, e *entry) error {
	defer e.mu.Unlock()
	// An unsubmitted round is dropped: it carries no annotator evidence,
	// and the discard rewinds the sampler RNG and the pool, so the
	// snapshot resumes to re-present the same pairs.
	e.sess.DiscardPending()
	if err := m.checkpointLocked(ctx, e); err != nil {
		return err
	}
	e.gone = true
	m.mu.Lock()
	delete(m.live, e.id)
	m.parked[e.id] = parkedSession{spec: e.spec, rounds: e.sess.Rounds()}
	m.mu.Unlock()
	return nil
}

// checkpointLocked writes a full snapshot of the session into the store
// under the retry policy. It is the one checkpoint path: park, explicit
// snapshots, shutdown, and a flush that still owes the session's base
// snapshot all go through it. A landed snapshot supersedes the
// recorder's pending deltas, becomes the base later appends replay
// onto, and heals the degraded mark. A failed one marks the session
// degraded: it stays live and serves from memory until a later
// checkpoint lands. Caller holds e.mu.
func (m *Manager) checkpointLocked(ctx context.Context, e *entry) error {
	snap, err := e.sess.Snapshot()
	if err != nil {
		return err
	}
	if err := m.storeRetry(ctx, "checkpointing "+e.id, func(ctx context.Context) error {
		return m.store.Put(ctx, e.id, snap)
	}); err != nil {
		m.setDegraded(e.id, true)
		return err
	}
	e.based = true
	if e.wal != nil {
		e.wal.clear()
	}
	m.setDegraded(e.id, false)
	return nil
}

// setDegraded flips a live session's degraded mark. Only live sessions
// carry the mark: parking requires the checkpoint to have succeeded.
func (m *Manager) setDegraded(id string, sick bool) {
	m.mu.Lock()
	if sick {
		if _, ok := m.live[id]; ok {
			m.degraded[id] = true
		}
	} else {
		delete(m.degraded, id)
	}
	m.mu.Unlock()
}

// acquire returns the locked entry for id, transparently unparking an
// evicted session. The caller must unlock it. Lookup loops because an
// entry can be evicted between the map read and winning its lock.
func (m *Manager) acquire(ctx context.Context, id string) (*entry, error) {
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		m.mu.Lock()
		if m.draining {
			m.mu.Unlock()
			return nil, ErrShuttingDown
		}
		if e, ok := m.live[id]; ok {
			e.lastUsed = m.now()
			m.mu.Unlock()
			e.mu.Lock()
			if e.gone {
				e.mu.Unlock()
				continue // evicted while we waited; retry (now parked)
			}
			return e, nil
		}
		p, ok := m.parked[id]
		if !ok {
			m.mu.Unlock()
			return nil, fmt.Errorf("%w: %q", ErrSessionNotFound, id)
		}
		if p.held != nil {
			// A resume is reading this session's snapshot: unpark after.
			m.mu.Unlock()
			if err := waitHeld(ctx, p.held); err != nil {
				return nil, err
			}
			continue
		}
		// Unpark: insert a locked placeholder so concurrent requests for
		// the same id queue on its lock instead of double-resuming, then
		// do the store read and replay without holding the manager lock.
		e := &entry{id: id, spec: p.spec, lastUsed: m.now()}
		e.mu.Lock() //etlint:ignore lockorder freshly allocated placeholder locked before publication in m.live; nothing else can hold it, so the entry→manager edge of the order can't close a cycle
		delete(m.parked, id)
		m.live[id] = e
		over := len(m.live) > m.opts.MaxSessions
		m.mu.Unlock()

		if over {
			// Over capacity after insertion: make room. Failure rolls the
			// placeholder back to parked.
			if err := m.makeRoomFor(ctx, e); err != nil {
				m.unparkFailed(e, p)
				return nil, err
			}
		}
		var snap *persist.Snapshot
		err := m.storeRetry(ctx, "loading snapshot "+id, func(ctx context.Context) error {
			var gerr error
			snap, gerr = m.store.Get(ctx, id)
			return gerr
		})
		if err == nil {
			var wrec *walRecorder
			if m.appender != nil {
				wrec = &walRecorder{id: id}
			}
			var sess *game.Session
			sess, err = buildSession(p.spec, snap, wrec)
			if err == nil {
				e.sess = sess
				e.wal = wrec
				e.based = true // the snapshot we just resumed from is the base
				return e, nil
			}
		}
		m.unparkFailed(e, p)
		return nil, fmt.Errorf("service: resuming parked session %q: %w", id, err)
	}
}

// makeRoomFor evicts LRU entries other than keep until the resident set
// is within MaxSessions. Caller holds keep's lock.
func (m *Manager) makeRoomFor(ctx context.Context, keep *entry) error {
	for {
		m.mu.Lock()
		if len(m.live) <= m.opts.MaxSessions {
			m.mu.Unlock()
			return nil
		}
		victim := m.victimLocked(keep)
		m.mu.Unlock()
		if victim == nil {
			return ErrTooManySessions
		}
		if err := m.evict(ctx, victim); err != nil {
			return err
		}
	}
}

// unparkFailed rolls a placeholder back to parked, as p, after a
// failed resume; the snapshot is still in the store.
func (m *Manager) unparkFailed(e *entry, p parkedSession) {
	e.gone = true
	m.mu.Lock()
	delete(m.live, e.id)
	m.parked[e.id] = p
	m.mu.Unlock()
	e.mu.Unlock()
}

// infoOf renders a locked (or freshly built) entry.
func (m *Manager) infoOf(e *entry, parked bool) Info {
	m.mu.Lock()
	degraded := m.degraded[e.id]
	m.mu.Unlock()
	info := Info{
		ID:       e.id,
		Method:   e.spec.Method.Resolve(),
		K:        e.spec.K,
		Parked:   parked,
		Degraded: degraded,
	}
	if e.sess != nil {
		info.Rounds = e.sess.Rounds()
		info.Pending = e.sess.PendingCount()
		info.Remaining = e.sess.RemainingPairs()
		info.Rows = e.sess.Relation().NumRows()
		info.Space = e.sess.Belief().Size()
	}
	return info
}
