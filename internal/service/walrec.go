package service

import (
	"context"
	"sync/atomic"

	"exptrain/internal/belief"
	"exptrain/internal/game"
	"exptrain/internal/persist"
)

// walRecorder is the per-session observer behind WAL-backed
// durability: it folds the engine's event stream into persist.RoundDelta
// records — one per scored round, carrying the round's interaction plus
// the learner's post-round belief and sampler RNG state — which the
// manager then group-commits through the store's RoundAppender
// (flushWal). It is the one observer the manager installs, and only
// when the store supports appends.
//
// It has no internal locking: the engine serializes events per session
// and every take/restore/clear happens under the entry lock. The one exception is n, an atomic mirror of the pending
// count so health reporting can read the un-appended backlog
// without touching entry locks.
type walRecorder struct {
	game.NopObserver
	// id is the session id stamped into every recorded delta. Set once
	// when the entry is built, before any round flows; it must not
	// change afterwards — every replica's WAL tail keeps the pointer of
	// an appended delta, so deltas are immutable once handed to an
	// append.
	id string
	// eval mirrors the session spec: deltas carry detection scores only
	// when the session scores them (matching Snapshot's serialization).
	eval bool
	// rng reads the session's sampler RNG position; bound after the
	// session is built (the recorder is constructed first, as the
	// observer must exist before the session).
	rng func() [4]uint64
	// learner is the belief captured at the round's BeliefUpdated,
	// consumed (and released) by the following RoundScored.
	learner []persist.BetaJSON
	// pending holds recorded deltas awaiting a durable append, in round
	// order. Deltas survive a failed append (restore) until a full
	// snapshot supersedes them (clear).
	pending []*persist.RoundDelta
	// n mirrors len(pending) for lock-free health reads.
	n atomic.Int64
}

// bind points the recorder at its session's RNG, once the session
// exists.
func (w *walRecorder) bind(sess *game.Session) {
	w.rng = sess.RNGState
}

// BeliefUpdated captures the learner's post-round belief; the engine
// emits it before the round's RoundScored.
func (w *walRecorder) BeliefUpdated(t int, b *belief.Belief) {
	w.learner = persist.BeliefToJSON(b)
}

// RoundScored assembles the round's delta.
func (w *walRecorder) RoundScored(t int, rec game.IterationRecord) {
	r := persist.Round{
		Labeled:   rec.Labeled,
		Revisions: rec.Revisions,
		MAE:       rec.MAE,
		Payoff:    rec.TrainerPayoff,
	}
	if w.eval {
		d := rec.Detection
		r.Detection = &d
	}
	delta := &persist.RoundDelta{
		Session:     w.id,
		Round:       t,
		Interaction: persist.FromRound(r),
		Learner:     w.learner,
	}
	w.learner = nil // the delta holds it now
	if w.rng != nil {
		st := w.rng()
		delta.LearnerRNG = append([]uint64(nil), st[:]...)
	}
	w.pending = append(w.pending, delta)
	w.n.Store(int64(len(w.pending)))
}

// take removes and returns the pending deltas for an append attempt.
func (w *walRecorder) take() []*persist.RoundDelta {
	p := w.pending
	w.pending = nil
	w.n.Store(0)
	return p
}

// restore re-queues deltas after a failed append, ahead of anything
// recorded since.
func (w *walRecorder) restore(deltas []*persist.RoundDelta) {
	w.pending = append(deltas, w.pending...)
	w.n.Store(int64(len(w.pending)))
}

// clear drops the pending deltas — a full snapshot just landed, which
// carries everything they do.
func (w *walRecorder) clear() {
	w.pending = nil
	w.n.Store(0)
}

// backlog is the lock-free pending count, for health reporting.
func (w *walRecorder) backlog() int {
	return int(w.n.Load())
}

// checkpointEvery bounds how many rounds a session appends past its
// last checkpoint: the flush that reaches it lands a full snapshot
// instead, so a recovery replays at most this many rounds per session
// and the log can drop the segments behind the checkpoint. Its cost is
// one snapshot Put per session, amortized over checkpointEvery
// O(space)-sized appends.
const checkpointEvery = 64

// flushWal makes the entry's recorded rounds durable — the durability
// unit behind every submit: a submit acks to its caller only after its
// delta's group commit fsynced (quorum-fsynced under replication).
// Deltas are appended only on top of a base snapshot: until one lands
// (at create or resume, or after that checkpoint failed), the flush is
// a full checkpoint instead, which covers every recorded round. So no
// delta ever reaches the log without a snapshot to replay onto. Once a
// session is checkpointEvery rounds past its last checkpoint, the flush
// is a full checkpoint too. Caller holds e.mu.
//
// Failure follows the degraded-mode playbook: the deltas are restored
// for the next flush, the session is marked degraded, and serving
// continues from memory — nothing submitted is lost while the process
// lives, and any later full snapshot covers the backlog. A successful
// append heals the mark.
func (m *Manager) flushWal(ctx context.Context, e *entry) error {
	if e.wal == nil {
		return nil
	}
	if !e.based {
		return m.checkpointLocked(ctx, e)
	}
	// A failed periodic checkpoint still appends: the rounds must not
	// wait in memory for the snapshot store to heal.
	if e.sess.Rounds()-e.checkpointed >= checkpointEvery && m.checkpointLocked(ctx, e) == nil {
		return nil
	}
	deltas := e.wal.take()
	if len(deltas) == 0 {
		return nil
	}
	// Deltas carry their session id from record time and are never
	// mutated here: every replica's WAL tail keeps the pointer.
	if err := m.storeRetry(ctx, "appending rounds for "+e.id, func(ctx context.Context) error {
		return m.appender.AppendRounds(ctx, deltas)
	}); err != nil {
		e.wal.restore(deltas)
		m.setDegraded(e.id, true)
		return err
	}
	m.mu.Lock()
	m.walAppended += uint64(len(deltas))
	m.mu.Unlock()
	m.setDegraded(e.id, false)
	return nil
}
