package persist

import (
	"context"
	"fmt"
)

// RoundDelta is the wire form of one submitted round's effect on a
// session — the unit the write-ahead log records. It carries the
// round's interaction plus the learner's full post-round belief and
// sampler RNG state, so replaying a snapshot's committed suffix is a
// pure data fold (ApplyDelta): no belief arithmetic re-runs, which is
// what lets a resumed session stay bit-identical to the live one. A
// delta's size is O(space), constant in the session's history, versus
// a full snapshot's O(space + rounds) — the asymmetry the WAL's
// durability win comes from.
type RoundDelta struct {
	// Session is the snapshot id the delta belongs to.
	Session string `json:"session"`
	// Round is the zero-based round index: applying the delta requires
	// the snapshot's history to hold exactly Round interactions.
	Round int `json:"round"`
	// Interaction is the round's labelings, revisions and measurements.
	Interaction InteractionJSON `json:"interaction"`
	// Learner is the learner's full Beta vector after the round.
	Learner []BetaJSON `json:"learner,omitempty"`
	// LearnerRNG is the learner's sampler RNG state after the round
	// (four xoshiro256** words), making a replayed resume draw-exact.
	LearnerRNG []uint64 `json:"learner_rng,omitempty"`
}

// RoundAppender is the optional store capability behind WAL-backed
// durability: append the given round deltas durably (one group commit)
// without rewriting full snapshots. Implementations ack only once the
// records are fsynced (quorum-fsynced under replication); a returned
// error means the rounds must not be considered durable — though, as
// with any crashed commit, they may still surface on recovery (the
// old-or-new contract).
type RoundAppender interface {
	AppendRounds(ctx context.Context, deltas []*RoundDelta) error
}

// appenderProvider is the optional interface capability-forwarding
// wrappers (persist/faulty, MultiStore) implement so AppenderOf can see
// through them: the wrapper reports a non-nil appender only when its
// inner store genuinely supports round appends.
type appenderProvider interface {
	RoundAppender() RoundAppender
}

// AppenderOf reports the store's round-append capability: the store
// itself when it implements RoundAppender, whatever a wrapper forwards
// to, or nil when snapshots are the only durability the store offers.
func AppenderOf(s Store) RoundAppender {
	if p, ok := s.(appenderProvider); ok {
		return p.RoundAppender()
	}
	if a, ok := s.(RoundAppender); ok {
		return a
	}
	return nil
}

// ApplyDelta folds one round delta into a snapshot, in place. A delta
// the snapshot already contains (Round < len(History)) is skipped —
// replay after a crash legitimately revisits folded rounds — and a
// delta beyond the snapshot's frontier (Round > len(History)) is a
// gap: the log lost a committed round, so the fold must stop rather
// than fabricate history. applied reports whether the delta advanced
// the snapshot.
func ApplyDelta(snap *Snapshot, d *RoundDelta) (applied bool, err error) {
	if d == nil {
		return false, fmt.Errorf("persist: nil round delta")
	}
	switch {
	case d.Round < len(snap.History):
		return false, nil // already folded into the snapshot
	case d.Round > len(snap.History):
		return false, fmt.Errorf("%w: round delta %d leaves a gap after %d recorded round(s)",
			ErrCorrupt, d.Round, len(snap.History))
	}
	if d.Learner != nil && len(snap.Learner) > 0 && len(d.Learner) != len(snap.Learner) {
		return false, fmt.Errorf("%w: round delta %d carries %d learner parameters, snapshot has %d",
			ErrCorrupt, d.Round, len(d.Learner), len(snap.Learner))
	}
	snap.History = append(snap.History, d.Interaction)
	if d.Learner != nil {
		snap.Learner = append([]BetaJSON(nil), d.Learner...)
	}
	if d.LearnerRNG != nil {
		snap.LearnerRNG = append([]uint64(nil), d.LearnerRNG...)
	}
	return true, nil
}

// WalStats is a WAL-backed store's operational counters, surfaced on
// /v1/healthz. Aggregating wrappers (MultiStore) sum the counts and
// take the worst fsync p99 across replicas.
type WalStats struct {
	// Appended counts round records durably committed since open.
	Appended uint64 `json:"appended_records"`
	// Unflushed counts records enqueued to the group committer but not
	// yet fsynced — the crash-loss window at this instant.
	Unflushed int `json:"unflushed_records"`
	// BatchRecords is the size of the most recent group-commit batch.
	BatchRecords int `json:"batch_records"`
	// Fsyncs counts group commits (one fsync each) since open.
	Fsyncs uint64 `json:"fsyncs"`
	// FsyncP99Ms is the 99th-percentile fsync latency over the recent
	// window, in milliseconds.
	FsyncP99Ms float64 `json:"fsync_p99_ms"`
	// CompactionLag counts committed records not yet folded into a
	// snapshot — replay work a recovery would redo.
	CompactionLag int `json:"compaction_lag"`
	// Segments counts live log segment files on disk.
	Segments int `json:"segments"`
}

// merge folds another replica's WAL counters into s (sums, worst p99).
func (s *WalStats) merge(o WalStats) {
	s.Appended += o.Appended
	s.Unflushed += o.Unflushed
	if o.BatchRecords > s.BatchRecords {
		s.BatchRecords = o.BatchRecords
	}
	s.Fsyncs += o.Fsyncs
	if o.FsyncP99Ms > s.FsyncP99Ms {
		s.FsyncP99Ms = o.FsyncP99Ms
	}
	s.CompactionLag += o.CompactionLag
	s.Segments += o.Segments
}

// WalStatter is the optional store interface surfacing WAL counters
// (wal.Store, MultiStore over WAL replicas, persist/faulty wrappers).
type WalStatter interface {
	WalStats() (WalStats, bool)
}
