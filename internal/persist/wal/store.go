package wal

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"sync"

	"exptrain/internal/persist"
)

// StoreConfig shapes a WAL-backed store.
type StoreConfig struct {
	// Wal configures the underlying log.
	Wal Config
}

// Store is a persist.Store that layers a write-ahead round log over an
// inner snapshot store. AppendRounds is the cheap durability path — one
// group-committed log record per round instead of a full snapshot
// rewrite — and the log is a redo log, read only when the store opens:
// OpenStore folds each session's committed rounds past its last
// snapshot into a fresh one. After that a Get is the inner store's Get.
// The rounds appended since a session's last snapshot are in the log
// and in the caller's own copy of the session (the service's live
// session), and the store keeps no third copy; whoever appends also
// Puts a snapshot now and then. Every Put marks the log and drops the
// segments no session needs any more.
//
// The commit contract composes from the layers' own: the inner store's
// five-step Put protocol makes each snapshot old-or-new, the log's
// torn-tail truncation makes the replayed suffix exactly the committed
// records, and ApplyDelta's gap check turns a lost committed round into
// ErrCorrupt instead of silently fabricated history: a session whose
// rounds cannot fold answers the fold's error from every Get until a
// Put replaces its snapshot (under replication the multistore then
// repairs from a peer).
//
// Every write finishes inside the call that made it, and a caller never
// overlaps two writes (Put, AppendRounds, Delete) of one id. The
// service's entry lock serializes each session's checkpoints and
// appends, so it keeps this rule.
//
// An id is never re-created. Its watermark only rises, so a second
// session stored under an old id would have its appended rounds sit
// below the first one's watermark, where no replay finds them. The
// service mints every id past the ids the store already lists.
type Store struct {
	inner persist.Store
	log   *Log

	mu sync.Mutex
	// unfolded holds the sessions whose committed rounds could not fold
	// onto their snapshot at open, with the error each Get answers
	// until a Put replaces the snapshot; guarded by mu.
	unfolded map[string]error
}

// OpenStore opens (or creates) the write-ahead log in dir over the
// inner snapshot store and replays it: every session's committed rounds
// at or past its watermark are folded onto its inner snapshot, in round
// order, and the result is Put back, so that the inner store alone
// carries every durable round. The latest committed record of a round
// wins (a retried append after an ambiguous crash legitimately revisits
// a round). A session whose snapshot cannot be read or whose rounds do
// not fold — a gap, a learner of the wrong length — keeps the error for
// Get instead. Only a failed Put or a cancelled replay fails the open.
// The returned RecoverResult reports what the replay found.
func OpenStore(inner persist.Store, dir string, cfg StoreConfig) (*Store, RecoverResult, error) {
	//etlint:ignore ctxflow cmd/etperf's servingSpec.open holds a context but calls OpenStore; it moves to OpenStoreContext with the benchmark's next change (ROADMAP item 7)
	return OpenStoreContext(context.Background(), inner, dir, cfg)
}

// OpenStoreContext is OpenStore with the replay's store calls under
// ctx.
func OpenStoreContext(ctx context.Context, inner persist.Store, dir string, cfg StoreConfig) (*Store, RecoverResult, error) {
	l, rec, err := Open(dir, cfg.Wal)
	if err != nil {
		return nil, rec, err
	}
	s := &Store{inner: inner, log: l, unfolded: make(map[string]error)}
	rounds := make(map[string]map[int]*persist.RoundDelta)
	for _, d := range rec.Deltas {
		if d.Round < rec.Marks[d.Session] {
			continue // already folded into a snapshot before the crash
		}
		if rounds[d.Session] == nil {
			rounds[d.Session] = make(map[int]*persist.RoundDelta)
		}
		rounds[d.Session][d.Round] = d
	}
	ids := make([]string, 0, len(rounds))
	for id := range rounds {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		snap, err := s.fold(ctx, id, rounds[id])
		if err != nil && ctx.Err() == nil {
			s.unfolded[id] = err
			continue
		}
		if err == nil {
			if err = s.Put(ctx, id, snap); err != nil {
				err = fmt.Errorf("wal: checkpointing the replayed rounds of %q: %w", id, err)
			}
		}
		if err != nil {
			l.Close()
			return nil, rec, err
		}
	}
	return s, rec, nil
}

// fold reads a session's inner snapshot and applies its replayed
// rounds to it in round order.
func (s *Store) fold(ctx context.Context, id string, rounds map[int]*persist.RoundDelta) (*persist.Snapshot, error) {
	snap, err := s.inner.Get(ctx, id)
	if err != nil {
		return nil, err
	}
	order := make([]int, 0, len(rounds))
	for r := range rounds {
		order = append(order, r)
	}
	slices.Sort(order)
	for _, r := range order {
		if _, err := persist.ApplyDelta(snap, rounds[r]); err != nil {
			return nil, fmt.Errorf("replaying wal for %q: %w", id, err)
		}
	}
	return snap, nil
}

// Log returns the underlying write-ahead log (for tests and fault
// injection).
func (s *Store) Log() *Log { return s.log }

// RoundAppender marks the store as append-capable for AppenderOf.
func (s *Store) RoundAppender() persist.RoundAppender { return s }

// AppendRounds implements persist.RoundAppender: the deltas ride one
// group commit, and the call returns once it fsynced. Nothing reads
// them until the store is next opened.
func (s *Store) AppendRounds(ctx context.Context, deltas []*persist.RoundDelta) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return s.log.Append(deltas)
}

// Get implements persist.Store: the inner snapshot, or the error its
// replay at open met.
func (s *Store) Get(ctx context.Context, id string) (*persist.Snapshot, error) {
	s.mu.Lock()
	err := s.unfolded[id]
	s.mu.Unlock()
	if err != nil {
		return nil, err
	}
	return s.inner.Get(ctx, id)
}

// Put implements persist.Store: the snapshot lands in the inner store
// (its own atomic commit protocol), and a watermark record rides the
// log so recovery knows the rounds below it are folded and the sealed
// segments holding only such rounds can be dropped. The mark and the
// drop are best-effort: losing the mark only costs recovery a harmless
// re-replay of rounds the snapshot holds (ApplyDelta skips them), and a
// segment kept now goes with a later Put.
func (s *Store) Put(ctx context.Context, id string, snap *persist.Snapshot) error {
	if err := s.inner.Put(ctx, id, snap); err != nil {
		return err
	}
	s.mu.Lock()
	delete(s.unfolded, id)
	s.mu.Unlock()
	if s.log.Mark(id, len(snap.History)) == nil {
		_, _ = s.log.Compact()
	}
	return nil
}

// Delete implements persist.Store: the inner snapshot goes away and a
// high watermark retires every logged round for the id, so a recovery
// replay cannot resurrect the session.
func (s *Store) Delete(ctx context.Context, id string) error {
	if err := s.inner.Delete(ctx, id); err != nil {
		return err
	}
	s.mu.Lock()
	delete(s.unfolded, id)
	s.mu.Unlock()
	// Best-effort: the delete itself is durable; only the log hint that
	// retires the id's rounds is lost.
	_ = s.log.Mark(id, deletedWatermark)
	return nil
}

// deletedWatermark retires every conceivable round of a deleted
// session (rounds are bounded by the pair pool, far below this).
const deletedWatermark = 1 << 30

// List implements persist.Store. The log never creates ids the inner
// store lacks — the service lands a session's base snapshot before its
// first append — so the inner listing is the listing.
func (s *Store) List(ctx context.Context) ([]string, error) {
	return s.inner.List(ctx)
}

// Scan is the inner store's recovery scan (quarantine torn snapshots,
// drop orphaned temps), forwarded so that a replica set of WAL stores
// reconciles through the standard quorum scan (MultiStore probes for
// it). The replay at open already folded the log into the snapshots.
func (s *Store) Scan(ctx context.Context) (persist.ScanResult, error) {
	if sc, ok := s.inner.(interface {
		Scan(ctx context.Context) (persist.ScanResult, error)
	}); ok {
		return sc.Scan(ctx)
	}
	return persist.ScanResult{}, nil
}

// WalStats implements persist.WalStatter: the log's counters.
func (s *Store) WalStats() (persist.WalStats, bool) {
	return s.log.Stats(), true
}

// Close flushes and closes the log. The inner store is left untouched
// (callers own it).
func (s *Store) Close() error {
	return s.log.Close()
}
