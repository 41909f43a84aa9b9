package persist

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
)

// MultiStore replicates snapshots across N backing stores with quorum
// writes and read-repair, so losing any single backing store (one disk,
// one replica directory) loses no session:
//
//   - Put writes to every replica concurrently, waits for every replica
//     to answer, and succeeds when at least W confirmed (default W =
//     majority).
//   - Get reads every replica, requires a read quorum of N-W+1 answers
//     (so any read intersects any committed write), returns the
//     freshest intact snapshot (most recorded rounds), and
//     synchronously repairs replicas that came back stale, corrupt or
//     missing — a dead replica that comes back heals on the first read
//     of each id.
//   - Scan reconciles the whole keyspace: per-replica recovery scans
//     (quarantining torn files), then one read-repair pass per id.
//
// Because every replica Put is individually atomic (DirStore's commit
// protocol) and Get resolves to one intact replica, a crash anywhere in
// the replicated commit leaves Get observing either the old snapshot or
// the new one, never a torn mix — the same old-or-new contract the
// single-store protocol gives, lifted to the replica set. Freshness
// ordering relies on a session's snapshot only ever growing its round
// history, which is how the service uses the store.
//
// Every write finishes on every replica inside the call that made it,
// and a caller never overlaps two writes (Put, AppendRounds, Delete) of
// one id: a replica that took two writes of one id at once could keep
// the older one. The service's entry lock serializes each session's
// checkpoints and appends, so it keeps this rule.
type MultiStore struct {
	replicas []Store
	w        int

	mu    sync.Mutex
	stats []ReplicaStats // per replica; guarded by mu
}

// ReplicaStats counts one replica's operations, failures, and repairs.
type ReplicaStats struct {
	// Ops counts operations attempted against the replica.
	Ops uint64 `json:"ops"`
	// Failures counts operations the replica failed.
	Failures uint64 `json:"failures"`
	// Repairs counts snapshots re-written onto the replica by
	// read-repair or Scan after it was found stale, corrupt or missing.
	Repairs uint64 `json:"repairs"`
	// LastErr is the replica's most recent failure, empty once an
	// operation succeeds again.
	LastErr string `json:"last_err,omitempty"`
}

// NewMultiStore builds a quorum-replicating store over the given
// replicas. writeQuorum is the number of replica acks a Put needs to
// succeed; 0 asks for a majority (len/2+1). A quorum of 1 with a single
// replica degenerates to a plain pass-through.
func NewMultiStore(replicas []Store, writeQuorum int) (*MultiStore, error) {
	if len(replicas) == 0 {
		return nil, errors.New("persist: multistore needs at least one replica")
	}
	w := writeQuorum
	if w == 0 {
		w = len(replicas)/2 + 1
	}
	if w < 1 || w > len(replicas) {
		return nil, fmt.Errorf("persist: write quorum %d outside 1..%d", writeQuorum, len(replicas))
	}
	return &MultiStore{
		replicas: replicas,
		w:        w,
		stats:    make([]ReplicaStats, len(replicas)),
	}, nil
}

// Replicas reports how many backing stores the multistore replicates
// across, and WriteQuorum how many acks a Put requires.
func (s *MultiStore) Replicas() int    { return len(s.replicas) }
func (s *MultiStore) WriteQuorum() int { return s.w }

// Stats returns a copy of the per-replica operation counters, in
// replica order.
func (s *MultiStore) Stats() []ReplicaStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]ReplicaStats(nil), s.stats...)
}

// note records one replica operation's outcome.
func (s *MultiStore) note(i int, err error, repaired bool) {
	s.mu.Lock()
	s.stats[i].Ops++
	if err != nil {
		s.stats[i].Failures++
		s.stats[i].LastErr = err.Error()
	} else {
		s.stats[i].LastErr = ""
	}
	if repaired {
		s.stats[i].Repairs++
	}
	s.mu.Unlock()
}

// Put implements Store: the snapshot is written to every replica
// concurrently and the call succeeds when W replicas acked (see
// quorumWrite). A Put that misses its quorum does not count as
// committed — though replicas that did take the write keep it, which is
// exactly the ambiguity the old-or-new read path resolves.
func (s *MultiStore) Put(ctx context.Context, id string, snap *Snapshot) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if err := ValidateID(id); err != nil {
		return err
	}
	if err := s.quorumWrite(func(r Store) error { return r.Put(ctx, id, snap) }); err != nil {
		return fmt.Errorf("persist: put %q %w", id, err)
	}
	return nil
}

// RoundAppender reports the replica set's round-append capability:
// non-nil (the multistore itself) only when every replica supports
// appends. A mixed set falls back to snapshot-only durability — quorum
// math over appends is only sound when all N replicas can take them,
// otherwise a "quorum" of the appendable minority would not intersect
// a snapshot write quorum.
func (s *MultiStore) RoundAppender() RoundAppender {
	for _, r := range s.replicas {
		if AppenderOf(r) == nil {
			return nil
		}
	}
	return s
}

// AppendRounds implements RoundAppender across the replica set with
// the same quorum discipline as Put: every replica's log takes the
// deltas concurrently and the call succeeds when W replicas fsynced. A
// replica that missed the append heals through the ordinary read path
// — its next Get folds a shorter tail, loses the freshness race, and
// read-repair rewrites it with the winner.
func (s *MultiStore) AppendRounds(ctx context.Context, deltas []*RoundDelta) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if len(deltas) == 0 {
		return nil
	}
	for _, d := range deltas {
		if d == nil {
			return errors.New("persist: nil round delta")
		}
		if err := ValidateID(d.Session); err != nil {
			return err
		}
	}
	err := s.quorumWrite(func(r Store) error {
		app := AppenderOf(r)
		if app == nil {
			return errors.New("replica lacks a round appender")
		}
		return app.AppendRounds(ctx, deltas)
	})
	if err != nil {
		return fmt.Errorf("persist: append of %d round(s) %w", len(deltas), err)
	}
	return nil
}

// each runs op against every replica concurrently and returns once
// every replica answered: no replica operation outlives the call that
// issued it.
func (s *MultiStore) each(op func(i int, r Store)) {
	var wg sync.WaitGroup
	for i, r := range s.replicas {
		wg.Add(1)
		go func() {
			defer wg.Done()
			op(i, r)
		}()
	}
	wg.Wait()
}

// quorumWrite runs write against every replica, waits for all N
// answers, and returns nil when at least W replicas acked. A write
// waits for its slowest replica, as Get, Delete and List do, so a late
// replica write can never land over a newer one. Below W acks the
// error counts the acks and joins the replica errors, and the caller
// prefixes what it wrote.
func (s *MultiStore) quorumWrite(write func(r Store) error) error {
	n := len(s.replicas)
	results := make([]error, n)
	s.each(func(i int, r Store) {
		results[i] = write(r)
		s.note(i, results[i], false)
	})
	acks := 0
	var errs []error
	for i, err := range results {
		if err == nil {
			acks++
		} else {
			errs = append(errs, fmt.Errorf("replica %d: %w", i, err))
		}
	}
	if acks >= s.w {
		return nil
	}
	return fmt.Errorf("acked by %d of %d replicas (need %d): %w", acks, n, s.w, errors.Join(errs...))
}

// readResult is one replica's answer to a Get.
type readResult struct {
	snap *Snapshot
	err  error
}

// definitive reports whether a replica read error cannot be improved by
// retrying the replica: the id is absent, malformed, or the bytes are
// corrupt. Anything else (I/O faults, cancellations) is transient.
func definitive(err error) bool {
	return errors.Is(err, ErrNotFound) || errors.Is(err, ErrBadID) || errors.Is(err, ErrCorrupt)
}

// readAll fetches id from every replica concurrently.
func (s *MultiStore) readAll(ctx context.Context, id string) []readResult {
	reads := make([]readResult, len(s.replicas))
	s.each(func(i int, r Store) {
		snap, err := r.Get(ctx, id)
		s.note(i, err, false)
		reads[i] = readResult{snap, err}
	})
	return reads
}

// winner picks the freshest intact read: the snapshot with the longest
// round history, ties to the lowest replica index. Returns -1 when no
// replica produced a snapshot.
func winner(reads []readResult) int {
	best := -1
	for i, r := range reads {
		if r.snap == nil {
			continue
		}
		if best < 0 || len(r.snap.History) > len(reads[best].snap.History) {
			best = i
		}
	}
	return best
}

// Get implements Store: every replica is read, the freshest intact
// snapshot among a read quorum wins, and stale, corrupt or missing
// replicas are repaired in place with the winner before returning.
//
// The read quorum is N-W+1 answers, where an answer is a snapshot or a
// definitive error (not-found, corrupt) — any N-W+1 answering replicas
// must intersect the W replicas that acked a committed Put, so the
// winner is never older than the last committed write and N-W+1
// not-founds prove genuine absence. Fewer answers than that and a
// committed write may be hiding entirely on the unreachable replicas —
// returning the best visible copy could hand back stale state that a
// later checkpoint re-commits over the newer one — so Get fails with
// the transient replica errors instead and the caller retries. With a
// full quorum of answers the error classifies the situation: all
// absent is ErrNotFound, any corrupt (with the rest absent) is
// ErrCorrupt.
func (s *MultiStore) Get(ctx context.Context, id string) (*Snapshot, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := ValidateID(id); err != nil {
		return nil, err
	}
	reads := s.readAll(ctx, id)
	n := len(s.replicas)
	answers := 0
	var transient, corrupt []error
	for i, r := range reads {
		switch {
		case r.snap != nil:
			answers++
		case definitive(r.err):
			answers++
			if errors.Is(r.err, ErrCorrupt) {
				corrupt = append(corrupt, fmt.Errorf("replica %d: %w", i, r.err))
			}
		default:
			transient = append(transient, fmt.Errorf("replica %d: %w", i, r.err))
		}
	}
	if need := n - s.w + 1; answers < need {
		return nil, fmt.Errorf("persist: get %q answered by %d of %d replicas, need %d for a read quorum: %w",
			id, answers, n, need, errors.Join(transient...))
	}
	best := winner(reads)
	if best < 0 {
		if len(corrupt) > 0 {
			return nil, fmt.Errorf("persist: get %q: every stored copy is rotten: %w", id, errors.Join(corrupt...))
		}
		return nil, fmt.Errorf("%w: %q (%d of %d replicas answered)", ErrNotFound, id, answers, n)
	}
	win := reads[best].snap
	s.repair(ctx, id, win, reads, best)
	return win, nil
}

// repair re-writes the winning snapshot onto every replica whose read
// came back stale, corrupt or definitively missing. Best-effort and
// synchronous: a replica that cannot take the repair stays broken until
// the next read. Replicas that failed transiently are left alone — they
// may hold a copy at least as fresh.
func (s *MultiStore) repair(ctx context.Context, id string, win *Snapshot, reads []readResult, best int) {
	for i, r := range reads {
		if i == best {
			continue
		}
		stale := r.snap != nil && len(r.snap.History) < len(win.History)
		missing := r.snap == nil && definitive(r.err)
		if !stale && !missing {
			continue
		}
		err := s.replicas[i].Put(ctx, id, win)
		s.note(i, err, err == nil)
	}
}

// Delete implements Store. Every replica is asked; the delete succeeds
// only when no replica failed for a reason other than not-found —
// leaving a stale copy behind would let a later read-repair resurrect
// the snapshot. All replicas answering not-found is ErrNotFound.
func (s *MultiStore) Delete(ctx context.Context, id string) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if err := ValidateID(id); err != nil {
		return err
	}
	deleted := make([]error, len(s.replicas))
	s.each(func(i int, r Store) {
		deleted[i] = r.Delete(ctx, id)
		s.note(i, deleted[i], false)
	})
	notFound, ok := 0, 0
	var errs []error
	for i, err := range deleted {
		switch {
		case err == nil:
			ok++
		case errors.Is(err, ErrNotFound):
			notFound++
		default:
			errs = append(errs, fmt.Errorf("replica %d: %w", i, err))
		}
	}
	if len(errs) > 0 {
		return fmt.Errorf("persist: delete %q left %d replica(s) undeleted: %w", id, len(errs), errors.Join(errs...))
	}
	if ok == 0 {
		return fmt.Errorf("%w: %q (all %d replicas)", ErrNotFound, id, len(s.replicas))
	}
	return nil
}

// List implements Store: the union of ids across every answering
// replica, sorted. Only when every replica fails does List fail — a
// dead replica must not hide the ids its peers still hold.
func (s *MultiStore) List(ctx context.Context) ([]string, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	type listing struct {
		ids []string
		err error
	}
	lists := make([]listing, len(s.replicas))
	s.each(func(i int, r Store) {
		ids, err := r.List(ctx)
		s.note(i, err, false)
		lists[i] = listing{ids, err}
	})
	seen := make(map[string]struct{})
	failures := 0
	var errs []error
	for i, l := range lists {
		if l.err != nil {
			failures++
			errs = append(errs, fmt.Errorf("replica %d: %w", i, l.err))
			continue
		}
		for _, id := range l.ids {
			seen[id] = struct{}{}
		}
	}
	if failures == len(s.replicas) {
		return nil, fmt.Errorf("persist: list failed on every replica: %w", errors.Join(errs...))
	}
	ids := make([]string, 0, len(seen))
	for id := range seen {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids, nil
}

// MultiScanResult reports what a reconciling Scan found.
type MultiScanResult struct {
	// OK lists ids readable (post-repair) on the winning replica, sorted.
	OK []string
	// Repaired lists ids for which at least one replica had to be
	// re-written with the winner, sorted.
	Repaired []string
	// Failed lists ids no replica could produce intact, sorted.
	Failed []string
	// ReplicaScans holds each replica's own recovery scan result, when
	// the replica supports scanning (DirStore); nil entries otherwise.
	ReplicaScans []*ScanResult
}

// scanner is the optional per-replica recovery interface (DirStore).
type scanner interface {
	Scan(ctx context.Context) (ScanResult, error)
}

// Scan reconciles the replica set — the startup recovery path for a
// replicated store. Each replica that supports it first runs its own
// recovery scan (quarantining torn snapshots, removing orphaned temp
// files); then every id known to any replica is read through the
// read-repair path, converging stale and freshly-quarantined replicas
// onto the freshest intact copy. Like DirStore.Scan it fails only on
// errors that leave the keyspace unknowable, never on individual rotten
// snapshots.
func (s *MultiStore) Scan(ctx context.Context) (MultiScanResult, error) {
	var res MultiScanResult
	res.ReplicaScans = make([]*ScanResult, len(s.replicas))
	for i, r := range s.replicas {
		sc, ok := r.(scanner)
		if !ok {
			continue
		}
		sr, err := sc.Scan(ctx)
		if err != nil {
			// A replica whose directory cannot even be walked is treated as
			// down: its peers still define the keyspace.
			s.note(i, err, false)
			continue
		}
		res.ReplicaScans[i] = &sr
	}
	ids, err := s.List(ctx)
	if err != nil {
		return res, err
	}
	repairedBefore := func() uint64 {
		var total uint64
		s.mu.Lock()
		for _, st := range s.stats {
			total += st.Repairs
		}
		s.mu.Unlock()
		return total
	}
	for _, id := range ids {
		if err := ctx.Err(); err != nil {
			return res, err
		}
		before := repairedBefore()
		if _, err := s.Get(ctx, id); err != nil {
			res.Failed = append(res.Failed, id)
			continue
		}
		res.OK = append(res.OK, id)
		if repairedBefore() > before {
			res.Repaired = append(res.Repaired, id)
		}
	}
	sort.Strings(res.OK)
	sort.Strings(res.Repaired)
	sort.Strings(res.Failed)
	return res, nil
}

// WalStats implements WalStatter across the replica set: counts sum,
// the p99 is the worst replica's. Reports false when no replica
// surfaces WAL counters.
func (s *MultiStore) WalStats() (WalStats, bool) {
	var agg WalStats
	any := false
	for _, r := range s.replicas {
		ws, ok := r.(WalStatter)
		if !ok {
			continue
		}
		st, reported := ws.WalStats()
		if !reported {
			continue
		}
		agg.merge(st)
		any = true
	}
	return agg, any
}
