package service

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"exptrain/internal/belief"
	"exptrain/internal/game"
	"exptrain/internal/persist"
	"exptrain/internal/repair"
	"exptrain/internal/stats"
)

// Shard is one serving partition of the session space — the surface
// the Manager (the front-tier router) dispatches to after resolving a
// session id by rendezvous hash. Each shard owns a disjoint slice of
// the sessions with its own lock domain: live map, parked set, LRU
// eviction, degraded bookkeeping, labelpools, drain goroutines and
// stream wakeups never contend across shards. Session ids carry no
// shard marker; the hash of the id IS the routing, so a session is
// sticky to one shard for its whole life (including parked time).
type Shard interface {
	// ID is the shard's index in the manager's shard set.
	ID() int

	// Per-session operations, mirroring the Manager's routed API.
	Get(ctx context.Context, id string) (Info, error)
	Next(ctx context.Context, id string) ([]PairView, error)
	Submit(ctx context.Context, id string, round int, labeled []belief.Labeling) (Info, error)
	TopBelief(ctx context.Context, id string, k int) ([]HypothesisView, error)
	Repairs(ctx context.Context, id string, tau float64) ([]RepairView, error)
	Snapshot(ctx context.Context, id string) (string, error)
	Evict(ctx context.Context, id string) error
	Rounds(ctx context.Context, id string) ([]RoundView, error)
	StreamChunk(ctx context.Context, id string, from int) (StreamChunk, error)
	EnqueueSubmissions(ctx context.Context, id string, subs []Submission) ([]Ticket, error)
	Ticket(ctx context.Context, id, ticketID string) (Ticket, error)
	QueuedSubmissions(id string) int

	// Shard-wide operations the router fans out.
	List(ctx context.Context) ([]Info, error)
	Sweep(ctx context.Context) ([]string, error)
	Counts() (live, parked int)
	Health() ShardHealth
}

var _ Shard = (*shard)(nil)

// entry is one resident session. Its mutex serializes the session
// protocol; lastUsed is guarded by the owning shard's mutex (it is
// bumped during lookup, which already holds it).
type entry struct {
	mu       sync.Mutex
	id       string
	spec     Spec
	sess     *game.Session
	stats    *roundStats
	lastUsed time.Time
	// wal records per-round deltas for WAL-backed durability; nil when
	// the store takes no appends. Its take/restore/clear run under mu.
	wal *walRecorder
	// walBased marks that a base snapshot for this entry durably landed
	// in the store, so appended deltas alone restore the session (and a
	// successful append may heal the degraded mark); guarded by mu.
	walBased bool
	// gone marks the entry evicted or shut down. A goroutine that won
	// the entry lock after blocking must re-check it and retry the
	// lookup: the session now lives in the store, not here.
	gone bool
}

// shard is the concrete Shard: the state and mechanics that used to be
// the monolithic Manager, scoped to one partition.
//
// Lock order (unchanged from the monolith, now per shard): the shard
// mutex is only ever held for short map/metadata critical sections and
// never blocks on an entry lock (TryLock is allowed); entry locks may
// be held across session work and may take the shard mutex. That
// asymmetry is what makes per-session locking deadlock-free — and
// shard mutexes of different shards are never held together at all.
type shard struct {
	id int
	// opts is the shard's slice of the manager options: MaxSessions is
	// the per-shard resident bound (ceil of the manager bound over the
	// shard count); everything else is shared verbatim.
	opts  Options
	store persist.Store
	// appender is the store's round-append capability (nil when the
	// store is snapshot-only); when present, submits are made durable by
	// group-committed WAL appends instead of full snapshots.
	appender persist.RoundAppender
	// now is the clock; a test hook (set via Manager.setNow).
	now func() time.Time

	mu sync.Mutex
	// live holds resident sessions; guarded by mu.
	live map[string]*entry
	// parked maps evicted sessions to their spec (snapshot in store);
	// guarded by mu.
	parked map[string]Spec
	// draining rejects new work during Shutdown; guarded by mu.
	draining bool
	// degraded marks live session ids whose last checkpoint exhausted
	// retries; guarded by mu. Parking requires a successful checkpoint,
	// so a parked session is never degraded.
	degraded map[string]bool
	// storeFails counts store operations that exhausted the retry
	// policy; guarded by mu.
	storeFails uint64
	// storeErr is the most recent exhausted-retries store error, nil
	// once an operation succeeds again; guarded by mu.
	storeErr error
	// walAppended counts round deltas this shard durably appended
	// through the WAL; guarded by mu.
	walAppended uint64
	// rrng draws retry backoff jitter; guarded by mu. Seeded from
	// (RetrySeed, shard id) so a replica outage does not synchronize
	// backoff storms across shards.
	rrng *stats.RNG

	// poolMu guards pools: each session's labelpool, created on first
	// enqueue and keyed by session id, surviving park/unpark. Never
	// hold poolMu while taking mu or an entry or pool lock.
	poolMu sync.Mutex
	pools  map[string]*labelPool // guarded by poolMu
	// drainWG tracks in-flight labelpool drain goroutines so shutdown
	// can flush every queued submission before checkpointing.
	drainWG sync.WaitGroup

	// streamMu guards streams: per-session wakeup channels of attached
	// SSE streams. A leaf lock — safe to take under any other.
	streamMu sync.Mutex
	streams  map[string]map[chan struct{}]struct{} // guarded by streamMu
}

// newShard builds one shard. maxSessions is the per-shard resident
// bound; the jitter stream is seeded from (RetrySeed, id) so shards
// never share a backoff schedule.
func newShard(id int, opts Options, maxSessions int) *shard {
	opts.MaxSessions = maxSessions
	return &shard{
		id:       id,
		opts:     opts,
		store:    opts.Store,
		appender: persist.AppenderOf(opts.Store),
		now:      time.Now,
		live:     make(map[string]*entry),
		parked:   make(map[string]Spec),
		degraded: make(map[string]bool),
		rrng:     stats.NewRNG(jitterSeed(opts.RetrySeed, id)),
		pools:    make(map[string]*labelPool),
		streams:  make(map[string]map[chan struct{}]struct{}),
	}
}

// jitterSeed mixes the manager's RetrySeed with a shard id into that
// shard's backoff-jitter seed. A plain xor or add would leave nearby
// shards' streams correlated; the splitmix64 finalizer scatters them.
func jitterSeed(retrySeed uint64, shardID int) uint64 {
	h := retrySeed + uint64(shardID)*0x9E3779B97F4A7C15
	h ^= h >> 30
	h *= 0xBF58476D1CE4E5B9
	h ^= h >> 27
	h *= 0x94D049BB133111EB
	h ^= h >> 31
	if h == 0 {
		h = 1
	}
	return h
}

// ID implements Shard.
func (sh *shard) ID() int { return sh.id }

// setDraining flips the shard into drain mode (idempotent).
func (sh *shard) setDraining() {
	sh.mu.Lock()
	sh.draining = true
	sh.mu.Unlock()
}

// install registers a built entry, making room first if needed.
func (sh *shard) install(ctx context.Context, e *entry) error {
	for {
		sh.mu.Lock()
		if sh.draining {
			sh.mu.Unlock()
			return ErrShuttingDown
		}
		if len(sh.live) < sh.opts.MaxSessions {
			e.lastUsed = sh.now()
			sh.live[e.id] = e
			sh.mu.Unlock()
			return nil
		}
		victim := sh.victimLocked(nil)
		sh.mu.Unlock()
		if victim == nil {
			return ErrTooManySessions
		}
		if err := sh.evict(ctx, victim); err != nil {
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
// sh.mu; the returned entry is locked.
func (sh *shard) victimLocked(keep *entry) *entry {
	var candidates []*entry
	for _, e := range sh.live {
		if e != keep {
			candidates = append(candidates, e)
		}
	}
	sort.Slice(candidates, func(i, j int) bool {
		di, dj := sh.degraded[candidates[i].id], sh.degraded[candidates[j].id]
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
func (sh *shard) evict(ctx context.Context, e *entry) error {
	defer e.mu.Unlock()
	// An unsubmitted round is dropped: it carries no annotator evidence,
	// and the discard rewinds the sampler RNG and the pool, so the
	// snapshot resumes to re-present the same pairs.
	e.sess.DiscardPending()
	snap, err := e.sess.Snapshot()
	if err != nil {
		return err
	}
	if err := sh.storeRetry(ctx, "checkpointing "+e.id, func(ctx context.Context) error {
		return sh.store.Put(ctx, e.id, snap)
	}); err != nil {
		sh.setDegraded(e.id, true)
		return err
	}
	e.snapshotLandedLocked()
	e.gone = true
	sh.mu.Lock()
	delete(sh.live, e.id)
	delete(sh.degraded, e.id)
	sh.parked[e.id] = e.spec
	sh.mu.Unlock()
	return nil
}

// setDegraded flips a live session's degraded mark. Only live sessions
// carry the mark: parking requires the checkpoint to have succeeded.
func (sh *shard) setDegraded(id string, sick bool) {
	sh.mu.Lock()
	if sick {
		if _, ok := sh.live[id]; ok {
			sh.degraded[id] = true
		}
	} else {
		delete(sh.degraded, id)
	}
	sh.mu.Unlock()
}

// acquire returns the locked entry for id, transparently unparking an
// evicted session. The caller must unlock it. Lookup loops because an
// entry can be evicted between the map read and winning its lock.
func (sh *shard) acquire(ctx context.Context, id string) (*entry, error) {
	return sh.acquireOpt(ctx, id, false)
}

// acquireOpt is acquire with one extra caller: the labelpool drain,
// which must keep applying queued submissions while the shard drains
// (shutdown flushes the pools before checkpointing, so a submission
// accepted with a ticket is never silently dropped).
func (sh *shard) acquireOpt(ctx context.Context, id string, evenWhileDraining bool) (*entry, error) {
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		sh.mu.Lock()
		if sh.draining && !evenWhileDraining {
			sh.mu.Unlock()
			return nil, ErrShuttingDown
		}
		if e, ok := sh.live[id]; ok {
			e.lastUsed = sh.now()
			sh.mu.Unlock()
			e.mu.Lock()
			if e.gone {
				e.mu.Unlock()
				continue // evicted while we waited; retry (now parked)
			}
			return e, nil
		}
		spec, ok := sh.parked[id]
		if !ok {
			sh.mu.Unlock()
			return nil, fmt.Errorf("%w: %q", ErrSessionNotFound, id)
		}
		// Unpark: insert a locked placeholder so concurrent requests for
		// the same id queue on its lock instead of double-resuming, then
		// do the store read and replay without holding the shard lock.
		e := &entry{id: id, spec: spec, lastUsed: sh.now()}
		e.mu.Lock() //etlint:ignore lockorder freshly allocated placeholder locked before publication in sh.live; nothing else can hold it, so the entry→shard edge of the order can't close a cycle
		delete(sh.parked, id)
		sh.live[id] = e
		over := len(sh.live) > sh.opts.MaxSessions
		sh.mu.Unlock()

		if over {
			// Over capacity after insertion: make room. Failure rolls the
			// placeholder back to parked.
			if err := sh.makeRoomFor(ctx, e); err != nil {
				sh.unparkFailed(e)
				return nil, err
			}
		}
		var snap *persist.Snapshot
		err := sh.storeRetry(ctx, "loading snapshot "+id, func(ctx context.Context) error {
			var gerr error
			snap, gerr = sh.store.Get(ctx, id)
			return gerr
		})
		if err == nil {
			var wrec *walRecorder
			if sh.appender != nil {
				wrec = &walRecorder{id: id}
			}
			var sess *game.Session
			var rs *roundStats
			sess, rs, err = buildSession(spec, snap, wrec)
			if err == nil {
				e.sess = sess
				e.stats = rs
				e.wal = wrec
				// The snapshot we just resumed from IS the base snapshot.
				e.walBased = wrec != nil
				return e, nil
			}
		}
		sh.unparkFailed(e)
		return nil, fmt.Errorf("service: resuming parked session %q: %w", id, err)
	}
}

// makeRoomFor evicts LRU entries other than keep until the shard is
// within capacity. Caller holds keep's lock.
func (sh *shard) makeRoomFor(ctx context.Context, keep *entry) error {
	for {
		sh.mu.Lock()
		if len(sh.live) <= sh.opts.MaxSessions {
			sh.mu.Unlock()
			return nil
		}
		victim := sh.victimLocked(keep)
		sh.mu.Unlock()
		if victim == nil {
			return ErrTooManySessions
		}
		if err := sh.evict(ctx, victim); err != nil {
			return err
		}
	}
}

// unparkFailed rolls a placeholder back to parked after a failed
// resume; the snapshot is still in the store.
func (sh *shard) unparkFailed(e *entry) {
	e.gone = true
	sh.mu.Lock()
	delete(sh.live, e.id)
	sh.parked[e.id] = e.spec
	sh.mu.Unlock()
	e.mu.Unlock()
}

// infoOf renders a locked (or freshly built) entry.
func (sh *shard) infoOf(e *entry, parked bool) Info {
	sh.mu.Lock()
	degraded := sh.degraded[e.id]
	sh.mu.Unlock()
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

// Get implements Shard. A parked session is reported from its parked
// metadata without resuming it.
func (sh *shard) Get(ctx context.Context, id string) (Info, error) {
	if err := ctx.Err(); err != nil {
		return Info{}, err
	}
	sh.mu.Lock()
	if spec, ok := sh.parked[id]; ok {
		sh.mu.Unlock()
		return Info{ID: id, Method: spec.Method.Resolve(), K: spec.K, Parked: true}, nil
	}
	sh.mu.Unlock()
	e, err := sh.acquire(ctx, id)
	if err != nil {
		return Info{}, err
	}
	defer e.mu.Unlock()
	return sh.infoOf(e, false), nil
}

// List implements Shard: every session homed here, live and parked,
// ordered by id.
func (sh *shard) List(ctx context.Context) ([]Info, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	sh.mu.Lock()
	out := make([]Info, 0, len(sh.live)+len(sh.parked))
	for _, e := range sh.live {
		// Metadata only — reading counters without the entry lock would
		// race with in-flight rounds.
		out = append(out, Info{ID: e.id, Method: e.spec.Method.Resolve(), K: e.spec.K, Degraded: sh.degraded[e.id]})
	}
	for id, spec := range sh.parked {
		out = append(out, Info{ID: id, Method: spec.Method.Resolve(), K: spec.K, Parked: true})
	}
	sh.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out, nil
}

// Next implements Shard: presents the session's next round of pairs.
func (sh *shard) Next(ctx context.Context, id string) ([]PairView, error) {
	e, err := sh.acquire(ctx, id)
	if err != nil {
		return nil, err
	}
	defer e.mu.Unlock()
	pairs, err := e.sess.NextContext(ctx)
	if err != nil {
		return nil, err
	}
	sh.notifyStreams(id)
	return renderPairs(e.sess.Relation(), pairs), nil
}

// Submit implements Shard: consumes the pending round's annotations
// under the Manager's idempotency contract (see Manager.Submit).
func (sh *shard) Submit(ctx context.Context, id string, round int, labeled []belief.Labeling) (Info, error) {
	e, err := sh.acquire(ctx, id)
	if err != nil {
		return Info{}, err
	}
	defer e.mu.Unlock()
	if round != UncheckedRound {
		cur := e.sess.Rounds()
		switch {
		case round > cur:
			return Info{}, fmt.Errorf("%w: round %d is ahead of the current round %d", ErrRoundMismatch, round, cur)
		case round < cur:
			rec := e.sess.Records()[round]
			if labelsDigest(labeled, nil) == labelsDigest(rec.Labeled, rec.Revisions) {
				// Identical replay of an applied round: the first attempt's
				// response was lost; report success again, change nothing.
				return sh.infoOf(e, false), nil
			}
			return Info{}, fmt.Errorf("%w: round %d was already applied with different labels (current round %d)", ErrRoundMismatch, round, cur)
		}
	}
	if err := e.sess.SubmitContext(ctx, labeled); err != nil {
		return Info{}, err
	}
	// WAL-era durability: the submitted round's delta rides a group
	// commit before the submit acks. Failure degrades the session (the
	// round lives on in memory and in the recorder's backlog) rather
	// than failing a submit that already applied.
	_ = sh.flushWal(ctx, e)
	sh.notifyStreams(id)
	// A direct submit can fill the gap a parked labelpool drain stalled
	// on; give it another chance.
	if p := sh.peekPool(id); p != nil {
		sh.kickDrain(p)
	}
	return sh.infoOf(e, false), nil
}

// TopBelief implements Shard.
func (sh *shard) TopBelief(ctx context.Context, id string, k int) ([]HypothesisView, error) {
	e, err := sh.acquire(ctx, id)
	if err != nil {
		return nil, err
	}
	defer e.mu.Unlock()
	if k <= 0 {
		k = 10
	}
	b := e.sess.Belief()
	names := e.sess.Relation().Schema().Names()
	var out []HypothesisView
	for _, i := range b.TopK(k) {
		lo, hi := b.CredibleInterval(i, 0.9)
		out = append(out, HypothesisView{
			FD:         b.Space().FD(i).Render(names),
			Confidence: b.Confidence(i),
			CILow:      lo,
			CIHigh:     hi,
		})
	}
	return out, nil
}

// Repairs implements Shard.
func (sh *shard) Repairs(ctx context.Context, id string, tau float64) ([]RepairView, error) {
	e, err := sh.acquire(ctx, id)
	if err != nil {
		return nil, err
	}
	defer e.mu.Unlock()
	if tau <= 0 {
		tau = 0.5
	}
	b := e.sess.Belief()
	var believed []repair.BelievedFD
	for _, f := range b.BelievedFDs(tau) {
		i, ok := b.Space().Index(f)
		if !ok {
			continue
		}
		believed = append(believed, repair.BelievedFD{FD: f, Confidence: b.Confidence(i)})
	}
	rel := e.sess.Relation()
	suggestions, err := repair.Suggest(rel, believed, repair.Config{})
	if err != nil {
		return nil, err
	}
	names := rel.Schema().Names()
	out := make([]RepairView, len(suggestions))
	for i, s := range suggestions {
		out[i] = RepairView{
			Row:        s.Row,
			Attr:       names[s.Attr],
			Old:        s.Old,
			New:        s.New,
			Confidence: s.Confidence,
			Source:     s.Source.Render(names),
		}
	}
	return out, nil
}

// Snapshot implements Shard: checkpoints the session into the store
// under its own id and returns that id. The session stays live.
func (sh *shard) Snapshot(ctx context.Context, id string) (string, error) {
	e, err := sh.acquire(ctx, id)
	if err != nil {
		return "", err
	}
	defer e.mu.Unlock()
	snap, err := e.sess.Snapshot()
	if err != nil {
		return "", err
	}
	if err := sh.storeRetry(ctx, "checkpointing "+e.id, func(ctx context.Context) error {
		return sh.store.Put(ctx, e.id, snap)
	}); err != nil {
		sh.setDegraded(e.id, true)
		return "", err
	}
	// A successful explicit checkpoint heals a degraded session: its
	// state is durable again.
	e.snapshotLandedLocked()
	sh.setDegraded(e.id, false)
	return e.id, nil
}

// Evict implements Shard: checkpoints the session and parks it,
// freeing its memory. The next access transparently resumes it.
func (sh *shard) Evict(ctx context.Context, id string) error {
	e, err := sh.acquire(ctx, id)
	if err != nil {
		return err
	}
	return sh.evict(ctx, e) // releases the lock
}

// Rounds implements Shard: the session's per-round measurement series.
func (sh *shard) Rounds(ctx context.Context, id string) ([]RoundView, error) {
	e, err := sh.acquire(ctx, id)
	if err != nil {
		return nil, err
	}
	defer e.mu.Unlock()
	return append([]RoundView(nil), e.stats.rounds...), nil
}

// Sweep implements Shard: parks every session idle for at least the
// IdleTTL and returns the parked ids. A failed eviction leaves that
// session live and degraded but does not stop the sweep — the
// remaining idle sessions still get their chance to park, and a later
// sweep retries the degraded ones (their recovery path once the store
// heals). All failures are joined into the returned error.
func (sh *shard) Sweep(ctx context.Context) ([]string, error) {
	sh.mu.Lock()
	cutoff := sh.now().Add(-sh.opts.IdleTTL)
	var idle []*entry
	for _, e := range sh.live {
		if e.lastUsed.Before(cutoff) {
			idle = append(idle, e)
		}
	}
	sh.mu.Unlock()
	var swept []string
	var errs []error
	for _, e := range idle {
		if err := ctx.Err(); err != nil {
			errs = append(errs, err)
			break
		}
		if !e.mu.TryLock() {
			continue // mid-request: not idle after all
		}
		if e.gone {
			e.mu.Unlock()
			continue
		}
		sh.mu.Lock()
		still := sh.live[e.id] == e && !e.lastUsed.After(cutoff)
		sh.mu.Unlock()
		if !still {
			e.mu.Unlock()
			continue
		}
		if err := sh.evict(ctx, e); err != nil {
			errs = append(errs, err)
			continue
		}
		swept = append(swept, e.id)
	}
	sort.Strings(swept)
	return swept, errors.Join(errs...)
}

// Counts implements Shard.
func (sh *shard) Counts() (live, parked int) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return len(sh.live), len(sh.parked)
}

// shutdown drains this shard: flush the labelpools (queued submissions
// that earned a ticket are applied, not dropped), wait out the drain
// goroutines, then checkpoint every live session. The caller must have
// called setDraining first — the flag must be observable before the
// pools flush, or an enqueue racing shutdown could slip items in after
// its pool drained (see EnqueueSubmissions).
func (sh *shard) shutdown(ctx context.Context) error {
	// Flush the labelpools before checkpointing: drains run under
	// acquireOpt(evenWhileDraining), so every queued round lands in its
	// session before that session's snapshot is taken.
	sh.flushPools()
	sh.drainWG.Wait()

	sh.mu.Lock()
	entries := make([]*entry, 0, len(sh.live))
	for _, e := range sh.live {
		entries = append(entries, e)
	}
	sh.mu.Unlock()

	var errs []error
	for _, e := range entries {
		e.mu.Lock()
		if e.gone {
			e.mu.Unlock()
			continue
		}
		if err := sh.evict(ctx, e); err != nil { // releases the lock
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}
