package service

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"exptrain/internal/belief"
	"exptrain/internal/datagen"
	"exptrain/internal/dataset"
	"exptrain/internal/errgen"
	"exptrain/internal/fd"
	"exptrain/internal/game"
	"exptrain/internal/persist"
	"exptrain/internal/repair"
	"exptrain/internal/sampling"
	"exptrain/internal/stats"
)

// Source says where a session's relation comes from. Exactly one of
// CSV or Dataset must be set. The source is kept for the session's
// whole life: an evicted session's relation is rebuilt from it when the
// session is resumed (snapshots deliberately do not embed relations).
type Source struct {
	// Dataset is a synthetic paper dataset name ("OMDB", "AIRPORT",
	// "Hospital", "Tax"); Rows and Seed make the build deterministic.
	Dataset string
	Rows    int
	Seed    uint64
	// CSV is an uploaded relation (header row + records).
	CSV []byte
}

// materialize builds the relation and, for synthetic sources, also
// returns the generated dataset (its exact FDs are the evaluator's
// injection targets). ds is nil for CSV sources.
func (s Source) materialize() (rel *dataset.Relation, ds *datagen.Dataset, err error) {
	switch {
	case len(s.CSV) > 0 && s.Dataset != "":
		return nil, nil, fmt.Errorf("service: source has both CSV and dataset %q", s.Dataset)
	case len(s.CSV) > 0:
		rel, err = dataset.ReadCSV(bytes.NewReader(s.CSV))
		if err == nil && rel.Schema().Arity() > fd.MaxAttrs {
			return nil, nil, fmt.Errorf("service: CSV has %d columns; an attribute set holds at most %d", rel.Schema().Arity(), fd.MaxAttrs)
		}
		return rel, nil, err
	case s.Dataset != "":
		gen, err := datagen.ByName(s.Dataset)
		if err != nil {
			return nil, nil, err
		}
		rows := s.Rows
		if rows <= 0 {
			rows = 240
		}
		d := gen(rows, s.Seed)
		return d.Rel, d, nil
	default:
		return nil, nil, fmt.Errorf("service: source needs a dataset name or CSV data")
	}
}

// Spec configures one hosted session.
type Spec struct {
	Source Source
	// Method is the learner's response strategy (MethodDefault →
	// StochasticUS).
	Method sampling.Method
	// Gamma is the stochastic temperature (DefaultGamma when zero). A
	// negative or non-finite one fails creation with
	// sampling.ErrBadGamma, a bad_request.
	Gamma float64
	// K is pairs per round (game.Session default when zero).
	K int
	// MaxLHS bounds the enumerated hypothesis space (default 2).
	MaxLHS int
	// MaxFDs truncates the space (0 = no cap).
	MaxFDs int
	// Seed drives pool construction and stochastic selection.
	Seed uint64
	// Eval turns on per-round held-out detection scoring (§C.1's F1
	// series): errors are injected into the generated relation at the
	// given Degree against the dataset's exact FDs, 30% of the rows are
	// held out, and every submitted round scores the learner's believed
	// model on that split. Requires a synthetic Dataset source — a CSV
	// upload has no ground-truth FDs to injure or score against.
	Eval bool
	// Degree is the injected violation degree in (0, 1) when Eval is
	// set (default 0.1).
	Degree float64
}

// Info is a session's externally visible state.
type Info struct {
	ID        string          `json:"id"`
	Method    sampling.Method `json:"method"`
	K         int             `json:"k"`
	Rounds    int             `json:"rounds"`
	Pending   int             `json:"pending"`
	Remaining int             `json:"remaining"`
	Parked    bool            `json:"parked"`
	// Degraded marks a live session whose last checkpoint exhausted the
	// store retry policy: its state exists only in memory until a later
	// checkpoint succeeds. Degraded sessions keep serving rounds and are
	// skipped by eviction while any healthy victim exists.
	Degraded bool `json:"degraded,omitempty"`
	Rows     int  `json:"rows"`
	Space    int  `json:"space"`
}

// PairView is one presented pair with its rendered tuples, so a client
// needs no separate data fetch to show the annotator the rows.
type PairView struct {
	A      int      `json:"a"`
	B      int      `json:"b"`
	ATuple []string `json:"a_tuple"`
	BTuple []string `json:"b_tuple"`
}

// HypothesisView is one FD of the learner's belief, rendered.
type HypothesisView struct {
	FD         string  `json:"fd"`
	Confidence float64 `json:"confidence"`
	CILow      float64 `json:"ci_low"`
	CIHigh     float64 `json:"ci_high"`
}

// RepairView is one suggested cell repair, rendered.
type RepairView struct {
	Row        int     `json:"row"`
	Attr       string  `json:"attr"`
	Old        string  `json:"old"`
	New        string  `json:"new"`
	Confidence float64 `json:"confidence"`
	Source     string  `json:"source"`
}

// Options tunes the manager.
type Options struct {
	// MaxSessions bounds resident sessions (default 128). At the bound,
	// creating or unparking first tries to evict the least-recently-used
	// idle session; if none is evictable the request fails with
	// ErrTooManySessions.
	MaxSessions int
	// IdleTTL parks sessions idle at least this long on each Sweep
	// (default 15 minutes).
	IdleTTL time.Duration
	// Store receives the sessions' checkpoints (default: a fresh
	// in-memory store). When it takes round appends (persist.AppenderOf:
	// a wal.Store, or a MultiStore or faulty wrapper over them), a
	// session lands a base snapshot when it is created or resumed and
	// every later submit acks only after its round is appended on top of
	// it. Otherwise (MemStore) sessions are checkpointed only on park,
	// explicit snapshot and shutdown. Wrap it in a persist.MultiStore to
	// replicate across backing stores.
	Store persist.Store
	// Retry bounds retries of store operations (zero value → defaults:
	// 4 attempts, 5ms base backoff, 250ms cap).
	Retry RetryPolicy
	// RetrySeed seeds the backoff jitter stream (default 1), so retry
	// schedules are reproducible in fault-injection tests.
	RetrySeed uint64
	// MaxQueuedSubmissions bounds each session's labelpool queue
	// (default 64): the rounds one enqueue may carry plus those waiting
	// behind a gap, and so the most one request applies besides its own
	// round. A batch larger than the bound fails with ErrBadRequest; one
	// that overflows it beside the queued rounds fails with
	// ErrSubmissionBacklog (HTTP 429 + Retry-After).
	MaxQueuedSubmissions int
}

func (o Options) withDefaults() Options {
	if o.MaxSessions <= 0 {
		o.MaxSessions = 128
	}
	if o.IdleTTL <= 0 {
		o.IdleTTL = 15 * time.Minute
	}
	if o.Store == nil {
		o.Store = persist.NewMemStore()
	}
	o.Retry = o.Retry.withDefaults()
	if o.RetrySeed == 0 {
		o.RetrySeed = 1
	}
	if o.MaxQueuedSubmissions <= 0 {
		o.MaxQueuedSubmissions = 64
	}
	return o
}

// Manager hosts the sessions: it mints their ids, keeps at most
// MaxSessions of them resident, parks the rest in the store and
// transparently resumes them on their next request. All methods are
// safe for concurrent use.
//
// Lock order: the manager mutex is only ever held for short
// map/metadata critical sections and never blocks on an entry lock
// (TryLock is allowed); entry locks may be held across session work
// and may take the manager mutex. That asymmetry is what makes
// per-session locking deadlock-free. poolMu and streamMu sit above mu
// (DESIGN §6).
type Manager struct {
	opts  Options
	store persist.Store
	// appender is the store's round-append capability (nil over a store
	// without one, such as MemStore); when present, submits are made
	// durable by group-committed WAL appends on top of a base snapshot.
	appender persist.RoundAppender
	// now is the clock; a test hook (set via setNow).
	now func() time.Time

	mu sync.Mutex
	// seq numbers sessions; guarded by mu. Once seeded is set it is
	// past every sess-N id the store held before the first mint.
	seq    uint64
	seeded bool
	// live holds resident sessions; guarded by mu.
	live map[string]*entry
	// parked maps evicted sessions to their spec and round count
	// (snapshot in store); guarded by mu.
	parked map[string]parkedSession
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
	// walAppended counts round deltas durably appended through the WAL;
	// guarded by mu.
	walAppended uint64
	// rrng draws retry backoff jitter; guarded by mu.
	rrng *stats.RNG

	// poolMu guards pools: each session's labelpool, created on first
	// enqueue and keyed by session id, surviving park/unpark. Never
	// hold poolMu while taking mu or an entry or pool lock.
	poolMu sync.Mutex
	pools  map[string]*labelPool // guarded by poolMu

	// streamMu guards streams: per-session wakeup channels of attached
	// SSE streams. A leaf lock — safe to take under any other.
	streamMu sync.Mutex
	streams  map[string]map[chan struct{}]struct{} // guarded by streamMu

	// drainSignal is closed when Shutdown begins, so streams close
	// promptly instead of waiting out a heartbeat.
	drainSignal chan struct{}
}

// NewManager builds a manager.
func NewManager(opts Options) *Manager {
	opts = opts.withDefaults()
	return &Manager{
		opts:        opts,
		store:       opts.Store,
		appender:    persist.AppenderOf(opts.Store),
		now:         time.Now,
		live:        make(map[string]*entry),
		parked:      make(map[string]parkedSession),
		degraded:    make(map[string]bool),
		rrng:        stats.NewRNG(opts.RetrySeed),
		pools:       make(map[string]*labelPool),
		streams:     make(map[string]map[chan struct{}]struct{}),
		drainSignal: make(chan struct{}),
	}
}

// buildSession constructs the game.Session for a spec, optionally
// resuming from a snapshot. When wrec is non-nil it is installed as the
// session's observer, so every scored round also yields a WAL delta.
// Everything is deterministic in the spec (injection, split and pool
// all derive from spec.Seed), so an evicted session unparks onto an
// identical world.
func buildSession(spec Spec, snap *persist.Snapshot, wrec *walRecorder) (*game.Session, error) {
	rel, ds, err := spec.Source.materialize()
	if err != nil {
		return nil, err
	}
	sampler, err := sampling.New(spec.Method, spec.Gamma)
	if err != nil {
		return nil, err
	}
	cfg := game.SessionConfig{
		Relation: rel,
		Sampler:  sampler,
		K:        spec.K,
		Seed:     spec.Seed,
	}
	if wrec != nil {
		wrec.eval = spec.Eval
		cfg.Observer = wrec
	}
	if spec.Eval {
		if ds == nil {
			return nil, fmt.Errorf("service: eval needs a synthetic dataset source (no ground-truth FDs for CSV data)")
		}
		degree := spec.Degree
		if degree == 0 {
			degree = 0.1
		}
		injected, err := errgen.InjectDegree(rel, errgen.DegreeConfig{
			FDs:        ds.ExactFDs,
			Degree:     degree,
			MaxChanges: rel.NumRows() / 3,
			Seed:       spec.Seed ^ 0xE44,
		})
		if err != nil {
			return nil, err
		}
		rel = injected.Rel
		cfg.Relation = rel
		// 30% held-out test split, as in the paper's evaluation.
		rng := stats.NewRNG(spec.Seed ^ 0x9A3E)
		_, testRows := rel.Split(rng.Split(), 0.7)
		dirty := make(map[int]struct{})
		for newIdx, orig := range testRows {
			if _, bad := injected.DirtyRows[orig]; bad {
				dirty[newIdx] = struct{}{}
			}
		}
		cfg.Eval = &game.Evaluator{TestRel: rel.Subset(testRows), DirtyRows: dirty}
	}
	if snap != nil {
		sess, err := game.ResumeSession(snap, cfg)
		if err != nil {
			return nil, err
		}
		if wrec != nil {
			wrec.bind(sess)
		}
		return sess, nil
	}
	maxLHS := spec.MaxLHS
	if maxLHS <= 0 {
		maxLHS = 2
	}
	fds, err := fd.Enumerate(fd.SpaceConfig{
		Arity:  rel.Schema().Arity(),
		MaxLHS: maxLHS,
		MaxFDs: spec.MaxFDs,
	})
	if err != nil {
		return nil, err
	}
	space, err := fd.NewSpace(fds)
	if err != nil {
		return nil, err
	}
	cfg.Space = space
	sess, err := game.NewSession(cfg)
	if err != nil {
		return nil, err
	}
	if wrec != nil {
		wrec.bind(sess)
	}
	return sess, nil
}

// mintID draws the next session id, or ErrShuttingDown while draining.
// Before the first mint it lists the store, under the retry policy, and
// starts the sequence past every sess-N id there: a new session never
// takes a stored session's id, so its base snapshot cannot overwrite
// that session's, nor its appends sit below that session's watermark.
// Creates racing the first mint may each list; the sequence keeps the
// highest id any listing saw.
func (m *Manager) mintID(ctx context.Context) (string, error) {
	m.mu.Lock()
	seeded := m.seeded
	m.mu.Unlock()
	var ids []string
	if !seeded {
		if err := m.storeRetry(ctx, "listing stored sessions", func(ctx context.Context) (err error) {
			ids, err = m.store.List(ctx)
			return err
		}); err != nil {
			return "", err
		}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.draining {
		return "", ErrShuttingDown
	}
	for _, id := range ids {
		if n, err := strconv.ParseUint(strings.TrimPrefix(id, "sess-"), 10, 64); err == nil && n > m.seq {
			m.seq = n
		}
	}
	m.seeded = true
	m.seq++
	return fmt.Sprintf("sess-%d", m.seq), nil
}

// Create builds and registers a new session, evicting an idle session
// if the manager is full. The returned Info carries the new id.
func (m *Manager) Create(ctx context.Context, spec Spec) (Info, error) {
	if err := ctx.Err(); err != nil {
		return Info{}, err
	}
	return m.register(ctx, spec, nil)
}

// Resume registers a new session restored from a snapshot of another
// one: a session this manager hosts, or one saved in the store (for
// example by a prior process before shutdown). The snapshot's history
// is replayed against a relation rebuilt from spec.Source, which must
// describe the same data. The new session gets a new id.
//
// A source this manager hosts live is forked from the live session
// itself, under its entry lock: the snapshot holds every round it
// submitted, and a pending round is presented again by the fork. Any
// other source is read from the store, a parked one under a hold that
// makes unparking it wait (holdSource): a replicated store's read can
// Put the winning copy onto a stale replica, and the hold is what keeps
// that write from overlapping the session's own checkpoints.
func (m *Manager) Resume(ctx context.Context, snapshotID string, spec Spec) (Info, error) {
	if err := ctx.Err(); err != nil {
		return Info{}, err
	}
	snap, err := m.loadSource(ctx, snapshotID)
	if err != nil {
		return Info{}, err
	}
	return m.register(ctx, spec, snap)
}

// loadSource returns a resume's source snapshot: a live source's own,
// taken under its entry lock, or else the store's, read while a parked
// source is held.
func (m *Manager) loadSource(ctx context.Context, id string) (*persist.Snapshot, error) {
	e, release, err := m.holdSource(ctx, id)
	if err != nil {
		return nil, err
	}
	defer release()
	if e != nil {
		return e.sess.Snapshot()
	}
	var snap *persist.Snapshot
	err = m.storeRetry(ctx, "loading snapshot "+id, func(ctx context.Context) (err error) {
		snap, err = m.store.Get(ctx, id)
		return err
	})
	return snap, err
}

// holdSource holds session id for a resume's read of its snapshot and
// returns the release. A live session is returned locked, its entry
// lock the hold. A parked one stays parked — its session is not built
// and nothing is evicted for it — and is held by its parked record's
// hold: unparking it, or holding it again, waits until the release. An
// id this manager does not host needs no hold.
func (m *Manager) holdSource(ctx context.Context, id string) (live *entry, release func(), err error) {
	for {
		m.mu.Lock()
		e, isLive := m.live[id]
		p, parked := m.parked[id]
		switch {
		case isLive:
			m.mu.Unlock()
			e.mu.Lock()
			if !e.gone {
				return e, e.mu.Unlock, nil
			}
			e.mu.Unlock() // parked while we waited: hold it parked
		case parked && p.held != nil:
			m.mu.Unlock()
			if err := waitHeld(ctx, p.held); err != nil {
				return nil, nil, err
			}
		case parked:
			done := make(chan struct{})
			p.held = done
			m.parked[id] = p
			m.mu.Unlock()
			return nil, func() {
				m.mu.Lock()
				p := m.parked[id] // a held session is never unparked
				p.held = nil
				m.parked[id] = p
				m.mu.Unlock()
				close(done)
			}, nil
		default:
			m.mu.Unlock()
			return nil, func() {}, nil
		}
	}
}

// waitHeld waits for a parked session's hold to be released.
func waitHeld(ctx context.Context, held chan struct{}) error {
	select {
	case <-held:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// register builds a session (resumed from snap when it is non-nil)
// under a freshly minted id and installs it. Over a store that takes
// round appends, the first flush then lands the session's base snapshot
// under its own id — a resumed session's snapshot lives under the old
// id — so every later round needs only an append. A failed base
// snapshot degrades the session but does not fail the registration; its
// rounds wait in memory until a checkpoint lands.
func (m *Manager) register(ctx context.Context, spec Spec, snap *persist.Snapshot) (Info, error) {
	var wrec *walRecorder
	if m.appender != nil {
		wrec = &walRecorder{}
	}
	sess, err := buildSession(spec, snap, wrec)
	if err != nil {
		return Info{}, err
	}
	id, err := m.mintID(ctx)
	if err != nil {
		return Info{}, err
	}
	if wrec != nil {
		wrec.id = id // before any round flows; deltas are immutable after recording
	}
	e := &entry{id: id, spec: spec, sess: sess, wal: wrec}
	if err := m.install(ctx, e); err != nil {
		return Info{}, err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.gone { // a capacity eviction may have parked it already, base and all
		_ = m.flushWal(ctx, e)
	}
	return m.infoOf(e, false), nil
}

// Get returns a session's state. A parked session is reported from its
// parked metadata without resuming it: its id, method, k and round
// count.
func (m *Manager) Get(ctx context.Context, id string) (Info, error) {
	if err := ctx.Err(); err != nil {
		return Info{}, err
	}
	m.mu.Lock()
	if p, ok := m.parked[id]; ok {
		m.mu.Unlock()
		return Info{ID: id, Method: p.spec.Method.Resolve(), K: p.spec.K, Rounds: p.rounds, Parked: true}, nil
	}
	m.mu.Unlock()
	e, err := m.acquire(ctx, id)
	if err != nil {
		return Info{}, err
	}
	defer e.mu.Unlock()
	return m.infoOf(e, false), nil
}

// List reports every session, live and parked, ordered by id.
func (m *Manager) List(ctx context.Context) ([]Info, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	m.mu.Lock()
	out := make([]Info, 0, len(m.live)+len(m.parked))
	for _, e := range m.live {
		// Metadata only — reading counters without the entry lock would
		// race with in-flight rounds.
		out = append(out, Info{ID: e.id, Method: e.spec.Method.Resolve(), K: e.spec.K, Degraded: m.degraded[e.id]})
	}
	for id, p := range m.parked {
		out = append(out, Info{ID: id, Method: p.spec.Method.Resolve(), K: p.spec.K, Parked: true})
	}
	m.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out, nil
}

// renderPairs materializes pair views with both tuples, so a client
// needs no separate data fetch to show the annotator the rows.
func renderPairs(rel *dataset.Relation, pairs []dataset.Pair) []PairView {
	out := make([]PairView, len(pairs))
	for i, p := range pairs {
		out[i] = PairView{
			A: p.A, B: p.B,
			ATuple: rel.Row(p.A),
			BTuple: rel.Row(p.B),
		}
	}
	return out
}

// Next presents the session's next round of pairs.
func (m *Manager) Next(ctx context.Context, id string) ([]PairView, error) {
	e, err := m.acquire(ctx, id)
	if err != nil {
		return nil, err
	}
	defer e.mu.Unlock()
	pairs, err := e.sess.NextContext(ctx)
	if err != nil {
		return nil, err
	}
	m.notifyStreams(id)
	return renderPairs(e.sess.Relation(), pairs), nil
}

// labelsDigest fingerprints the evidence a set of labelings carries:
// the non-abstained (pair, marked) assertions, order-independent.
// Abstentions are excluded because they carry no evidence — a replayed
// request that spells out its abstentions and one that omits them are
// the same submission. Two slices are accepted so a recorded round's
// labels and revisions digest together without concatenating.
func labelsDigest(a, b []belief.Labeling) uint64 {
	type mark struct {
		a, b   int
		marked uint64
	}
	marks := make([]mark, 0, len(a)+len(b))
	for _, ls := range [2][]belief.Labeling{a, b} {
		for _, l := range ls {
			if l.Abstained {
				continue
			}
			marks = append(marks, mark{l.Pair.A, l.Pair.B, uint64(l.Marked)})
		}
	}
	sort.Slice(marks, func(i, j int) bool {
		if marks[i].a != marks[j].a {
			return marks[i].a < marks[j].a
		}
		if marks[i].b != marks[j].b {
			return marks[i].b < marks[j].b
		}
		return marks[i].marked < marks[j].marked
	})
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= prime64
			v >>= 8
		}
	}
	mix(uint64(len(marks)))
	for _, mk := range marks {
		mix(uint64(mk.a))
		mix(uint64(mk.b))
		mix(mk.marked)
	}
	return h
}

// replayErr checks a submission for an already-applied round against
// what that round recorded: nil for an identical evidence replay — the
// first attempt's answer was lost, so the replay succeeds without
// re-applying — and ErrRoundMismatch otherwise. Caller holds e.mu, and
// round is below the session's current round.
func replayErr(e *entry, round int, labeled []belief.Labeling) error {
	rec := e.sess.Record(round)
	if labelsDigest(labeled, nil) == labelsDigest(rec.Labeled, rec.Revisions) {
		return nil
	}
	return fmt.Errorf("%w: round %d was already applied with different labels (current round %d)",
		ErrRoundMismatch, round, e.sess.Rounds())
}

// Submit consumes the pending round's annotations. round makes the
// call idempotent: it must equal the session's current round index; a
// request naming an already-applied round succeeds without re-applying
// when its labels are an identical evidence replay of that round, and
// fails with ErrRoundMismatch otherwise — the contract that makes a
// retrying client safe. A negative round fails with ErrBadRequest.
// Submit answers only after applyQueued's append of the round
// returned, and a round that completes a queued labelpool run applies
// that run too.
func (m *Manager) Submit(ctx context.Context, id string, round int, labeled []belief.Labeling) (Info, error) {
	if err := checkRound(round); err != nil {
		return Info{}, err
	}
	e, err := m.acquire(ctx, id)
	if err != nil {
		return Info{}, err
	}
	defer e.mu.Unlock()
	switch cur := e.sess.Rounds(); {
	case round > cur:
		return Info{}, fmt.Errorf("%w: round %d is ahead of the current round %d", ErrRoundMismatch, round, cur)
	case round < cur:
		if err := replayErr(e, round, labeled); err != nil {
			return Info{}, err
		}
	default:
		if err := e.sess.SubmitContext(ctx, labeled); err != nil {
			return Info{}, err
		}
	}
	m.applyQueued(ctx, e)
	return m.infoOf(e, false), nil
}

// TopBelief returns the learner's k leading hypotheses with 90%
// credible intervals.
func (m *Manager) TopBelief(ctx context.Context, id string, k int) ([]HypothesisView, error) {
	e, err := m.acquire(ctx, id)
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

// Repairs derives minority-to-plurality cell repairs from the FDs the
// learner currently believes at confidence at least tau (default 0.5).
func (m *Manager) Repairs(ctx context.Context, id string, tau float64) ([]RepairView, error) {
	e, err := m.acquire(ctx, id)
	if err != nil {
		return nil, err
	}
	defer e.mu.Unlock()
	if tau <= 0 {
		tau = 0.5
	}
	b := e.sess.Belief()
	var believed []repair.BelievedFD
	for i := 0; i < b.Space().Size(); i++ {
		if c := b.Confidence(i); c >= tau {
			believed = append(believed, repair.BelievedFD{FD: b.Space().FD(i), Confidence: c})
		}
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

// Snapshot checkpoints the session into the store under its own id and
// returns that id. The session stays live, a pending round included;
// the checkpoint holds the rounds submitted so far.
func (m *Manager) Snapshot(ctx context.Context, id string) (string, error) {
	e, err := m.acquire(ctx, id)
	if err != nil {
		return "", err
	}
	defer e.mu.Unlock()
	if err := m.checkpointLocked(ctx, e); err != nil {
		return "", err
	}
	return e.id, nil
}

// Evict checkpoints the session and parks it, freeing its memory. The
// next access transparently resumes it from the store.
func (m *Manager) Evict(ctx context.Context, id string) error {
	e, err := m.acquire(ctx, id)
	if err != nil {
		return err
	}
	return m.evict(ctx, e) // releases the lock
}

// Rounds returns the session's per-round measurement series, one entry
// per submitted round in order — empty, not nil, before the first
// round. Sessions created with eval include the held-out detection
// score per round.
func (m *Manager) Rounds(ctx context.Context, id string) ([]RoundView, error) {
	e, err := m.acquire(ctx, id)
	if err != nil {
		return nil, err
	}
	defer e.mu.Unlock()
	if views := renderRounds(e, 0); views != nil {
		return views, nil
	}
	return []RoundView{}, nil
}

// Sweep parks every session idle for at least the manager's IdleTTL and
// returns the parked ids, sorted. Call it periodically (cmd/etserve
// runs it on a ticker) or directly in tests. Sessions park one at a
// time, each locked only when the sweep reaches it, so a request that
// gets there first bumps the session's lastUsed and the sweep skips it.
// A failed eviction leaves that session live and degraded but does not
// stop the sweep — the remaining idle sessions still get their chance
// to park, and a later sweep retries the degraded ones (their recovery
// path once the store heals). A cancelled ctx stops the sweep before
// its next eviction. All failures are joined into the returned error.
func (m *Manager) Sweep(ctx context.Context) ([]string, error) {
	m.mu.Lock()
	cutoff := m.now().Add(-m.opts.IdleTTL)
	var idle []*entry
	for _, e := range m.live {
		if e.lastUsed.Before(cutoff) {
			idle = append(idle, e)
		}
	}
	m.mu.Unlock()
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
		m.mu.Lock()
		still := !e.gone && m.live[e.id] == e && !e.lastUsed.After(cutoff)
		m.mu.Unlock()
		if !still {
			e.mu.Unlock()
			continue
		}
		if err := m.evict(ctx, e); err != nil { // releases the lock
			errs = append(errs, err)
			continue
		}
		swept = append(swept, e.id)
	}
	sort.Strings(swept)
	return swept, errors.Join(errs...)
}

// Shutdown drains the manager: new requests fail with ErrShuttingDown,
// and every live session is checkpointed into the store, one at a time,
// each waiting out its own in-flight request (an enqueue included), so
// once Shutdown returns no applied round is lost. One
// session's checkpoint failure does not abandon the rest — every
// session gets its full retry budget and all failures are joined into
// the returned error; sessions whose checkpoint failed stay resident
// and degraded, so a caller can fix the store and call Shutdown again.
// Safe to call more than once.
func (m *Manager) Shutdown(ctx context.Context) error {
	m.mu.Lock()
	first := !m.draining
	m.draining = true
	entries := make([]*entry, 0, len(m.live))
	for _, e := range m.live {
		entries = append(entries, e)
	}
	m.mu.Unlock()
	if first {
		close(m.drainSignal) // wake attached streams so they close promptly
	}
	var errs []error
	for _, e := range entries {
		e.mu.Lock()
		if e.gone {
			e.mu.Unlock()
			continue
		}
		if err := m.evict(ctx, e); err != nil { // releases the lock
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}
