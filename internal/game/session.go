package game

import (
	"context"
	"fmt"

	"exptrain/internal/agents"
	"exptrain/internal/belief"
	"exptrain/internal/dataset"
	"exptrain/internal/fd"
	"exptrain/internal/persist"
	"exptrain/internal/sampling"
	"exptrain/internal/stats"
)

// Session is the step-wise form of the training game for callers that
// own the annotator side — an interactive UI, a crowdsourcing bridge, a
// remote labeling service. Run drives both agents in a loop; a Session
// instead alternates explicit Next (present fresh pairs) and Submit
// (consume the annotations) calls, and can checkpoint/resume through
// internal/persist.
//
// Both forms execute the same round engine, so a Session round carries
// the full per-round protocol: label incorporation, revision reversal
// for corrected earlier labels, action-frequency recording, MAE and
// trainer-payoff measurement against the reference belief, optional
// held-out detection scoring, and observer events.
type Session struct {
	rel     *dataset.Relation
	space   *fd.Space
	eng     *roundEngine
	pool    *sampling.Pool
	k       int
	pending []dataset.Pair
	// pendingRNG is the learner's RNG position before the pending round
	// was drawn; Snapshot captures it while a round is pending.
	pendingRNG [4]uint64
	// allowed and seen are Submit's validation scratch, cleared and
	// reused every round so steady-state submission allocates nothing
	// for bookkeeping (the fresh/full labeling slices stay freshly
	// allocated — they are retained in the engine's records).
	allowed map[dataset.Pair]struct{}
	seen    map[dataset.Pair]struct{}
}

// SessionConfig assembles a step-wise session.
type SessionConfig struct {
	// Relation is the data under annotation (required).
	Relation *dataset.Relation
	// Space is the FD hypothesis space (required).
	Space *fd.Space
	// Prior is the learner's starting belief; defaults to the
	// data-estimate prior with σ = 0.12.
	Prior *belief.Belief
	// Sampler is the response strategy; defaults to StochasticUS.
	Sampler sampling.Sampler
	// K is the number of pairs per round (default 10).
	K int
	// Seed drives pool construction and stochastic selection.
	Seed uint64
	// Eval, when non-nil, scores the learner's believed model on a
	// held-out split after every submitted round (the per-round
	// Detection in Records).
	Eval *Evaluator
	// BelievedTau is the confidence threshold for exporting FDs to the
	// evaluator. A zero BelievedTau with BelievedTauSet false defaults
	// to 0.5; set BelievedTauSet to make an explicit 0 expressible.
	BelievedTau    float64
	BelievedTauSet bool
	// MaxBelievedStd caps the posterior standard deviation of exported
	// FDs (default 0.1; negative disables the filter).
	MaxBelievedStd float64
	// Reference is the annotator-side belief the per-round MAE and
	// TrainerPayoff are measured against. A live annotator's true
	// belief is unobservable, so the default is the data-estimate
	// belief — the belief a fully informed annotator would hold — which
	// makes the MAE series a convergence proxy and the payoff series a
	// label-consistency signal.
	Reference *belief.Belief
	// Observer receives the engine's structured per-round events
	// (default: no-op). Calls are serialized per session.
	Observer Observer
}

// NewSession validates the configuration and builds the session.
func NewSession(cfg SessionConfig) (*Session, error) {
	if cfg.Relation == nil {
		return nil, fmt.Errorf("game: SessionConfig.Relation is required")
	}
	if cfg.Space == nil {
		return nil, fmt.Errorf("game: SessionConfig.Space is required")
	}
	prior := cfg.Prior
	if prior == nil {
		prior = belief.DataEstimatePrior(cfg.Space, cfg.Relation, 0.12)
	}
	if prior.Size() != cfg.Space.Size() {
		return nil, fmt.Errorf("game: prior covers %d hypotheses, space has %d", prior.Size(), cfg.Space.Size())
	}
	sampler := cfg.Sampler
	if sampler == nil {
		sampler = sampling.StochasticUS{}
	}
	k := cfg.K
	if k <= 0 {
		k = 10
	}
	reference := cfg.Reference
	if reference == nil {
		if cfg.Prior == nil {
			// The default prior is already the data estimate; clone it
			// so the learner's updates do not move the reference.
			reference = prior.Clone()
		} else {
			reference = belief.DataEstimatePrior(cfg.Space, cfg.Relation, 0.12)
		}
	}
	if reference.Size() != cfg.Space.Size() {
		return nil, fmt.Errorf("game: reference covers %d hypotheses, space has %d", reference.Size(), cfg.Space.Size())
	}
	tau := cfg.BelievedTau
	if tau == 0 && !cfg.BelievedTauSet { //etlint:ignore floatcmp zero value means unset; BelievedTauSet disambiguates a literal 0
		tau = 0.5
	}
	maxStd := cfg.MaxBelievedStd
	if maxStd == 0 { //etlint:ignore floatcmp zero value means unset; callers assign literals
		maxStd = 0.1
	}
	rng := stats.NewRNG(cfg.Seed ^ 0x5E5510)
	learner := agents.NewLearner(prior, sampler, rng.Split())
	return &Session{
		rel:   cfg.Relation,
		space: cfg.Space,
		pool:  sampling.NewPool(cfg.Relation, cfg.Space, sampling.PoolConfig{Seed: cfg.Seed ^ 0x9001}),
		k:     k,
		eng: newRoundEngine(engineConfig{
			rel:             cfg.Relation,
			learner:         learner,
			annotatorBelief: func() *belief.Belief { return reference },
			eval:            cfg.Eval,
			believedTau:     tau,
			maxBelievedStd:  maxStd,
			obs:             cfg.Observer,
		}),
	}, nil
}

// Next selects the round's fresh pairs. It returns an error wrapping
// ErrPoolExhausted when the pool has no fresh pairs left, and one
// wrapping ErrRoundPending if the previous round was never submitted
// (the protocol is strictly alternating).
func (s *Session) Next() ([]dataset.Pair, error) {
	return s.NextContext(context.Background())
}

// NextContext is Next with cancellation: a done context aborts before
// any pool state changes.
func (s *Session) NextContext(ctx context.Context) ([]dataset.Pair, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if s.pending != nil {
		return nil, fmt.Errorf("%w; submit it before calling Next", ErrRoundPending)
	}
	if s.pool.RemainingCount() == 0 {
		return nil, fmt.Errorf("%w after %d rounds", ErrPoolExhausted, s.Rounds())
	}
	t := s.eng.round()
	s.eng.obs.RoundStarted(t)
	s.pendingRNG = s.eng.learner.RNGState()
	presented := s.eng.learner.Present(s.pool.Candidates(), s.k)
	s.pool.MarkShown(presented)
	s.pending = presented
	s.eng.obs.PairsPresented(t, presented)
	return presented, nil
}

// Submit consumes the annotations for the pending round. Every labeling
// must reference either a pending pair or a pair labeled in an earlier
// round: the latter are treated as revisions (the annotator correcting
// an earlier judgment, Yan et al. 2016) and routed through the
// learner's exact evidence-reversal path. Pending pairs missing from
// the batch are treated as abstained (no evidence). Submitting with no
// round pending returns an error wrapping ErrNoRoundPending.
func (s *Session) Submit(labeled []belief.Labeling) error {
	return s.SubmitContext(context.Background(), labeled)
}

// SubmitContext is Submit with cancellation: a done context aborts
// before the learner's belief is touched, leaving the round pending.
func (s *Session) SubmitContext(ctx context.Context, labeled []belief.Labeling) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if s.pending == nil {
		return fmt.Errorf("%w; call Next first", ErrNoRoundPending)
	}
	if s.allowed == nil {
		s.allowed = make(map[dataset.Pair]struct{}, len(s.pending))
		s.seen = make(map[dataset.Pair]struct{}, len(labeled))
	} else {
		clear(s.allowed)
		clear(s.seen)
	}
	allowed, seen := s.allowed, s.seen
	for _, p := range s.pending {
		allowed[p] = struct{}{}
	}
	var fresh, revisions []belief.Labeling
	dup := -1
	for i, lp := range labeled {
		if _, ok := seen[lp.Pair]; ok {
			dup = i
			break
		}
		seen[lp.Pair] = struct{}{}
		if _, ok := allowed[lp.Pair]; ok {
			fresh = append(fresh, lp)
		} else {
			revisions = append(revisions, lp)
		}
	}
	// Every labeling before the first duplicate that is not pending must
	// revise a pair an earlier round labeled; the first that does not
	// comes before the duplicate, so it is the error. A pending pair is
	// never in an earlier record, so the round's own labelings cannot
	// hold a revision's previous labeling.
	prev := s.eng.previous(nil, revisions)
	for i, p := range prev {
		if p == nil {
			return fmt.Errorf("game: labeling for pair %v which was neither presented this round nor labeled before", revisions[i].Pair)
		}
	}
	if dup >= 0 {
		return fmt.Errorf("game: duplicate labeling for pair %v", labeled[dup].Pair)
	}
	full := fresh
	for _, p := range s.pending {
		if _, ok := seen[p]; !ok {
			full = append(full, belief.Labeling{Pair: p, Abstained: true})
		}
	}
	s.finishRound(full, revisions, prev)
	return nil
}

// SubmitBatch plays a run of consecutive queued rounds in one call: for
// each element it presents the next round's pairs (unless a round is
// already pending, which the first element then submits against) and
// submits the element's labelings through the same validation and
// engine step as Submit. It is the batch entry the service's labelpool
// applies queued runs through, so per-round work — presentation,
// incorporation, measurement, observer events — amortizes under the
// caller's single lock acquisition while producing a trajectory
// bit-identical to the same labelings submitted one Next/Submit cycle
// at a time.
//
// It returns how many elements were applied. On error the remaining
// elements are untouched; a failure after a successful internal Next
// leaves that round pending (its pairs are presented), so the caller
// can retry the failed element with corrected labelings without
// re-presenting.
func (s *Session) SubmitBatch(ctx context.Context, batch [][]belief.Labeling) (applied int, err error) {
	for _, labeled := range batch {
		if err := ctx.Err(); err != nil {
			return applied, err
		}
		if s.pending == nil {
			if _, err := s.NextContext(ctx); err != nil {
				return applied, err
			}
		}
		if err := s.SubmitContext(ctx, labeled); err != nil {
			return applied, err
		}
		applied++
	}
	return applied, nil
}

// finishRound runs the shared engine step for the pending round and
// clears it. Callers own validation: Submit splits user input into
// fresh labels and revisions and finds the labelings the revisions
// replace; the Run driver passes the simulated trainer's output
// directly.
func (s *Session) finishRound(labeled, revisions []belief.Labeling, prev []*belief.Labeling) IterationRecord {
	rec := s.eng.step(s.pending, labeled, revisions, prev)
	s.pending = nil
	return rec
}

// Belief exposes the learner's current belief.
func (s *Session) Belief() *belief.Belief { return s.eng.learner.Belief() }

// Relation returns the data under annotation.
func (s *Session) Relation() *dataset.Relation { return s.rel }

// Pending returns a copy of the presented-but-unsubmitted round (nil
// when the session is idle). Mutating the returned slice cannot corrupt
// engine state.
func (s *Session) Pending() []dataset.Pair {
	return append([]dataset.Pair(nil), s.pending...)
}

// PendingCount reports how many pairs the unsubmitted round holds (0
// when idle) without copying.
func (s *Session) PendingCount() int { return len(s.pending) }

// RemainingPairs reports how many fresh candidate pairs the pool still
// holds — an O(1) counter, no slice materialization.
func (s *Session) RemainingPairs() int { return s.pool.RemainingCount() }

// Rounds returns how many rounds have been submitted.
func (s *Session) Rounds() int { return s.eng.round() }

// History returns the submitted labelings per round as defensive
// copies; mutating them cannot corrupt engine state.
func (s *Session) History() [][]belief.Labeling {
	out := make([][]belief.Labeling, len(s.eng.records))
	for i, rec := range s.eng.records {
		out[i] = append([]belief.Labeling(nil), rec.Labeled...)
	}
	return out
}

// Records returns the full per-round trajectory: for every submitted
// round the labelings, revisions, MAE and trainer payoff against the
// reference belief, and the detection score when an evaluator is
// configured. The outer slice is a copy; the records' inner slices are
// shared with the engine and must not be mutated.
func (s *Session) Records() []IterationRecord {
	return append([]IterationRecord(nil), s.eng.records...)
}

// Record returns round t's record without copying the trajectory; t
// must be below Rounds. Like Records, its slices are shared with the
// engine and must not be mutated.
func (s *Session) Record(t int) IterationRecord { return s.eng.records[t] }

// Frequencies exposes the trainer's empirical label distribution Φ_t
// over the session's submitted rounds.
func (s *Session) Frequencies() *Frequencies { return s.eng.freqs }

// Snapshot checkpoints the session as of its last submitted round:
// learner belief plus the full per-round records (labelings, revisions,
// MAE/payoff, detection), so a resumed session keeps its history of
// scores. A pending unsubmitted round carries no annotator evidence and
// is not captured: the snapshot holds the sampler RNG position from
// before the round was drawn, so a session resumed from it presents the
// same pairs again. The session itself is left as it was, round pending
// and all.
func (s *Session) Snapshot() (*persist.Snapshot, error) {
	rounds := make([]persist.Round, len(s.eng.records))
	for i, rec := range s.eng.records {
		rounds[i] = persist.Round{
			Labeled:   rec.Labeled,
			Revisions: rec.Revisions,
			MAE:       rec.MAE,
			Payoff:    rec.TrainerPayoff,
		}
		if s.eng.eval != nil {
			d := rec.Detection
			rounds[i].Detection = &d
		}
	}
	snap, err := persist.NewSnapshotRounds(s.rel.Schema(), s.space, nil, s.Belief(), rounds)
	if err != nil {
		return nil, err
	}
	// Capture the sampler RNG position so resumption is draw-exact: a
	// session restored from this snapshot presents the same future
	// pairs the live session would have — park/unpark churn cannot
	// perturb a trajectory.
	rng := s.eng.learner.RNGState()
	if s.pending != nil {
		rng = s.pendingRNG
	}
	snap.LearnerRNG = append([]uint64(nil), rng[:]...)
	return snap, nil
}

// RNGState exposes the learner sampler's RNG position — the same four
// xoshiro256** words Snapshot captures. Callers assembling per-round
// WAL deltas read it right after a round submits; no draw happens
// between a round's submission and the next presentation, so the
// capture is draw-exact-equivalent to a full snapshot taken there.
func (s *Session) RNGState() [4]uint64 { return s.eng.learner.RNGState() }

// ResumeSession rebuilds a session from a snapshot against the same
// relation: the hypothesis space, learner belief and per-round records
// are restored, and previously labeled pairs are excluded from future
// rounds.
func ResumeSession(snap *persist.Snapshot, cfg SessionConfig) (*Session, error) {
	if cfg.Relation == nil {
		return nil, fmt.Errorf("game: SessionConfig.Relation is required")
	}
	if err := snap.ValidateSchema(cfg.Relation.Schema()); err != nil {
		return nil, err
	}
	space, err := snap.RestoreSpace()
	if err != nil {
		return nil, err
	}
	learnerBelief, err := snap.RestoreLearner(space)
	if err != nil {
		return nil, err
	}
	rounds, err := snap.RestoreRounds()
	if err != nil {
		return nil, err
	}
	cfg.Space = space
	if learnerBelief != nil {
		cfg.Prior = learnerBelief
	}
	s, err := NewSession(cfg)
	if err != nil {
		return nil, err
	}
	records := make([]IterationRecord, len(rounds))
	for i, r := range rounds {
		presented := make([]dataset.Pair, 0, len(r.Labeled))
		for _, lp := range r.Labeled {
			presented = append(presented, lp.Pair)
		}
		records[i] = IterationRecord{
			Presented:     presented,
			Labeled:       r.Labeled,
			Revisions:     r.Revisions,
			MAE:           r.MAE,
			TrainerPayoff: r.Payoff,
		}
		if r.Detection != nil {
			records[i].Detection = *r.Detection
		}
		s.pool.MarkShown(presented)
	}
	s.eng.restore(records)
	if state, ok, err := snap.RestoreLearnerRNG(); err != nil {
		return nil, err
	} else if ok {
		if err := s.eng.learner.RestoreRNG(state); err != nil {
			return nil, err
		}
	}
	return s, nil
}
