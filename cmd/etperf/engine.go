package main

import (
	"context"
	"fmt"
	"math"
	"time"

	"exptrain/client"
	"exptrain/internal/belief"
	"exptrain/internal/datagen"
	"exptrain/internal/dataset"
	"exptrain/internal/fd"
	"exptrain/internal/game"
	"exptrain/internal/persist"
	"exptrain/internal/sampling"
)

// engineTimer is a game.Observer that times the round engine's steps:
// select (RoundStarted→PairsPresented), the simulated trainer
// (PairsPresented→RoundSubmitted, only when trainer is set), update
// (RoundSubmitted→BeliefUpdated) and score (BeliefUpdated→RoundScored).
// It records spans when tr is non-nil and always keeps the first-pairs
// and per-round times.
type engineTimer struct {
	tr        *tracer
	key       string
	trainer   bool
	remaining func() int // fresh candidate pairs, read before each selection
	start     time.Time  // when the game began, for the first-pairs time

	started, presented, submitted, updated time.Time

	firstPairs time.Duration
	rounds     []time.Duration // RoundStarted→RoundScored of rounds ≥ 1
	candidates []float64
}

func (e *engineTimer) RoundStarted(int) {
	if e.remaining != nil {
		e.candidates = append(e.candidates, float64(e.remaining()))
	}
	e.started = time.Now()
}

func (e *engineTimer) PairsPresented(t int, _ []dataset.Pair) {
	e.presented = time.Now()
	e.tr.add("game.select", e.key, t, e.started, e.presented, 0)
	if t == 0 {
		e.firstPairs = e.presented.Sub(e.start)
	}
}

func (e *engineTimer) RoundSubmitted(t int, _, _ []belief.Labeling) {
	e.submitted = time.Now()
	if e.trainer {
		e.tr.add("agents.trainer", e.key, t, e.presented, e.submitted, 0)
	}
}

func (e *engineTimer) BeliefUpdated(t int, _ *belief.Belief) {
	e.updated = time.Now()
	e.tr.add("game.update", e.key, t, e.submitted, e.updated, 0)
}

func (e *engineTimer) RoundScored(t int, _ game.IterationRecord) {
	now := time.Now()
	e.tr.add("game.score", e.key, t, e.updated, now, 0)
	if t > 0 {
		e.rounds = append(e.rounds, now.Sub(e.started))
	}
}

// reportEngine adds the per-layer metrics of the round engine and of
// session construction, from the replay's or the mirror's spans.
func reportEngine(res *result, s []span) {
	first := func(x span) bool { return x.Round == 0 }
	later := func(x span) bool { return x.Round > 0 }
	res.add("game.select_ms.p50", percentile(durations(s, "game.select", later), 0.5), "ms", 0)
	res.add("game.select_ms.p99", percentile(durations(s, "game.select", later), 0.99), "ms", 0)
	res.add("game.first_select_ms.p50", percentile(durations(s, "game.select", first), 0.5), "ms", 0)
	res.add("game.update_ms.p50", percentile(durations(s, "game.update", nil), 0.5), "ms", 0)
	res.add("game.score_ms.p50", percentile(durations(s, "game.score", nil), 0.5), "ms", 0)
	res.add("datagen.generate_ms.p50", percentile(durations(s, "datagen.generate", nil), 0.5), "ms", 0)
	res.add("fd.space_ms.p50", percentile(durations(s, "fd.space", nil), 0.5), "ms", 0)
	res.add("belief.prior_ms.p50", percentile(durations(s, "belief.prior", nil), 0.5), "ms", 0)
}

// replay rebuilds a served session in process — the same construction
// the service performs for a fresh session — feeds it the labels the
// served session received, and checks that it presents the same pairs
// and reproduces the served per-round series bit for bit. Park/resume
// in durable and drain batching in batched must not change a
// trajectory.
func (sp servingSpec) replay(ctx context.Context, run sessionRun, served []client.Round, tr *tracer) (*engineTimer, error) {
	key := "replay/" + run.id
	t0 := time.Now()
	gen, err := datagen.ByName(sp.dataset)
	if err != nil {
		return nil, err
	}
	tg := time.Now()
	rel := gen(sp.rows, run.seed).Rel
	tr.since("datagen.generate", key, -1, tg)
	ts := time.Now()
	fds, err := fd.Enumerate(fd.SpaceConfig{Arity: rel.Schema().Arity(), MaxLHS: 2})
	if err != nil {
		return nil, err
	}
	space, err := fd.NewSpace(fds)
	if err != nil {
		return nil, err
	}
	tr.since("fd.space", key, -1, ts)
	tp := time.Now()
	prior := belief.DataEstimatePrior(space, rel, 0.12)
	tr.since("belief.prior", key, -1, tp)
	sampler, err := sampling.New(sampling.MethodStochasticUS, 0)
	if err != nil {
		return nil, err
	}
	timer := &engineTimer{tr: tr, key: key, start: t0}
	tn := time.Now()
	sess, err := game.NewSession(game.SessionConfig{
		Relation: rel, Space: space, Prior: prior, Sampler: sampler,
		K: sp.k, Seed: run.seed, Observer: timer,
	})
	if err != nil {
		return nil, err
	}
	tr.since("game.session", key, -1, tn)
	timer.remaining = sess.RemainingPairs

	for r, labels := range run.labels {
		tr0 := time.Now()
		pairs, err := sess.NextContext(ctx)
		if err != nil {
			return nil, fmt.Errorf("replaying %s round %d: %w", run.id, r, err)
		}
		if r < len(run.pairs) && run.pairs[r] != nil && !samePairs(pairs, run.pairs[r]) {
			return nil, fmt.Errorf("replaying %s round %d: presented %v, the server presented %v", run.id, r, pairs, run.pairs[r])
		}
		labeled := make([]belief.Labeling, len(labels))
		for i, l := range labels {
			if labeled[i], err = (persist.LabelingJSON{Pair: l.Pair, Marked: l.Marked, Abstained: l.Abstained}).ToLabeling(); err != nil {
				return nil, err
			}
		}
		if err := sess.SubmitContext(ctx, labeled); err != nil {
			return nil, fmt.Errorf("replaying %s round %d: %w", run.id, r, err)
		}
		tr.since("replay.round", key, r, tr0)
	}
	tr.since("replay.session", key, -1, t0)

	recs := sess.Records()
	if len(recs) != len(served) {
		return nil, fmt.Errorf("replaying %s: %d rounds, the server reports %d", run.id, len(recs), len(served))
	}
	for i, rec := range recs {
		s := served[i]
		if s.Round != i || s.Labeled != len(rec.Labeled) || s.Revised != len(rec.Revisions) ||
			math.Float64bits(s.MAE) != math.Float64bits(rec.MAE) || math.Float64bits(s.Payoff) != math.Float64bits(rec.TrainerPayoff) {
			return nil, fmt.Errorf("replaying %s round %d: got mae=%v payoff=%v labeled=%d revised=%d, served %+v",
				run.id, i, rec.MAE, rec.TrainerPayoff, len(rec.Labeled), len(rec.Revisions), s)
		}
	}
	return timer, nil
}

func samePairs(got []dataset.Pair, want []client.Pair) bool {
	if len(got) != len(want) {
		return false
	}
	for i, p := range got {
		if p.A != want[i].A || p.B != want[i].B {
			return false
		}
	}
	return true
}
