package game

import (
	"context"
	"errors"
	"fmt"

	"exptrain/internal/agents"
	"exptrain/internal/belief"
	"exptrain/internal/dataset"
	"exptrain/internal/fd"
	"exptrain/internal/metrics"
	"exptrain/internal/sampling"
)

// Config drives one exploratory-training game.
type Config struct {
	// K is the number of examples presented per interaction; the paper's
	// evaluation uses 10 (§C.1). Defaults to 10 when zero.
	K int
	// Iterations is the number of interactions N; the paper uses 30
	// (§C.1). Defaults to 30 when zero.
	Iterations int
	// Eval, when non-nil, scores the learner's model each iteration
	// (Figure 7's per-iteration F1).
	Eval *Evaluator
	// BelievedTau is the confidence threshold above which the learner
	// exports an FD to the evaluator. A zero BelievedTau with
	// BelievedTauSet false defaults to 0.5.
	BelievedTau float64
	// BelievedTauSet marks BelievedTau as intentionally specified.
	// Threshold 0 is a meaningful configuration (export every
	// hypothesis with any confidence), but it is also the zero value, so
	// it only takes effect when BelievedTauSet is true; otherwise the
	// 0.5 default applies.
	BelievedTauSet bool
	// MaxBelievedStd is the maximum posterior standard deviation for an
	// FD to be exported — it keeps prior-only hypotheses with no actual
	// evidence out of the detection model (default 0.1; set negative to
	// disable the filter).
	MaxBelievedStd float64
	// Observer receives the engine's structured per-round events
	// (default: no-op). Calls are serialized within one game.
	Observer Observer
}

func (c Config) withDefaults() Config {
	if c.K <= 0 {
		c.K = 10
	}
	if c.Iterations <= 0 {
		c.Iterations = 30
	}
	if c.BelievedTau == 0 && !c.BelievedTauSet { //etlint:ignore floatcmp zero value means unset; BelievedTauSet disambiguates a literal 0
		c.BelievedTau = 0.5
	}
	if c.MaxBelievedStd == 0 { //etlint:ignore floatcmp zero value means unset; callers assign literals
		c.MaxBelievedStd = 0.1
	}
	return c
}

// Evaluator scores error detection on a held-out test split (§C.1
// separates 30% of each dataset and reports the learner model's F1 on
// it per interaction).
type Evaluator struct {
	// TestRel is the held-out relation (a Subset of the dirtied data).
	TestRel *dataset.Relation
	// DirtyRows is the ground-truth dirty row set of TestRel, in
	// TestRel's row indexing.
	DirtyRows map[int]struct{}

	// cache memoizes TestRel's stripped LHS partitions across Score
	// calls: the believed model is re-scored every iteration over the
	// same immutable split, so each distinct LHS is partitioned once
	// per game instead of once per iteration. Built lazily; rebuilt if
	// TestRel is swapped, and self-invalidating if TestRel is mutated.
	cache *fd.PLICache
}

// Score predicts dirty rows of the test relation using the believed FDs
// (the minority-value repair heuristic per believed FD) and scores the
// prediction against the ground truth.
func (e *Evaluator) Score(believed []fd.FD) metrics.PRF1 {
	if e.cache == nil || e.cache.Relation() != e.TestRel {
		e.cache = fd.NewPLICache(e.TestRel)
	}
	pred := e.cache.DetectErrors(believed)
	return metrics.FromSets(pred, e.DirtyRows)
}

// IterationRecord captures one interaction of the game.
type IterationRecord struct {
	// Presented is the learner's action: the pairs shown.
	Presented []dataset.Pair
	// Labeled is the trainer's action: the annotations returned.
	Labeled []belief.Labeling
	// Revisions are corrected labelings for earlier pairs, when the
	// trainer supports relabeling.
	Revisions []belief.Labeling
	// MAE is the trainer/learner belief distance after the interaction.
	MAE float64
	// TrainerPayoff is u_T for the interaction.
	TrainerPayoff float64
	// Detection is the learner model's error-detection score on the
	// held-out split (zero value when no evaluator is configured).
	Detection metrics.PRF1
}

// Result is the full trajectory of one game.
type Result struct {
	Iterations []IterationRecord
	// Frequencies tracks the trainer's empirical label distribution Φ_t.
	Frequencies *Frequencies
}

// MAESeries extracts the per-iteration MAE curve (Figures 1, 3-6).
func (r *Result) MAESeries() []float64 {
	out := make([]float64, len(r.Iterations))
	for i, it := range r.Iterations {
		out[i] = it.MAE
	}
	return out
}

// F1Series extracts the per-iteration detection F1 curve (Figure 7).
func (r *Result) F1Series() []float64 {
	out := make([]float64, len(r.Iterations))
	for i, it := range r.Iterations {
		out[i] = it.Detection.F1
	}
	return out
}

// FinalMAE returns the last iteration's MAE, or 1 for an empty run.
func (r *Result) FinalMAE() float64 {
	if len(r.Iterations) == 0 {
		return 1
	}
	return r.Iterations[len(r.Iterations)-1].MAE
}

// RunContext plays the exploratory-training game: each interaction t
// the learner presents K fresh pairs from the pool (response model
// R^L), the trainer observes them and updates its belief (prediction
// model P^T), labels them in best response (R^T), and the learner
// updates its belief from the labelings (P^L). The loop is exactly
// §C.1's "Interactions" protocol. Cancellation is checked between
// interactions: a done context returns ctx.Err() and discards the
// partial trajectory.
//
// RunContext is a driver over the step-wise Session: it builds a session
// around the caller's learner and pool, then plugs the simulated
// trainer into the alternating Next/submit protocol, so the per-round
// mechanics (incorporation, revision reversal, measurement, observer
// events) execute in the exact same engine the interactive and HTTP
// paths use.
func RunContext(ctx context.Context, rel *dataset.Relation, trainer agents.Trainer, learner *agents.Learner, pool *sampling.Pool, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	if trainer.Belief().Size() != learner.Belief().Size() {
		return nil, fmt.Errorf("game: trainer and learner hypothesis spaces differ (%d vs %d)",
			trainer.Belief().Size(), learner.Belief().Size())
	}
	s := &Session{
		rel:   rel,
		space: learner.Belief().Space(),
		pool:  pool,
		k:     cfg.K,
		eng: newRoundEngine(engineConfig{
			rel:             rel,
			learner:         learner,
			annotatorBelief: trainer.Belief,
			eval:            cfg.Eval,
			believedTau:     cfg.BelievedTau,
			maxBelievedStd:  cfg.MaxBelievedStd,
			obs:             cfg.Observer,
		}),
	}
	for t := 0; t < cfg.Iterations; t++ {
		presented, err := s.NextContext(ctx)
		if errors.Is(err, ErrPoolExhausted) {
			break // nothing fresh to present
		}
		if err != nil {
			return nil, err
		}

		trainer.Observe(rel, presented)
		labeled := trainer.Label(rel, presented)

		// A relabeling annotator may correct earlier labels after its
		// belief moved (Yan et al. 2016); the engine routes revisions
		// through the learner's exact-reversal path.
		var revisions []belief.Labeling
		if rl, ok := trainer.(agents.Relabeler); ok {
			revisions = rl.Revisions(rel)
		}
		s.finishRound(labeled, revisions, s.eng.previous(labeled, revisions))
	}
	return &Result{Iterations: s.eng.records, Frequencies: s.eng.freqs}, nil
}
