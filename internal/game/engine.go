package game

import (
	"exptrain/internal/agents"
	"exptrain/internal/belief"
	"exptrain/internal/dataset"
	"exptrain/internal/fd"
)

// roundEngine is the single implementation of one interaction of the
// §C.1 protocol. Every execution form — the batch Run driver with a
// simulated trainer, the step-wise Session an interactive caller or the
// HTTP service advances, the resumed-from-snapshot session — funnels
// its rounds through step, so incorporation, revision reversal,
// frequency recording, MAE/payoff measurement, evaluator scoring and
// observer events exist exactly once.
type roundEngine struct {
	rel     *dataset.Relation
	learner *agents.Learner
	// annotatorBelief provides the annotator-side belief MAE and
	// TrainerPayoff are measured against: the simulated trainer's live
	// belief in a Run, a caller-chosen reference in a Session. A nil
	// provider (or nil belief) leaves both measurements zero.
	annotatorBelief func() *belief.Belief
	// eval, when non-nil, scores the learner's believed model on a
	// held-out split every round.
	eval           *Evaluator
	believedTau    float64
	maxBelievedStd float64
	obs            Observer
	freqs          *Frequencies
	records        []IterationRecord
}

// engineConfig assembles a round engine; zero-value thresholds must be
// resolved by the caller (Config/SessionConfig own the defaulting).
type engineConfig struct {
	rel             *dataset.Relation
	learner         *agents.Learner
	annotatorBelief func() *belief.Belief
	eval            *Evaluator
	believedTau     float64
	maxBelievedStd  float64
	obs             Observer
}

func newRoundEngine(cfg engineConfig) *roundEngine {
	obs := cfg.obs
	if obs == nil {
		obs = NopObserver{}
	}
	return &roundEngine{
		rel:             cfg.rel,
		learner:         cfg.learner,
		annotatorBelief: cfg.annotatorBelief,
		eval:            cfg.eval,
		believedTau:     cfg.believedTau,
		maxBelievedStd:  cfg.maxBelievedStd,
		obs:             obs,
		freqs:           &Frequencies{},
	}
}

// round is the index the next completed interaction will get.
func (e *roundEngine) round() int { return len(e.records) }

// believedModel extracts the FDs the learner currently exports to the
// evaluator: confidence at least believedTau, optionally filtered by
// the posterior-std cap that keeps prior-only hypotheses out.
func (e *roundEngine) believedModel() []fd.FD {
	if e.maxBelievedStd > 0 {
		return e.learner.Belief().ConfidentFDs(e.believedTau, e.maxBelievedStd)
	}
	return e.learner.Belief().BelievedFDs(e.believedTau)
}

// previous finds the labeling each revision replaces: the pair's
// newest labeling, or nil when the pair was never labeled. Newest first
// is an earlier revision of the same pair in this call, then this
// round's labeled, then each earlier record's revisions and labelings,
// newest record first — so a pair revised twice in one call sees its
// first revision. One backward pass over the records, stopping once
// every pair is found, serves all the revisions; a round without
// revisions makes none. The returned pointers alias labeled, revisions
// and the records' labelings, which are never modified.
func (e *roundEngine) previous(labeled, revisions []belief.Labeling) []*belief.Labeling {
	if len(revisions) == 0 {
		return nil
	}
	prev := make([]*belief.Labeling, len(revisions))
	// open maps each revised pair to the revision whose previous
	// labeling the pass has yet to meet: walking back through the call,
	// an earlier revision of the pair is the previous one of the later,
	// and the pair's first revision looks further back.
	open := make(map[dataset.Pair]int, len(revisions))
	for i := len(revisions) - 1; i >= 0; i-- {
		if j, ok := open[revisions[i].Pair]; ok {
			prev[j] = &revisions[i]
		}
		open[revisions[i].Pair] = i
	}
	found := func(ls []belief.Labeling) bool {
		for k := len(ls) - 1; k >= 0; k-- {
			if i, ok := open[ls[k].Pair]; ok {
				prev[i] = &ls[k]
				delete(open, ls[k].Pair)
				if len(open) == 0 {
					return true
				}
			}
		}
		return false
	}
	if found(labeled) {
		return prev
	}
	for t := len(e.records) - 1; t >= 0; t-- {
		if found(e.records[t].Revisions) || found(e.records[t].Labeled) {
			break
		}
	}
	return prev
}

// step completes one interaction: the annotator's labelings (and any
// revisions of earlier labels) are folded into the learner's belief —
// revisions through the exact-reversal path, each against prev, the
// labeling it replaces (previous) — then the round is measured (MAE and
// trainer payoff against the annotator-side belief, optional held-out
// detection score), recorded in the action frequencies, and appended
// to the trajectory. Observer events fire in protocol order around
// each phase.
func (e *roundEngine) step(presented []dataset.Pair, labeled, revisions []belief.Labeling, prev []*belief.Labeling) IterationRecord {
	t := e.round()
	e.obs.RoundSubmitted(t, labeled, revisions)
	e.learner.Incorporate(e.rel, labeled)
	if len(revisions) > 0 {
		e.learner.Revise(e.rel, revisions, prev)
	}
	e.obs.BeliefUpdated(t, e.learner.Belief())

	rec := IterationRecord{
		Presented: presented,
		Labeled:   labeled,
		Revisions: revisions,
	}
	if e.annotatorBelief != nil {
		if ab := e.annotatorBelief(); ab != nil {
			rec.MAE = ab.MAE(e.learner.Belief())
			rec.TrainerPayoff = TrainerPayoff(ab, e.rel, labeled)
		}
	}
	if e.eval != nil {
		rec.Detection = e.eval.Score(e.believedModel())
	}
	e.freqs.Record(labeled)
	e.records = append(e.records, rec)
	e.obs.RoundScored(t, rec)
	return rec
}

// restore reloads a previously recorded trajectory (a resumed
// snapshot): records are appended as-is and the action frequencies are
// replayed. The records are all a later revision of a pre-snapshot
// label needs (previous). No belief updates happen — the snapshot's
// belief already contains the rounds' evidence.
func (e *roundEngine) restore(records []IterationRecord) {
	for _, rec := range records {
		e.freqs.Record(rec.Labeled)
	}
	e.records = append(e.records, records...)
}
