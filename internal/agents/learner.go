package agents

import (
	"exptrain/internal/belief"
	"exptrain/internal/dataset"
	"exptrain/internal/sampling"
	"exptrain/internal/stats"
)

// Learner is the active-learning side of the game: a Bayesian (FP)
// prediction model over the hypothesis space plus a pluggable response
// strategy. Each interaction the game calls Present (response model
// R^L: pick examples under the current belief) and then Incorporate
// (prediction model P^L: update the belief from the trainer's labels).
type Learner struct {
	belief  *belief.Belief
	sampler sampling.Sampler
	rng     *stats.RNG
	// ForgetRate, when in (0, 1), geometrically discounts the belief's
	// accumulated evidence before each update — discounted fictitious
	// play, which tracks a drifting annotator more closely than plain
	// averaging (Young 2004). Zero disables forgetting.
	ForgetRate float64
}

// NewLearner assembles a learner from its prior belief, response
// strategy and RNG.
func NewLearner(prior *belief.Belief, sampler sampling.Sampler, rng *stats.RNG) *Learner {
	return &Learner{
		belief:  prior,
		sampler: sampler,
		rng:     rng,
	}
}

// Name identifies the learner by its response strategy, matching the
// paper's method names.
func (l *Learner) Name() string { return l.sampler.Name() }

// Present implements the response model: select k of the candidates
// under the current belief. It returns their candidate indices, which
// the pool's Show turns into the pairs shown.
func (l *Learner) Present(c sampling.Candidates, k int) []int {
	return l.sampler.Select(c, l.belief, k, l.rng)
}

// Incorporate implements the prediction model: Bayesian/FP update from
// the trainer's cell-level annotations. With a ForgetRate set, the
// existing evidence is discounted first.
func (l *Learner) Incorporate(rel *dataset.Relation, labeled []belief.Labeling) {
	if len(labeled) == 0 {
		return
	}
	if l.ForgetRate > 0 && l.ForgetRate < 1 {
		l.belief.Decay(1 - l.ForgetRate)
	}
	l.belief.UpdateFromLabelings(rel, labeled, 1)
}

// Revise handles an annotator correcting earlier labels (the relabeling
// setting of Yan et al. 2016). The learner keeps no label memory — the
// caller's round records hold every labeling — so prev[i] is the
// labeling revised[i] replaces, the pair's newest one, or nil when the
// pair was never labeled. A replaced labeling's evidence is reversed
// exactly — the conjugate update is additive, so subtraction undoes it
// — and the new labeling is applied; a revision identical to the
// labeling it replaces is a no-op, and one with nothing to replace is
// incorporated normally.
func (l *Learner) Revise(rel *dataset.Relation, revised []belief.Labeling, prev []*belief.Labeling) {
	for i, lp := range revised {
		if old := prev[i]; old != nil {
			if old.Marked == lp.Marked && old.Abstained == lp.Abstained {
				continue
			}
			l.belief.RemoveLabelings(rel, []belief.Labeling{*old}, 1)
		}
		l.belief.UpdateFromLabelings(rel, []belief.Labeling{lp}, 1)
	}
}

// Belief exposes the learner's current belief.
func (l *Learner) Belief() *belief.Belief { return l.belief }

// RNGState captures the response strategy's RNG position so a
// checkpoint can make resumption draw-exact: a session restored with
// RestoreRNG presents exactly the pairs the live session would have.
func (l *Learner) RNGState() [4]uint64 { return l.rng.State() }

// RestoreRNG resumes the response strategy's RNG at a captured
// RNGState.
func (l *Learner) RestoreRNG(s [4]uint64) error { return l.rng.RestoreState(s) }
