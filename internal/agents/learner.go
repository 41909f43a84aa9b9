package agents

import (
	"exptrain/internal/belief"
	"exptrain/internal/dataset"
	"exptrain/internal/fd"
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
	// history remembers the marks of the last labeling incorporated for
	// each pair so that revisions (an annotator correcting an earlier
	// label, Yan et al. 2016) can reverse the old evidence exactly. The
	// key is the labeling's pair, so the value leaves it out.
	history map[dataset.Pair]marks
}

// marks is a labeling without its pair.
type marks struct {
	marked    fd.AttrSet
	abstained bool
}

func marksOf(lp belief.Labeling) marks { return marks{lp.Marked, lp.Abstained} }

func (m marks) labeling(p dataset.Pair) belief.Labeling {
	return belief.Labeling{Pair: p, Marked: m.marked, Abstained: m.abstained}
}

// NewLearner assembles a learner from its prior belief, response
// strategy and RNG.
func NewLearner(prior *belief.Belief, sampler sampling.Sampler, rng *stats.RNG) *Learner {
	return &Learner{
		belief:  prior,
		sampler: sampler,
		rng:     rng,
		history: make(map[dataset.Pair]marks),
	}
}

// Name identifies the learner by its response strategy, matching the
// paper's method names.
func (l *Learner) Name() string { return l.sampler.Name() }

// Present implements the response model: select k of the candidates
// under the current belief.
func (l *Learner) Present(c sampling.Candidates, k int) []dataset.Pair {
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
	for _, lp := range labeled {
		l.history[lp.Pair] = marksOf(lp)
	}
}

// Revise handles an annotator correcting earlier labels (the relabeling
// setting of Yan et al. 2016): for each revised pair the previous
// labeling's evidence is reversed exactly — the conjugate update is
// additive, so subtraction undoes it — and the new labeling is applied.
// Pairs never labeled before are incorporated normally.
func (l *Learner) Revise(rel *dataset.Relation, revised []belief.Labeling) {
	for _, lp := range revised {
		if old, ok := l.history[lp.Pair]; ok {
			if old == marksOf(lp) {
				continue
			}
			l.belief.RemoveLabelings(rel, []belief.Labeling{old.labeling(lp.Pair)}, 1)
		}
		l.belief.UpdateFromLabelings(rel, []belief.Labeling{lp}, 1)
		l.history[lp.Pair] = marksOf(lp)
	}
}

// RestoreHistory reseeds the labeling memory without touching the
// belief — used when a session is rebuilt from a snapshot whose belief
// already contains the labelings' evidence, so that a later revision of
// a pre-snapshot label still reverses the right evidence.
func (l *Learner) RestoreHistory(labeled []belief.Labeling) {
	for _, lp := range labeled {
		l.history[lp.Pair] = marksOf(lp)
	}
}

// LabelHistory returns the learner's last-seen labeling for a pair.
func (l *Learner) LabelHistory(p dataset.Pair) (belief.Labeling, bool) {
	m, ok := l.history[p]
	if !ok {
		return belief.Labeling{}, false
	}
	return m.labeling(p), true
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
