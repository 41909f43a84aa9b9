// Package agents implements the two players of the exploratory-training
// game (Section 2): the trainer (the human annotator, simulated with the
// human-learning models of Section 3 — fictitious play / Bayesian and
// hypothesis testing) and the learner (the active-learning system with a
// Bayesian prediction model and a pluggable response strategy).
package agents

import (
	"fmt"
	"sort"

	"exptrain/internal/belief"
	"exptrain/internal/dataset"
	"exptrain/internal/fd"
	"exptrain/internal/stats"
)

// Trainer is the annotator side of the game. Each interaction the game
// first calls Observe with the presented pairs (the trainer's prediction
// model P^T: it learns about the data from what it is shown) and then
// Label (the trainer's response model R^T: it labels according to its
// updated belief).
type Trainer interface {
	// Name identifies the trainer's learning method.
	Name() string
	// Observe updates the trainer's belief from newly presented pairs.
	Observe(rel *dataset.Relation, pairs []dataset.Pair)
	// Label returns the trainer's annotations for the presented pairs.
	Label(rel *dataset.Relation, pairs []dataset.Pair) []belief.Labeling
	// Belief exposes the trainer's current belief; the evaluation uses
	// it only to measure trainer/learner agreement (MAE), never to leak
	// it to the learner.
	Belief() *belief.Belief
}

// FPTrainer simulates a human annotator that learns by fictitious play /
// Bayesian updating — the model the paper's user study found to describe
// most participants (§A.3). Its belief is a Beta per hypothesis; each
// observed pair updates the hypotheses it carries evidence for, and
// labels are the best response to the updated belief.
type FPTrainer struct {
	belief *belief.Belief
	// NoiseRate optionally flips each label with this probability,
	// modeling annotation slips on top of belief-driven labeling.
	NoiseRate float64
	// PresentedPairsOnly restricts the trainer's observation to exactly
	// the presented pairs. By default the trainer — like the study
	// participants, who are shown whole tuples — also compares every
	// pair of tuples co-occurring in an interaction's sample, which is
	// how a human actually inspects a screenful of rows.
	PresentedPairsOnly bool
	// ForgetRate, when in (0, 1), geometrically discounts accumulated
	// evidence before each observation — a human whose older impressions
	// fade (discounted fictitious play, Young 2004). Zero disables it.
	ForgetRate float64
	rng        *stats.RNG
}

// NewFPTrainer creates a fictitious-play trainer starting from the given
// prior belief. rng is only used when label noise is configured.
func NewFPTrainer(prior *belief.Belief, rng *stats.RNG) *FPTrainer {
	return &FPTrainer{belief: prior, rng: rng}
}

// Name implements Trainer.
func (t *FPTrainer) Name() string { return "FP" }

// CrossPairs expands a presented pair set to every pair of distinct
// tuples appearing in it — the evidence a human gains from seeing the
// sample's tuples side by side.
func CrossPairs(pairs []dataset.Pair) []dataset.Pair {
	rowSet := make(map[int]struct{}, 2*len(pairs))
	for _, p := range pairs {
		rowSet[p.A] = struct{}{}
		rowSet[p.B] = struct{}{}
	}
	rows := make([]int, 0, len(rowSet))
	for r := range rowSet {
		rows = append(rows, r)
	}
	sort.Ints(rows)
	return dataset.PairsAmong(rows)
}

// Observe implements Trainer: fictitious-play counting over the
// interaction's evidence (all pairs among the presented tuples, unless
// PresentedPairsOnly is set).
func (t *FPTrainer) Observe(rel *dataset.Relation, pairs []dataset.Pair) {
	if len(pairs) == 0 {
		return
	}
	evidence := pairs
	if !t.PresentedPairsOnly {
		evidence = CrossPairs(pairs)
	}
	if t.ForgetRate > 0 && t.ForgetRate < 1 {
		t.belief.Decay(1 - t.ForgetRate)
	}
	t.belief.UpdateFromData(rel, evidence, 1)
}

// Label implements Trainer: the best response to the trainer's current
// belief — for every hypothesis held with confidence ≥ 1/2 that a pair
// violates, the hypothesis' RHS cells are marked as erroneous (§A.1's
// cell-level violation marking).
func (t *FPTrainer) Label(rel *dataset.Relation, pairs []dataset.Pair) []belief.Labeling {
	out := t.belief.MarkPairs(rel, pairs, 0.5)
	if t.NoiseRate > 0 && t.rng != nil {
		for i := range out {
			if t.rng.Float64() >= t.NoiseRate {
				continue
			}
			out[i] = t.flipMarking(rel, out[i])
		}
	}
	return out
}

// flipMarking models an annotation slip: a marked pair loses its marks;
// an unmarked pair that syntactically violates something gets the
// highest-confidence violated hypothesis' RHS marked (a human would not
// mark a violation that does not exist).
func (t *FPTrainer) flipMarking(rel *dataset.Relation, l belief.Labeling) belief.Labeling {
	if l.Dirty() {
		return belief.Labeling{Pair: l.Pair}
	}
	best, bestConf := -1, -1.0
	for i := 0; i < t.belief.Size(); i++ {
		f := t.belief.Space().FD(i)
		if fd.Status(f, rel, l.Pair) == fd.Violating && t.belief.Confidence(i) > bestConf {
			best, bestConf = i, t.belief.Confidence(i)
		}
	}
	if best < 0 {
		return l
	}
	return belief.Labeling{Pair: l.Pair, Marked: fd.NewAttrSet(t.belief.Space().FD(best).RHS)}
}

// Belief implements Trainer.
func (t *FPTrainer) Belief() *belief.Belief { return t.belief }

// StationaryTrainer is the annotator current active-learning systems
// assume (§1): a fixed belief, never updated — it labels from the same
// model throughout. Used by the ablation benches to show US recovers
// when the trainer genuinely does not learn.
type StationaryTrainer struct {
	belief *belief.Belief
}

// NewStationaryTrainer wraps a fixed belief.
//
//etlint:ignore unreachable ablation trainer shared by the tests and benchmarks of agents, game and the exptrain root
func NewStationaryTrainer(b *belief.Belief) *StationaryTrainer {
	return &StationaryTrainer{belief: b}
}

// Name implements Trainer.
func (t *StationaryTrainer) Name() string { return "Stationary" }

// Observe implements Trainer as a no-op: the stationary trainer never
// revises its belief.
func (t *StationaryTrainer) Observe(*dataset.Relation, []dataset.Pair) {}

// Label implements Trainer.
func (t *StationaryTrainer) Label(rel *dataset.Relation, pairs []dataset.Pair) []belief.Labeling {
	return t.belief.MarkPairs(rel, pairs, 0.5)
}

// Belief implements Trainer.
func (t *StationaryTrainer) Belief() *belief.Belief { return t.belief }

// HTConfig configures a hypothesis-testing trainer (§3).
type HTConfig struct {
	// Tolerance is the acceptable gap between the held hypothesis'
	// believed confidence and its empirical performance on the recent
	// window before the hypothesis is rejected.
	Tolerance float64
	// WindowSize is how many recent pairs the test runs over; the paper
	// found testing against the preceding interaction's sample works
	// best (§A.2), i.e. a window of one interaction (k pairs).
	WindowSize int
}

// HypothesisTestingTrainer simulates the second human-learning model of
// Section 3: the annotator holds one working hypothesis (a single FD),
// labels according to it, tests it against recent evidence every
// interaction, and on rejection switches to the hypothesis performing
// best on the recent window.
type HypothesisTestingTrainer struct {
	belief  *belief.Belief // running empirical estimates over the space
	current int            // index of the held hypothesis
	cfg     HTConfig
	window  []dataset.Pair
}

// NewHypothesisTestingTrainer starts from the prior belief, holding the
// prior's highest-confidence hypothesis.
func NewHypothesisTestingTrainer(prior *belief.Belief, cfg HTConfig) (*HypothesisTestingTrainer, error) {
	if prior.Size() == 0 {
		return nil, fmt.Errorf("agents: empty hypothesis space")
	}
	if cfg.Tolerance <= 0 {
		cfg.Tolerance = 0.2
	}
	if cfg.WindowSize <= 0 {
		cfg.WindowSize = 10
	}
	return &HypothesisTestingTrainer{
		belief:  prior,
		current: prior.TopK(1)[0],
		cfg:     cfg,
	}, nil
}

// Name implements Trainer.
func (t *HypothesisTestingTrainer) Name() string { return "HypothesisTesting" }

// empiricalConfidence measures how well hypothesis i explains the
// window: the compliance rate among window pairs carrying evidence for
// it (1 when no evidence).
func (t *HypothesisTestingTrainer) empiricalConfidence(rel *dataset.Relation, i int) float64 {
	f := t.belief.Space().FD(i)
	agree, comply := 0, 0
	for _, p := range t.window {
		switch fd.Status(f, rel, p) {
		case fd.Compliant:
			agree++
			comply++
		case fd.Violating:
			agree++
		}
	}
	if agree == 0 {
		return 1
	}
	return float64(comply) / float64(agree)
}

// Observe implements Trainer: it updates the running empirical belief,
// refreshes the test window, and re-tests the held hypothesis — when the
// hypothesis' believed confidence overshoots its recent empirical
// performance by more than the tolerance, the trainer rejects it and
// adopts the hypothesis with the best recent performance (breaking ties
// toward higher believed confidence).
func (t *HypothesisTestingTrainer) Observe(rel *dataset.Relation, pairs []dataset.Pair) {
	if len(pairs) == 0 {
		return
	}
	evidence := CrossPairs(pairs)
	t.belief.UpdateFromData(rel, evidence, 1)
	// The window is the most recent WindowSize pairs of evidence.
	t.window = append(t.window, evidence...)
	if over := len(t.window) - t.cfg.WindowSize; over > 0 {
		t.window = append([]dataset.Pair(nil), t.window[over:]...)
	}

	held := t.belief.Confidence(t.current)
	emp := t.empiricalConfidence(rel, t.current)
	if held-emp > t.cfg.Tolerance {
		best, bestScore := t.current, -1.0
		for i := 0; i < t.belief.Size(); i++ {
			score := t.empiricalConfidence(rel, i)
			// Prefer hypotheses with actual supporting evidence; break
			// ties by believed confidence.
			score += 1e-6 * t.belief.Confidence(i)
			if score > bestScore {
				best, bestScore = i, score
			}
		}
		t.current = best
	}
}

// Label implements Trainer: marks strictly by the held hypothesis — a
// pair gets the held FD's RHS marked exactly when it violates it.
func (t *HypothesisTestingTrainer) Label(rel *dataset.Relation, pairs []dataset.Pair) []belief.Labeling {
	f := t.belief.Space().FD(t.current)
	out := make([]belief.Labeling, len(pairs))
	for i, p := range pairs {
		l := belief.Labeling{Pair: p}
		if fd.Status(f, rel, p) == fd.Violating {
			l.Marked = fd.NewAttrSet(f.RHS)
		}
		out[i] = l
	}
	return out
}

// Belief implements Trainer.
func (t *HypothesisTestingTrainer) Belief() *belief.Belief { return t.belief }

// RankedHypotheses returns up to k hypothesis indices ordered by how
// the hypothesis-testing model would entertain them: the held
// hypothesis first, then the rest by their empirical performance on the
// recent window (ties toward believed confidence, then canonical
// order). The user-study analysis uses this as the model's top-k
// prediction list.
func (t *HypothesisTestingTrainer) RankedHypotheses(rel *dataset.Relation, k int) []int {
	n := t.belief.Size()
	if k > n {
		k = n
	}
	idx := make([]int, 0, n)
	for i := 0; i < n; i++ {
		if i != t.current {
			idx = append(idx, i)
		}
	}
	score := func(i int) float64 {
		return t.empiricalConfidence(rel, i) + 1e-6*t.belief.Confidence(i)
	}
	sort.SliceStable(idx, func(a, b int) bool { return score(idx[a]) > score(idx[b]) })
	out := append([]int{t.current}, idx...)
	return out[:k]
}
