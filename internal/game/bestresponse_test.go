package game

import (
	"testing"

	"exptrain/internal/agents"
	"exptrain/internal/belief"
	"exptrain/internal/dataset"
	"exptrain/internal/fd"
	"exptrain/internal/sampling"
	"exptrain/internal/stats"
)

func TestFPTrainerAlwaysBestResponds(t *testing.T) {
	// Property over a full game: a noise-free FP trainer's labelings are
	// always a best response to its (post-observation) belief, and its
	// exploitability is zero.
	rel, space, pool, _ := buildWorld(t, 21)
	rng := stats.NewRNG(22)
	trainer := agents.NewFPTrainer(belief.RandomPrior(space, rng.Split(), 0.1), nil)
	learner := agents.NewLearner(belief.DataEstimatePrior(space, rel, 0.1), sampling.StochasticUS{}, rng.Split())

	for i := 0; i < 15; i++ {
		presented := pool.Show(learner.Present(pool.Candidates(), 10))
		trainer.Observe(rel, presented)
		labeled := trainer.Label(rel, presented)
		if !IsBestResponse(trainer.Belief(), rel, labeled) {
			t.Fatalf("iteration %d: FP labeling is not a best response", i)
		}
		if got := Exploitability(trainer.Belief(), rel, labeled); got != 0 {
			t.Fatalf("iteration %d: exploitability %v, want 0", i, got)
		}
		learner.Incorporate(rel, labeled)
	}
}

func TestNoisyTrainerIsExploitable(t *testing.T) {
	rel, space, pool, _ := buildWorld(t, 23)
	rng := stats.NewRNG(24)
	trainer := agents.NewFPTrainer(belief.RandomPrior(space, rng.Split(), 0.1), rng.Split())
	trainer.NoiseRate = 0.5
	learner := agents.NewLearner(belief.DataEstimatePrior(space, rel, 0.1), sampling.Random{}, rng.Split())

	var sawGap bool
	for i := 0; i < 10; i++ {
		presented := pool.Show(learner.Present(pool.Candidates(), 10))
		trainer.Observe(rel, presented)
		labeled := trainer.Label(rel, presented)
		if Exploitability(trainer.Belief(), rel, labeled) > 0 {
			sawGap = true
		}
		learner.Incorporate(rel, labeled)
	}
	if !sawGap {
		t.Fatal("a 50%-noise trainer never showed an exploitability gap")
	}
}

func TestIsBestResponseDetectsDeviation(t *testing.T) {
	rel, space, _, _ := buildWorld(t, 25)
	b := belief.UniformPrior(space, 0.9, 0.05)
	// Find a violating pair (dirty under a 0.9-confidence belief).
	target := fd.MustNew(fd.NewAttrSet(0), 1)
	var viol dataset.Pair
	found := false
	for _, q := range dataset.AllPairs(rel.NumRows()) {
		if fd.Status(target, rel, q) == fd.Violating {
			viol, found = q, true
			break
		}
	}
	if !found {
		t.Fatal("setup: no violating pair")
	}
	// A clean labeling of that pair deviates from best response.
	if IsBestResponse(b, rel, []belief.Labeling{{Pair: viol}}) {
		t.Fatal("unmarked violation accepted as best response")
	}
	// Abstention is never a best response.
	if IsBestResponse(b, rel, []belief.Labeling{{Pair: viol, Abstained: true}}) {
		t.Fatal("abstention accepted as best response")
	}
}

func TestExploitabilityEmptyAndBounds(t *testing.T) {
	rel, space, _, _ := buildWorld(t, 27)
	b := belief.UniformPrior(space, 0.5, 0.1)
	if got := Exploitability(b, rel, nil); got != 0 {
		t.Fatalf("empty labeling exploitability = %v", got)
	}
	labeled := b.MarkPairs(rel, dataset.AllPairs(6), 0.5)
	g := Exploitability(b, rel, labeled)
	if g < 0 || g > 1 {
		t.Fatalf("exploitability out of [0,1]: %v", g)
	}
}

// IsBestResponse reports whether the labelings are a best response to
// the belief: every pair carries exactly the marks MarkPairs would
// produce. Proposition 1's convergence argument assumes the trainer
// best-responds; this check lets tests and diagnostics verify it on
// recorded trajectories. Abstained labelings are never best responses
// (abstention forgoes payoff) and return false.
func IsBestResponse(b *belief.Belief, rel *dataset.Relation, labeled []belief.Labeling) bool {
	pairs := make([]dataset.Pair, len(labeled))
	for i, lp := range labeled {
		if lp.Abstained {
			return false
		}
		pairs[i] = lp.Pair
	}
	want := b.MarkPairs(rel, pairs, 0.5)
	for i := range labeled {
		if labeled[i].Marked != want[i].Marked {
			return false
		}
	}
	return true
}

// Exploitability measures how far the trainer's realized labeling falls
// short of its best response, as a payoff gap per labeling:
//
//	(u_T(best response) − u_T(actual)) / |labelings|
//
// Zero means the labeling was exactly optimal given the belief; label
// noise, abstention, or a lagging response model show up as positive
// gaps. The value is in [0, 1].
func Exploitability(b *belief.Belief, rel *dataset.Relation, labeled []belief.Labeling) float64 {
	if len(labeled) == 0 {
		return 0
	}
	var actual, best float64
	for _, lp := range labeled {
		pd := b.PDirty(rel, lp.Pair)
		actual += b.LabelPayoff(rel, lp.Pair, lp.Label())
		if pd >= 0.5 {
			best += pd
		} else {
			best += 1 - pd
		}
	}
	gap := (best - actual) / float64(len(labeled))
	if gap < 0 {
		return 0
	}
	return gap
}
