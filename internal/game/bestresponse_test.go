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
		presented := learner.Present(pool.Candidates(), 10)
		pool.MarkShown(presented)
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
		presented := learner.Present(pool.Candidates(), 10)
		pool.MarkShown(presented)
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
