package game

import (
	"context"
	"math"
	"slices"
	"testing"

	"exptrain/internal/agents"
	"exptrain/internal/belief"
	"exptrain/internal/dataset"
	"exptrain/internal/errgen"
	"exptrain/internal/fd"
	"exptrain/internal/sampling"
	"exptrain/internal/stats"
)

// buildWorld creates a dirtied relation with two planted FDs, a
// hypothesis space, and a candidate pool — a miniature of the §C setup.
func buildWorld(t *testing.T, seed uint64) (*dataset.Relation, *fd.Space, *sampling.Pool, *errgen.Result) {
	t.Helper()
	clean := dataset.New(dataset.MustSchema("a", "b", "c", "d"))
	gen := stats.NewRNG(seed ^ 0xD00D)
	for i := 0; i < 120; i++ {
		a := string(rune('0' + gen.Intn(6)))
		c := string(rune('A' + gen.Intn(5)))
		clean.MustAppend(dataset.Tuple{a, "fb" + a, c, string(rune('x' + gen.Intn(3)))})
	}
	planted := fd.MustNew(fd.NewAttrSet(0), 1)
	res, err := errgen.InjectDegree(clean, errgen.DegreeConfig{
		FDs: []fd.FD{planted}, Degree: 0.1, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	space := fd.MustNewSpace(fd.MustEnumerate(fd.SpaceConfig{Arity: 4, MaxLHS: 2}))
	pool := sampling.NewPool(res.Rel, space, sampling.PoolConfig{Seed: seed})
	return res.Rel, space, pool, res
}

// Run is RunContext without cancellation, the tests' shorthand.
func Run(rel *dataset.Relation, trainer agents.Trainer, learner *agents.Learner, pool *sampling.Pool, cfg Config) (*Result, error) {
	return RunContext(context.Background(), rel, trainer, learner, pool, cfg)
}

// Total returns the number of recorded labelings. Every round records
// exactly one labeling per presented pair, so it also counts the
// presented examples.
func (f *Frequencies) Total() int { return f.labelCounts[0] + f.labelCounts[1] }

func TestRunBasicProtocol(t *testing.T) {
	rel, space, pool, _ := buildWorld(t, 1)
	rng := stats.NewRNG(2)
	trainer := agents.NewFPTrainer(belief.RandomPrior(space, rng.Split(), 0.1), nil)
	learner := agents.NewLearner(belief.DataEstimatePrior(space, rel, 0.1), sampling.Random{}, rng.Split())

	res, err := Run(rel, trainer, learner, pool, Config{K: 10, Iterations: 15})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Iterations) != 15 {
		t.Fatalf("ran %d iterations, want 15", len(res.Iterations))
	}
	for i, it := range res.Iterations {
		if len(it.Presented) != 10 {
			t.Fatalf("iteration %d presented %d pairs", i, len(it.Presented))
		}
		if len(it.Labeled) != 10 {
			t.Fatalf("iteration %d labeled %d pairs", i, len(it.Labeled))
		}
		if it.MAE < 0 || it.MAE > 1 {
			t.Fatalf("iteration %d MAE out of range: %v", i, it.MAE)
		}
		if it.TrainerPayoff < 0 || it.TrainerPayoff > 10 {
			t.Fatalf("iteration %d trainer payoff out of range: %v", i, it.TrainerPayoff)
		}
	}
	if res.Frequencies.Total() != 150 {
		t.Fatalf("frequencies recorded %d actions", res.Frequencies.Total())
	}
}

func TestRunFreshExamplesEachIteration(t *testing.T) {
	rel, space, pool, _ := buildWorld(t, 3)
	rng := stats.NewRNG(4)
	trainer := agents.NewFPTrainer(belief.RandomPrior(space, rng.Split(), 0.1), nil)
	learner := agents.NewLearner(belief.DataEstimatePrior(space, rel, 0.1), sampling.StochasticUS{}, rng.Split())

	res, err := Run(rel, trainer, learner, pool, Config{K: 10, Iterations: 20})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[dataset.Pair]bool{}
	for i, it := range res.Iterations {
		for _, p := range it.Presented {
			if seen[p] {
				t.Fatalf("iteration %d re-presented pair %v", i, p)
			}
			seen[p] = true
		}
	}
}

func TestRunMAEDecreases(t *testing.T) {
	// With an FP trainer and a label-driven learner, belief agreement
	// should improve substantially over the run (paper's headline
	// dynamic).
	rel, space, pool, _ := buildWorld(t, 5)
	rng := stats.NewRNG(6)
	trainer := agents.NewFPTrainer(belief.RandomPrior(space, rng.Split(), 0.1), nil)
	learner := agents.NewLearner(belief.DataEstimatePrior(space, rel, 0.1), sampling.Random{}, rng.Split())

	res, err := Run(rel, trainer, learner, pool, Config{K: 10, Iterations: 30})
	if err != nil {
		t.Fatal(err)
	}
	first := res.Iterations[0].MAE
	last := res.FinalMAE()
	if last >= first {
		t.Fatalf("MAE did not decrease: first %v, last %v", first, last)
	}
	if last > 0.35 {
		t.Fatalf("final MAE %v too high for a converging run", last)
	}
}

func TestRunWithEvaluator(t *testing.T) {
	rel, space, pool, ground := buildWorld(t, 7)
	rng := stats.NewRNG(8)
	// Hold out 30% as a test split.
	_, testRows := rel.Split(rng.Split(), 0.7)
	testRel := rel.Subset(testRows)
	dirty := map[int]struct{}{}
	for newIdx, orig := range testRows {
		if _, bad := ground.DirtyRows[orig]; bad {
			dirty[newIdx] = struct{}{}
		}
	}
	eval := &Evaluator{TestRel: testRel, DirtyRows: dirty}

	trainer := agents.NewFPTrainer(belief.RandomPrior(space, rng.Split(), 0.1), nil)
	learner := agents.NewLearner(belief.DataEstimatePrior(space, rel, 0.1), sampling.Random{}, rng.Split())
	res, err := Run(rel, trainer, learner, pool, Config{K: 10, Iterations: 30, Eval: eval})
	if err != nil {
		t.Fatal(err)
	}
	f1s := res.F1Series()
	if len(f1s) != 30 {
		t.Fatalf("F1 series length %d", len(f1s))
	}
	for i, v := range f1s {
		if v < 0 || v > 1 {
			t.Fatalf("iteration %d F1 out of range: %v", i, v)
		}
	}
	// By the end the learner should detect planted errors well: the
	// believed FD a→b flags exactly the corrupted rows' minority values.
	if f1s[len(f1s)-1] <= 0.5 {
		t.Fatalf("final detection F1 %v too low", f1s[len(f1s)-1])
	}
}

func TestRunSpaceMismatch(t *testing.T) {
	rel, space, pool, _ := buildWorld(t, 9)
	small := fd.MustNewSpace(fd.MustEnumerate(fd.SpaceConfig{Arity: 4, MaxLHS: 1}))
	rng := stats.NewRNG(10)
	trainer := agents.NewFPTrainer(belief.UniformPrior(space, 0.5, 0.1), nil)
	learner := agents.NewLearner(belief.UniformPrior(small, 0.5, 0.1), sampling.Random{}, rng)
	if _, err := Run(rel, trainer, learner, pool, Config{}); err == nil {
		t.Fatal("mismatched spaces should error")
	}
}

func TestRunPoolExhaustion(t *testing.T) {
	// A tiny pool ends the game early rather than looping or panicking.
	rel := dataset.New(dataset.MustSchema("a", "b"))
	for i := 0; i < 6; i++ {
		rel.MustAppend(dataset.Tuple{string(rune('0' + i%2)), "v"})
	}
	space := fd.MustNewSpace([]fd.FD{fd.MustNew(fd.NewAttrSet(0), 1)})
	pool := sampling.NewPool(rel, space, sampling.PoolConfig{RandomPairs: 1, Seed: 1})
	rng := stats.NewRNG(2)
	trainer := agents.NewFPTrainer(belief.UniformPrior(space, 0.5, 0.1), nil)
	learner := agents.NewLearner(belief.UniformPrior(space, 0.5, 0.1), sampling.Random{}, rng)
	res, err := Run(rel, trainer, learner, pool, Config{K: 4, Iterations: 100})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Iterations) >= 100 {
		t.Fatalf("game did not stop on pool exhaustion: %d iterations", len(res.Iterations))
	}
}

func TestRunDeterministicForSeed(t *testing.T) {
	run := func() []float64 {
		rel, space, pool, _ := buildWorld(t, 11)
		rng := stats.NewRNG(12)
		trainer := agents.NewFPTrainer(belief.RandomPrior(space, rng.Split(), 0.1), nil)
		learner := agents.NewLearner(belief.DataEstimatePrior(space, rel, 0.1), sampling.StochasticUS{}, rng.Split())
		res, err := Run(rel, trainer, learner, pool, Config{K: 10, Iterations: 10})
		if err != nil {
			t.Fatal(err)
		}
		return res.MAESeries()
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at iteration %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// TestConvergenceProposition1 exercises the empirical content of
// Proposition 1: with (FP, Best) trainer and (FP, StochasticBR) learner,
// the empirical behaviour stabilizes — over the last five interactions
// neither agent's belief moves (MAE between consecutive confidence
// vectors) by more than 0.02.
func TestConvergenceProposition1(t *testing.T) {
	rel, space, pool, _ := buildWorld(t, 13)
	rng := stats.NewRNG(14)
	trainer := agents.NewFPTrainer(belief.RandomPrior(space, rng.Split(), 0.1), nil)
	learner := agents.NewLearner(belief.DataEstimatePrior(space, rel, 0.1), sampling.StochasticBR{}, rng.Split())

	const k, iterations, window, tol = 10, 60, 5, 0.02
	var trMove, leMove []float64
	trPrev, lePrev := trainer.Belief().Confidences(), learner.Belief().Confidences()
	for i := 0; i < iterations && pool.RemainingCount() > 0; i++ {
		presented := pool.Show(learner.Present(pool.Candidates(), k))
		trainer.Observe(rel, presented)
		labeled := trainer.Label(rel, presented)
		learner.Incorporate(rel, labeled)
		trCur, leCur := trainer.Belief().Confidences(), learner.Belief().Confidences()
		trMove = append(trMove, movement(trPrev, trCur))
		leMove = append(leMove, movement(lePrev, leCur))
		trPrev, lePrev = trCur, leCur
	}
	if len(trMove) < window || slices.Max(trMove[len(trMove)-window:]) > tol || slices.Max(leMove[len(leMove)-window:]) > tol {
		t.Fatalf("game did not converge; trainer tail %v learner tail %v",
			tail(trMove, window), tail(leMove, window))
	}
}

// movement is the MAE between an agent's consecutive confidence vectors.
func movement(prev, cur []float64) float64 {
	var s float64
	for i := range cur {
		s += math.Abs(cur[i] - prev[i])
	}
	return s / float64(len(cur))
}

func tail(xs []float64, n int) []float64 {
	if len(xs) < n {
		return xs
	}
	return xs[len(xs)-n:]
}

func TestFrequencies(t *testing.T) {
	f := &Frequencies{}
	p1 := dataset.NewPair(0, 1)
	p2 := dataset.NewPair(1, 2)
	mark := fd.NewAttrSet(1)
	f.Record([]belief.Labeling{{Pair: p1, Marked: mark}, {Pair: p2}})
	f.Record([]belief.Labeling{{Pair: p1, Marked: mark}})
	if got := f.DirtyRate(); math.Abs(got-2.0/3.0) > 1e-12 {
		t.Errorf("DirtyRate = %v", got)
	}
	if f.Total() != 3 {
		t.Errorf("Total = %d, want 3", f.Total())
	}
	if (&Frequencies{}).DirtyRate() != 0 {
		t.Error("empty frequencies should be zero")
	}
}

func TestPayoffs(t *testing.T) {
	rel, space, _, _ := buildWorld(t, 15)
	b := belief.UniformPrior(space, 0.5, 0.1)
	p := dataset.NewPair(0, 1)
	labeled := []belief.Labeling{{Pair: p}}
	// Uniform belief: label payoff is PDirty or its complement; both in
	// [0,1], and u_T for one labeling equals the label payoff.
	uT := TrainerPayoff(b, rel, labeled)
	if uT != b.LabelPayoff(rel, p, belief.Clean) {
		t.Fatalf("TrainerPayoff = %v", uT)
	}
}
