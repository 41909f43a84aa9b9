package game

import (
	"math"
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
// the empirical behaviour stabilizes — both agents' beliefs stop moving.
func TestConvergenceProposition1(t *testing.T) {
	rel, space, pool, _ := buildWorld(t, 13)
	rng := stats.NewRNG(14)
	trainer := agents.NewFPTrainer(belief.RandomPrior(space, rng.Split(), 0.1), nil)
	learner := agents.NewLearner(belief.DataEstimatePrior(space, rel, 0.1), sampling.StochasticBR{}, rng.Split())

	var trMove, leMove MovementTracker
	cfg := Config{K: 10, Iterations: 60}
	// Run manually to track movement per iteration.
	trMove.Observe(trainer.Belief().Confidences())
	leMove.Observe(learner.Belief().Confidences())
	for i := 0; i < cfg.Iterations; i++ {
		if pool.RemainingCount() == 0 {
			break
		}
		presented := learner.Present(pool.Candidates(), cfg.K)
		pool.MarkShown(presented)
		trainer.Observe(rel, presented)
		labeled := trainer.Label(rel, presented)
		learner.Incorporate(rel, labeled)
		trMove.Observe(trainer.Belief().Confidences())
		leMove.Observe(learner.Belief().Confidences())
	}
	if !Converged(trMove.Series(), leMove.Series(), ConvergenceConfig{Tol: 0.02, Window: 5}) {
		t.Fatalf("game did not converge; trainer tail %v learner tail %v",
			tail(trMove.Series(), 5), tail(leMove.Series(), 5))
	}
}

func tail(xs []float64, n int) []float64 {
	if len(xs) < n {
		return xs
	}
	return xs[len(xs)-n:]
}

func TestConvergedEdgeCases(t *testing.T) {
	flat := []float64{0.001, 0.001, 0.001, 0.001, 0.001}
	if !Converged(flat, flat, ConvergenceConfig{Tol: 0.01, Window: 5}) {
		t.Fatal("flat series should converge")
	}
	if Converged(flat[:3], flat, ConvergenceConfig{Tol: 0.01, Window: 5}) {
		t.Fatal("short series should not converge")
	}
	spiky := []float64{0.001, 0.001, 0.001, 0.5, 0.001}
	if Converged(spiky, flat, ConvergenceConfig{Tol: 0.01, Window: 5}) {
		t.Fatal("spiky series should not converge")
	}
	// Defaults fill in.
	if !Converged(flat, flat, ConvergenceConfig{}) {
		t.Fatal("defaults should accept flat series")
	}
}

func TestFrequencies(t *testing.T) {
	f := NewFrequencies()
	p1 := dataset.NewPair(0, 1)
	p2 := dataset.NewPair(1, 2)
	mark := fd.NewAttrSet(1)
	f.Record([]dataset.Pair{p1, p2},
		[]belief.Labeling{{Pair: p1, Marked: mark}, {Pair: p2}})
	f.Record([]dataset.Pair{p1},
		[]belief.Labeling{{Pair: p1, Marked: mark}})
	if got := f.PairFrequency(p1); math.Abs(got-2.0/3.0) > 1e-12 {
		t.Errorf("PairFrequency(p1) = %v", got)
	}
	if got := f.DirtyRate(); math.Abs(got-2.0/3.0) > 1e-12 {
		t.Errorf("DirtyRate = %v", got)
	}
	empty := NewFrequencies()
	if empty.PairFrequency(p1) != 0 || empty.DirtyRate() != 0 {
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
	// u_a with nil policy weights defaults to weight 1.
	ua := LearnerActionPayoff(b, rel, labeled, nil)
	if ua != uT {
		t.Fatalf("LearnerActionPayoff = %v, want %v", ua, uT)
	}
	// Entropy bonus strictly increases payoff for a stochastic policy.
	policy := []float64{1}
	uL := LearnerPayoff(b, rel, labeled, policy, 0.5)
	if uL != LearnerActionPayoff(b, rel, labeled, policy) {
		t.Fatalf("deterministic policy has zero entropy; uL = %v", uL)
	}
	policy2 := []float64{0.5, 0.5}
	labeled2 := []belief.Labeling{
		{Pair: p},
		{Pair: dataset.NewPair(2, 3)},
	}
	uL2 := LearnerPayoff(b, rel, labeled2, policy2, 0.5)
	if uL2 <= LearnerActionPayoff(b, rel, labeled2, policy2) {
		t.Fatal("entropy bonus missing for mixed policy")
	}
}

func TestMovementTracker(t *testing.T) {
	var m MovementTracker
	m.Observe([]float64{0.5, 0.5})
	if len(m.Series()) != 0 {
		t.Fatal("first observation should not emit movement")
	}
	m.Observe([]float64{0.6, 0.4})
	s := m.Series()
	if len(s) != 1 || math.Abs(s[0]-0.1) > 1e-12 {
		t.Fatalf("movement = %v, want [0.1]", s)
	}
}
