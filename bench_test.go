// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation, plus the ablations called out in DESIGN.md and
// micro-benchmarks for the hot substrate operations.
//
// The figure benchmarks replay the §C.1 conditions at a reduced scale
// (fewer averaging runs than cmd/etbench) and report the reproduced
// summary numbers as custom metrics: MAE-final and MAE-mean per
// sampling method for the convergence figures, F1-final for Figure 7,
// MRR for Figure 2, and f1-drift for Table 3. Run:
//
//	go test -bench=. -benchmem
package exptrain

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"exptrain/internal/agents"
	"exptrain/internal/belief"
	"exptrain/internal/datagen"
	"exptrain/internal/dataset"
	"exptrain/internal/errgen"
	"exptrain/internal/experiments"
	"exptrain/internal/fd"
	"exptrain/internal/game"
	"exptrain/internal/sampling"
	"exptrain/internal/stats"
	"exptrain/internal/userstudy"
)

// benchRuns is the averaging factor for figure benchmarks — smaller
// than the CLI default so the full bench suite stays fast.
const benchRuns = 2

// reportCondition runs one experimental condition per b.N and reports
// each method's summary metrics.
func reportCondition(b *testing.B, cfg experiments.Config) {
	b.Helper()
	var res *experiments.Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, m := range res.Methods {
		b.ReportMetric(m.FinalMAE(), "MAEfinal-"+m.Method)
		b.ReportMetric(m.FinalF1(), "F1final-"+m.Method)
	}
}

func condition(dataset string, degree float64, learner belief.PriorSpec) experiments.Config {
	return experiments.Config{
		Dataset:      dataset,
		Degree:       degree,
		TrainerPrior: belief.PriorSpec{Kind: belief.PriorRandom},
		LearnerPrior: learner,
		Runs:         benchRuns,
		BaseSeed:     1,
	}
}

var (
	benchDataEstimate = belief.PriorSpec{Kind: belief.PriorDataEstimate}
	benchUniform09    = belief.PriorSpec{Kind: belief.PriorUniform, D: 0.9}
	benchRandom       = belief.PriorSpec{Kind: belief.PriorRandom}
)

// BenchmarkFigure1MAEOMDBDataEstimate regenerates Figure 1: MAE on OMDB
// at ≈10% violations, trainer prior Random, learner prior Data-estimate.
func BenchmarkFigure1MAEOMDBDataEstimate(b *testing.B) {
	reportCondition(b, condition("OMDB", 0.10, benchDataEstimate))
}

// BenchmarkFigure3MAEOMDBUniform regenerates Figure 3: the same
// condition with an uninformed Uniform-0.9 learner prior.
func BenchmarkFigure3MAEOMDBUniform(b *testing.B) {
	reportCondition(b, condition("OMDB", 0.10, benchUniform09))
}

// BenchmarkFigure4MAEAllDatasetsDataEstimate regenerates Figure 4: MAE
// at ≈20% violations with a Data-estimate learner prior, one
// sub-benchmark per dataset.
func BenchmarkFigure4MAEAllDatasetsDataEstimate(b *testing.B) {
	for _, name := range datagen.AllNames() {
		b.Run(name, func(b *testing.B) {
			reportCondition(b, condition(name, 0.20, benchDataEstimate))
		})
	}
}

// BenchmarkFigure5MAEAllDatasetsUniform regenerates Figure 5: MAE at
// ≈20% violations with the Uniform-0.9 learner prior.
func BenchmarkFigure5MAEAllDatasetsUniform(b *testing.B) {
	for _, name := range datagen.AllNames() {
		b.Run(name, func(b *testing.B) {
			reportCondition(b, condition(name, 0.20, benchUniform09))
		})
	}
}

// BenchmarkFigure6ViolationDegreeSweep regenerates Figure 6: MAE on
// OMDB with Uniform-0.9 learner prior at violation degrees ≈5/15/25%.
func BenchmarkFigure6ViolationDegreeSweep(b *testing.B) {
	for _, degree := range []float64{0.05, 0.15, 0.25} {
		b.Run(fmt.Sprintf("degree=%.0f%%", degree*100), func(b *testing.B) {
			reportCondition(b, condition("OMDB", degree, benchUniform09))
		})
	}
}

// BenchmarkFigure7F1ErrorDetection regenerates Figure 7: error-
// detection F1 on OMDB, Hospital and Tax at ≈20% violations with both
// priors Random.
func BenchmarkFigure7F1ErrorDetection(b *testing.B) {
	for _, name := range []string{"OMDB", "Hospital", "Tax"} {
		b.Run(name, func(b *testing.B) {
			reportCondition(b, condition(name, 0.20, benchRandom))
		})
	}
}

// studyForBench simulates the user study once per b.N.
func studyForBench(b *testing.B, participants int) *userstudy.Study {
	b.Helper()
	var study *userstudy.Study
	for i := 0; i < b.N; i++ {
		var err error
		study, err = userstudy.Simulate(userstudy.StudyConfig{
			Participants: participants,
			Rows:         160,
			Seed:         1,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	return study
}

// BenchmarkTable3UserHypothesisDrift regenerates Table 3: the average
// f1-score change of declared hypotheses between labeling rounds, per
// scenario.
func BenchmarkTable3UserHypothesisDrift(b *testing.B) {
	study := studyForBench(b, 12)
	drift := userstudy.HypothesisDrift(study)
	for id := 1; id <= 5; id++ {
		b.ReportMetric(drift[id], fmt.Sprintf("f1drift-s%d", id))
	}
}

// BenchmarkFigure2LearningModelMRR regenerates Figure 2: MRR@5 of the
// FP/Bayesian and hypothesis-testing models per scenario.
func BenchmarkFigure2LearningModelMRR(b *testing.B) {
	study := studyForBench(b, 12)
	fits, err := userstudy.FitModels(study)
	if err != nil {
		b.Fatal(err)
	}
	for _, f := range fits {
		for id := 1; id <= 5; id++ {
			b.ReportMetric(f.MRR[id], fmt.Sprintf("MRR-%s-s%d", f.Model, id))
		}
	}
}

// BenchmarkAblationGamma sweeps the exploration temperature γ of
// stochastic uncertainty sampling (DESIGN.md ablation): γ→0
// approximates greedy US, large γ approximates random sampling.
func BenchmarkAblationGamma(b *testing.B) {
	for _, gamma := range []float64{0.05, 0.25, 0.5, 1, 2} {
		b.Run(fmt.Sprintf("gamma=%v", gamma), func(b *testing.B) {
			cfg := condition("OMDB", 0.10, benchDataEstimate)
			cfg.Gamma = gamma
			reportCondition(b, cfg)
		})
	}
}

// BenchmarkAblationPriors crosses trainer × learner prior families at
// ≈10% violations on OMDB.
func BenchmarkAblationPriors(b *testing.B) {
	priors := map[string]belief.PriorSpec{
		"Random":        benchRandom,
		"Data-estimate": benchDataEstimate,
		"Uniform-0.9":   benchUniform09,
	}
	for tn, tp := range priors {
		for ln, lp := range priors {
			b.Run(fmt.Sprintf("trainer=%s/learner=%s", tn, ln), func(b *testing.B) {
				cfg := condition("OMDB", 0.10, lp)
				cfg.TrainerPrior = tp
				reportCondition(b, cfg)
			})
		}
	}
}

// BenchmarkAblationStationaryTrainer replays the Figure 1 condition
// against a *stationary* trainer — the annotator classic active
// learning assumes. It isolates the paper's core claim: US's weakness
// comes from the trainer's learning, not from uncertainty sampling
// itself.
func BenchmarkAblationStationaryTrainer(b *testing.B) {
	for _, method := range []string{"Random", "US", "StochasticBR", "StochasticUS"} {
		b.Run(method, func(b *testing.B) {
			var final float64
			for i := 0; i < b.N; i++ {
				final = runStationaryGame(b, method)
			}
			b.ReportMetric(final, "MAEfinal")
		})
	}
}

// runStationaryGame plays one game against a trainer whose belief is
// fixed at the data estimate and returns the final MAE.
func runStationaryGame(b *testing.B, method string) float64 {
	b.Helper()
	ds := datagen.OMDB(240, 1)
	injected, err := errgen.InjectDegree(ds.Rel, errgen.DegreeConfig{
		FDs: ds.ExactFDs, Degree: 0.10, Seed: 2,
	})
	if err != nil {
		b.Fatal(err)
	}
	rel := injected.Rel
	space := ds.Space(3, 38)
	rng := stats.NewRNG(3)
	trainer := agents.NewStationaryTrainer(belief.DataEstimatePrior(space, rel, 0.12))
	sampler, err := sampling.ByName(method, 0.5)
	if err != nil {
		b.Fatal(err)
	}
	learner := agents.NewLearner(belief.UniformPrior(space, 0.5, 0.12), sampler, rng.Split())
	pool := sampling.NewPool(rel, space, sampling.PoolConfig{Seed: 4})
	res, err := game.RunContext(context.Background(), rel, trainer, learner, pool, game.Config{})
	if err != nil {
		b.Fatal(err)
	}
	return res.FinalMAE()
}

// BenchmarkSessionRound measures one step-wise session round — present,
// label, incorporate, measure — through the same round engine
// game.RunContext uses, at the paper's shape (OMDB, StochasticUS, 38-FD
// space).
func BenchmarkSessionRound(b *testing.B) {
	ds := datagen.OMDB(240, 1)
	benchSessionRound(b, ds, ds.Space(3, 38))
}

// BenchmarkSessionRoundService is BenchmarkSessionRound at the session
// service's default shape: the 147-FD MaxLHS-2 enumeration, whose
// violation masks span three words.
func BenchmarkSessionRoundService(b *testing.B) {
	ds := datagen.OMDB(240, 1)
	benchSessionRound(b, ds, serviceSpace(b, ds))
}

// BenchmarkSessionCreate measures what a new session costs before its
// first pairs reach the annotator, at the session service's default
// shape (OMDB-240, the 147-FD MaxLHS-2 enumeration): game.NewSession,
// which builds the prior and the candidate pool, plus the first Next,
// which groups the pool by agree set and selects the first round.
func BenchmarkSessionCreate(b *testing.B) {
	ds := datagen.OMDB(240, 1)
	space := serviceSpace(b, ds)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sess, err := game.NewSession(game.SessionConfig{
			Relation: ds.Rel,
			Space:    space,
			Sampler:  sampling.StochasticUS{},
			K:        10,
			Seed:     1,
		})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sess.Next(); err != nil {
			b.Fatal(err)
		}
	}
}

func benchSessionRound(b *testing.B, ds *datagen.Dataset, space *fd.Space) {
	newSession := func(seed uint64) *game.Session {
		sess, err := game.NewSession(game.SessionConfig{
			Relation: ds.Rel,
			Space:    space,
			Sampler:  sampling.StochasticUS{},
			K:        10,
			Seed:     seed,
		})
		if err != nil {
			b.Fatal(err)
		}
		return sess
	}
	sess := newSession(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		err := playRound(sess)
		if errors.Is(err, game.ErrPoolExhausted) {
			b.StopTimer()
			sess = newSession(uint64(i) + 2)
			b.StartTimer()
			err = playRound(sess)
		}
		if err != nil {
			b.Fatal(err)
		}
	}
}

// --- micro-benchmarks for the substrate hot paths ---

func benchRelation(n int) (*dataset.Relation, fd.FD) {
	rel := dataset.New(dataset.MustSchema("a", "b", "c", "d"))
	rng := stats.NewRNG(9)
	for i := 0; i < n; i++ {
		a := fmt.Sprint(rng.Intn(n / 10))
		rel.MustAppend(dataset.Tuple{a, "f" + a, fmt.Sprint(rng.Intn(7)), fmt.Sprint(rng.Intn(3))})
	}
	return rel, fd.MustNew(fd.NewAttrSet(0), 1)
}

// BenchmarkG1 measures the grouped g₁ computation on a 10k-row
// relation.
func BenchmarkG1(b *testing.B) {
	rel, f := benchRelation(10000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fd.ComputeStats(f, rel)
	}
}

// BenchmarkDiscovery measures lattice discovery with partition
// refinement on a 2k-row, 4-attribute relation.
func BenchmarkDiscovery(b *testing.B) {
	rel, _ := benchRelation(2000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fd.Discover(rel, fd.DiscoveryConfig{MaxG1: 0.01, MaxLHS: 3}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBeliefUpdate measures the learner's labeling update over a
// 38-FD space and 10 labelings.
func BenchmarkBeliefUpdate(b *testing.B) {
	ds := datagen.OMDB(240, 1)
	space := ds.Space(3, 38)
	bel := belief.UniformPrior(space, 0.5, 0.12)
	labelings := make([]belief.Labeling, 10)
	for i := range labelings {
		labelings[i] = belief.Labeling{Pair: dataset.NewPair(i, i+20)}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bel.UpdateFromLabelings(ds.Rel, labelings, 1)
	}
}

// BenchmarkSamplerSelect measures one StochasticUS selection from a
// realistic pool.
func BenchmarkSamplerSelect(b *testing.B) {
	ds := datagen.OMDB(240, 1)
	space := ds.Space(3, 38)
	bel := belief.DataEstimatePrior(space, ds.Rel, 0.12)
	pool := sampling.NewPool(ds.Rel, space, sampling.PoolConfig{Seed: 1})
	rng := stats.NewRNG(2)
	s := sampling.StochasticUS{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Select(pool.Candidates(), bel, 10, rng)
	}
}

// BenchmarkErrorInjection measures degree-targeted injection on a
// 1k-row relation.
func BenchmarkErrorInjection(b *testing.B) {
	rel, f := benchRelation(1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := errgen.InjectDegree(rel, errgen.DegreeConfig{
			FDs: []fd.FD{f}, Degree: 0.1, Seed: uint64(i),
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFullGame measures one complete 30-iteration game.
func BenchmarkFullGame(b *testing.B) {
	ds := datagen.OMDB(240, 1)
	injected, err := errgen.InjectDegree(ds.Rel, errgen.DegreeConfig{
		FDs: ds.ExactFDs, Degree: 0.10, Seed: 2,
	})
	if err != nil {
		b.Fatal(err)
	}
	space := ds.Space(3, 38)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rng := stats.NewRNG(uint64(i))
		trainer := agents.NewFPTrainer(belief.RandomPrior(space, rng.Split(), 0.12), nil)
		learner := agents.NewLearner(
			belief.DataEstimatePrior(space, injected.Rel, 0.12),
			sampling.StochasticUS{}, rng.Split())
		pool := sampling.NewPool(injected.Rel, space, sampling.PoolConfig{Seed: uint64(i)})
		if _, err := game.RunContext(context.Background(), injected.Rel, trainer, learner, pool, game.Config{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure6AgreementCompanion regenerates the paper's prose
// companion to Figure 6: with trainer and learner priors in agreement,
// the violation degree stops mattering — MAE stays flat across degrees.
func BenchmarkFigure6AgreementCompanion(b *testing.B) {
	for _, degree := range []float64{0.05, 0.15, 0.25} {
		b.Run(fmt.Sprintf("degree=%.0f%%", degree*100), func(b *testing.B) {
			cfg := condition("OMDB", degree, benchRandom)
			cfg.SharedPrior = true
			reportCondition(b, cfg)
		})
	}
}

// BenchmarkAblationForgetting compares the plain learner against
// discounted fictitious play (geometric evidence forgetting) under the
// Figure 3 condition, where the learner must escape a wrong prior —
// forgetting is the classic remedy for non-stationarity (Young 2004).
func BenchmarkAblationForgetting(b *testing.B) {
	for _, rate := range []float64{0, 0.02, 0.05, 0.1} {
		b.Run(fmt.Sprintf("forget=%v", rate), func(b *testing.B) {
			cfg := condition("OMDB", 0.10, benchUniform09)
			cfg.LearnerForgetRate = rate
			cfg.Methods = []sampling.Method{sampling.MethodStochasticUS}
			reportCondition(b, cfg)
		})
	}
}

// BenchmarkAblationExtendedSamplers positions the paper's strategies
// against query-by-committee and ε-greedy exploration under both prior
// regimes.
func BenchmarkAblationExtendedSamplers(b *testing.B) {
	conditions := map[string]belief.PriorSpec{
		"informed":   benchDataEstimate,
		"uninformed": benchUniform09,
	}
	for name, prior := range conditions {
		b.Run(name, func(b *testing.B) {
			cfg := condition("OMDB", 0.10, prior)
			cfg.Methods = []sampling.Method{sampling.MethodRandom, sampling.MethodUS, sampling.MethodStochasticUS, sampling.MethodQBC, sampling.MethodEpsilonGreedy}
			reportCondition(b, cfg)
		})
	}
}

// BenchmarkGameScaling measures full-game cost as the relation grows.
// The rows=100000 case exists because the pool builder no longer
// materializes agreeing-pair lists and the round path no longer
// rebuilds partitions per edit; before those changes it did not finish.
// It is excluded from `make bench` timing sweeps and pinned at one
// iteration in `make benchbaseline` (see BENCH_PLIIncremental.json).
func BenchmarkGameScaling(b *testing.B) {
	for _, rows := range []int{120, 240, 480, 960, 100000} {
		b.Run(fmt.Sprintf("rows=%d", rows), func(b *testing.B) {
			ds := datagen.OMDB(rows, 1)
			injected, err := errgen.InjectDegree(ds.Rel, errgen.DegreeConfig{
				FDs: ds.ExactFDs, Degree: 0.10, Seed: 2, MaxChanges: rows / 3,
			})
			if err != nil {
				b.Fatal(err)
			}
			space := ds.Space(3, 38)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rng := stats.NewRNG(uint64(i))
				trainer := agents.NewFPTrainer(belief.RandomPrior(space, rng.Split(), 0.12), nil)
				learner := agents.NewLearner(
					belief.DataEstimatePrior(space, injected.Rel, 0.12),
					sampling.StochasticUS{}, rng.Split())
				pool := sampling.NewPool(injected.Rel, space, sampling.PoolConfig{Seed: uint64(i)})
				if _, err := game.RunContext(context.Background(), injected.Rel, trainer, learner, pool, game.Config{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRevision measures the cost of revising one cell and then
// re-evaluating every hypothesis of a 38-FD space — the steady-state
// shape of a game round after the trainer corrects the data. The
// incremental case keeps one warm PLI cache across edits (single-tuple
// delta replay plus selective stats eviction); the rebuild case pays
// the pre-delta-protocol price of a wholesale invalidation: every LHS
// partition and every stat recomputed from scratch.
func BenchmarkRevision(b *testing.B) {
	const rows = 960
	ds := datagen.OMDB(rows, 1)
	space := ds.Space(3, 38)
	fds := space.FDs()
	sweep := func(cache *fd.PLICache) {
		for _, f := range fds {
			cache.Stats(f)
		}
	}
	b.Run("incremental", func(b *testing.B) {
		rel := ds.Rel.Clone()
		cache := fd.NewPLICache(rel)
		sweep(cache)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rel.SetValue(i%rows, 2, fmt.Sprintf("Genre-%d", i%6))
			sweep(cache)
		}
	})
	b.Run("rebuild", func(b *testing.B) {
		rel := ds.Rel.Clone()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rel.SetValue(i%rows, 2, fmt.Sprintf("Genre-%d", i%6))
			sweep(fd.NewPLICache(rel))
		}
	})
}
