// Package experiments implements the paper's evaluation harness (§C):
// one configuration per figure, each running the exploratory-training
// game for the four sampling methods over seeded synthetic datasets and
// reporting per-iteration MAE and error-detection F1 series averaged
// over several runs.
package experiments

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"exptrain/internal/agents"
	"exptrain/internal/belief"
	"exptrain/internal/datagen"
	"exptrain/internal/errgen"
	"exptrain/internal/game"
	"exptrain/internal/sampling"
	"exptrain/internal/stats"
)

// gameSem bounds the number of concurrently executing games across all
// conditions to the machine's parallelism: Run fans out over sampling
// methods and runMethod fans out over seeds, so without a shared bound
// the goroutine count would be methods × runs.
var gameSem = make(chan struct{}, runtime.GOMAXPROCS(0))

// Config drives one experimental condition: a dataset, a violation
// degree, the two agents' priors, and the game parameters of §C.1.
type Config struct {
	// Dataset is a paper dataset name ("OMDB", "AIRPORT", "Hospital",
	// "Tax").
	Dataset string
	// Rows sizes the generated relation (default 240).
	Rows int
	// Degree is the injected violation degree. A zero Degree with
	// DegreeSet false defaults to 0.1; negative values are rejected.
	Degree float64
	// DegreeSet marks Degree as intentionally specified. Degree == 0 is
	// a meaningful condition (a clean relation, no injection), but it is
	// also the zero value, so it only takes effect when DegreeSet is
	// true; otherwise the 0.1 default applies.
	DegreeSet bool
	// TrainerPrior and LearnerPrior configure the agents (§C.1 tests
	// Uniform-d, Random and Data-estimate).
	TrainerPrior belief.PriorSpec
	LearnerPrior belief.PriorSpec
	// Gamma is the stochastic samplers' temperature (default 0.5, §C.1).
	Gamma float64
	// K is examples per interaction (default 10); Iterations the number
	// of interactions (default 30).
	K, Iterations int
	// Runs is how many seeded repetitions to average (default 5).
	Runs int
	// BaseSeed offsets the per-run seeds.
	BaseSeed uint64
	// MaxLHS / MaxFDs size the hypothesis space (defaults 3 and 38,
	// §C.1).
	MaxLHS, MaxFDs int
	// PriorSigma widens or narrows the prior Betas (default
	// belief.DefaultPriorSigma).
	PriorSigma float64
	// Methods overrides the sampling methods compared (default: the
	// paper's Random, US, StochasticBR, StochasticUS). The extension
	// samplers MethodQBC and MethodEpsilonGreedy are accepted too.
	Methods []sampling.Method
	// LearnerForgetRate enables discounted fictitious play on the
	// learner (DESIGN.md ablation): evidence is geometrically discounted
	// by this rate before each update. Zero disables it.
	LearnerForgetRate float64
	// SharedPrior makes the learner start from an exact copy of the
	// trainer's prior — the paper's "models in agreement" companion
	// setting, where increasing the violation degree should not matter.
	SharedPrior bool
	// BelievedTau is the confidence threshold for exporting FDs to the
	// per-iteration detection evaluator. A zero BelievedTau with
	// BelievedTauSet false uses the game default (0.5); BelievedTauSet
	// makes an explicit 0 expressible, mirroring Degree/DegreeSet.
	BelievedTau    float64
	BelievedTauSet bool
}

func (c Config) withDefaults() Config {
	if c.Rows <= 0 {
		c.Rows = 240
	}
	if c.Degree == 0 && !c.DegreeSet { //etlint:ignore floatcmp zero value means unset; DegreeSet disambiguates a literal 0
		c.Degree = 0.1
	}
	if c.Gamma == 0 { //etlint:ignore floatcmp zero value means unset; callers assign literals
		c.Gamma = sampling.DefaultGamma
	}
	if c.K <= 0 {
		c.K = 10
	}
	if c.Iterations <= 0 {
		c.Iterations = 30
	}
	if c.Runs <= 0 {
		c.Runs = 5
	}
	if c.MaxLHS <= 0 {
		c.MaxLHS = 3
	}
	if c.MaxFDs == 0 {
		c.MaxFDs = 38
	}
	if c.PriorSigma == 0 { //etlint:ignore floatcmp zero value means unset; callers assign literals
		// §C does not pin the prior strength. σ = 0.12 (≈16 pseudo-
		// observations per hypothesis) lets 30 interactions of evidence
		// meaningfully move the priors; §A.2's σ = 0.05 is reserved for
		// the user-study prior configuration where it is specified.
		c.PriorSigma = 0.12
	}
	return c
}

// MethodSeries is the averaged trajectory of one sampling method under
// one condition.
type MethodSeries struct {
	Method    string
	MAE       stats.Series
	F1        stats.Series
	Precision stats.Series
	Recall    stats.Series
}

// FinalMAE returns the last point of the MAE curve (1 when empty).
func (m MethodSeries) FinalMAE() float64 {
	if len(m.MAE) == 0 {
		return 1
	}
	return m.MAE[len(m.MAE)-1]
}

// MeanMAE returns the average MAE across iterations — the area-under-
// curve summary used to compare convergence speed.
func (m MethodSeries) MeanMAE() float64 { return stats.Mean(m.MAE) }

// FinalF1 returns the last point of the F1 curve.
func (m MethodSeries) FinalF1() float64 {
	if len(m.F1) == 0 {
		return 0
	}
	return m.F1[len(m.F1)-1]
}

// Result is one condition's outcome: the four methods' series.
type Result struct {
	Config  Config
	Methods []MethodSeries
}

// Run executes the condition for all four sampling methods. Methods run
// concurrently (each already fans its seeded repetitions out), with
// total game concurrency bounded by GOMAXPROCS; results keep method
// order.
func Run(cfg Config) (*Result, error) {
	return RunContext(context.Background(), cfg)
}

// RunContext is Run with cancellation: the context is checked before
// every seeded game inside the method × run fan-out, so a canceled
// condition stops promptly instead of playing out its remaining games.
func RunContext(ctx context.Context, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	if cfg.Degree < 0 {
		return nil, fmt.Errorf("experiments: negative violation degree %v", cfg.Degree)
	}
	gen, err := datagen.ByName(cfg.Dataset)
	if err != nil {
		return nil, err
	}
	methods := cfg.Methods
	if len(methods) == 0 {
		methods = sampling.Methods()
	}
	for _, m := range methods {
		if _, err := sampling.New(m, cfg.Gamma); err != nil {
			return nil, fmt.Errorf("experiments: %w", err)
		}
	}
	series := make([]MethodSeries, len(methods))
	errs := make([]error, len(methods))
	var wg sync.WaitGroup
	for i, method := range methods {
		wg.Add(1)
		go func(i int, method sampling.Method) {
			defer wg.Done()
			s, err := runMethod(ctx, cfg, gen, method)
			if err != nil {
				errs[i] = fmt.Errorf("experiments: %s on %s: %w", method, cfg.Dataset, err)
				return
			}
			series[i] = s
		}(i, method)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return &Result{Config: cfg, Methods: series}, nil
}

// runMethod averages one method over cfg.Runs seeded games, running the
// seeds concurrently (each game is independent).
func runMethod(ctx context.Context, cfg Config, gen datagen.Generator, method sampling.Method) (MethodSeries, error) {
	maes := make([]stats.Series, cfg.Runs)
	f1s := make([]stats.Series, cfg.Runs)
	precs := make([]stats.Series, cfg.Runs)
	recs := make([]stats.Series, cfg.Runs)
	errs := make([]error, cfg.Runs)

	var wg sync.WaitGroup
	for run := 0; run < cfg.Runs; run++ {
		wg.Add(1)
		go func(run int) {
			defer wg.Done()
			gameSem <- struct{}{}
			defer func() { <-gameSem }()
			if err := ctx.Err(); err != nil {
				errs[run] = err
				return
			}
			out, err := runGame(ctx, cfg, gen, method, cfg.BaseSeed+uint64(run)*7919)
			if err != nil {
				errs[run] = err
				return
			}
			maes[run] = out.MAESeries()
			f1s[run] = out.F1Series()
			precs[run] = make(stats.Series, len(out.Iterations))
			recs[run] = make(stats.Series, len(out.Iterations))
			for i, it := range out.Iterations {
				precs[run][i] = it.Detection.Precision
				recs[run][i] = it.Detection.Recall
			}
		}(run)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return MethodSeries{}, err
		}
	}
	return MethodSeries{
		Method:    method.String(),
		MAE:       stats.AverageSeries(maes),
		F1:        stats.AverageSeries(f1s),
		Precision: stats.AverageSeries(precs),
		Recall:    stats.AverageSeries(recs),
	}, nil
}

// runGame plays one seeded game: generate, dirty, split, build agents,
// run the §C.1 interaction protocol.
func runGame(ctx context.Context, cfg Config, gen datagen.Generator, method sampling.Method, seed uint64) (*game.Result, error) {
	ds := gen(cfg.Rows, seed)
	// Degree 0 (with DegreeSet) is the clean-data condition: no
	// injection, empty ground-truth dirty set.
	rel := ds.Rel
	dirtyRows := map[int]struct{}{}
	if cfg.Degree > 0 {
		injected, err := errgen.InjectDegree(ds.Rel, errgen.DegreeConfig{
			FDs:        ds.ExactFDs,
			Degree:     cfg.Degree,
			MaxChanges: cfg.Rows / 3,
			Seed:       seed ^ 0xE44,
		})
		if err != nil {
			return nil, err
		}
		rel = injected.Rel
		dirtyRows = injected.DirtyRows
	}
	space := ds.Space(cfg.MaxLHS, cfg.MaxFDs)

	rng := stats.NewRNG(seed ^ 0x9A3E)
	// 30% held-out test split (§C.1).
	_, testRows := rel.Split(rng.Split(), 0.7)
	testRel := rel.Subset(testRows)
	dirty := make(map[int]struct{})
	for newIdx, orig := range testRows {
		if _, bad := dirtyRows[orig]; bad {
			dirty[newIdx] = struct{}{}
		}
	}

	trainerSpec, learnerSpec := cfg.TrainerPrior, cfg.LearnerPrior
	if trainerSpec.Sigma == 0 { //etlint:ignore floatcmp zero value means unset; callers assign literals
		trainerSpec.Sigma = cfg.PriorSigma
	}
	if learnerSpec.Sigma == 0 { //etlint:ignore floatcmp zero value means unset; callers assign literals
		learnerSpec.Sigma = cfg.PriorSigma
	}
	trainerPrior, err := trainerSpec.Build(space, rel, rng.Split())
	if err != nil {
		return nil, fmt.Errorf("trainer prior: %w", err)
	}
	learnerPrior, err := learnerSpec.Build(space, rel, rng.Split())
	if err != nil {
		return nil, fmt.Errorf("learner prior: %w", err)
	}
	if cfg.SharedPrior {
		learnerPrior = trainerPrior.Clone()
	}
	sampler, err := sampling.New(method, cfg.Gamma)
	if err != nil {
		return nil, err
	}

	trainer := agents.NewFPTrainer(trainerPrior, rng.Split())
	learner := agents.NewLearner(learnerPrior, sampler, rng.Split())
	learner.ForgetRate = cfg.LearnerForgetRate
	pool := sampling.NewPool(rel, space, sampling.PoolConfig{Seed: seed ^ 0x6001})

	return game.RunContext(ctx, rel, trainer, learner, pool, game.Config{
		K:              cfg.K,
		Iterations:     cfg.Iterations,
		Eval:           &game.Evaluator{TestRel: testRel, DirtyRows: dirty},
		BelievedTau:    cfg.BelievedTau,
		BelievedTauSet: cfg.BelievedTauSet,
	})
}
