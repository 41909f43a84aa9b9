package experiments

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	"exptrain/internal/belief"
	"exptrain/internal/sampling"
)

func TestRunWithMethodOverride(t *testing.T) {
	cfg := quickConfig("OMDB", belief.PriorSpec{Kind: belief.PriorDataEstimate})
	cfg.Methods = []sampling.Method{sampling.MethodQBC, sampling.MethodEpsilonGreedy}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Methods) != 2 {
		t.Fatalf("got %d methods", len(res.Methods))
	}
	if res.Methods[0].Method != "QBC" || res.Methods[1].Method != "EpsilonGreedy" {
		t.Fatalf("method names: %v, %v", res.Methods[0].Method, res.Methods[1].Method)
	}
	for _, m := range res.Methods {
		if len(m.MAE) == 0 {
			t.Fatalf("%s produced no series", m.Method)
		}
	}
}

func TestRunWithUnknownMethod(t *testing.T) {
	cfg := quickConfig("OMDB", belief.PriorSpec{Kind: belief.PriorRandom})
	cfg.Methods = []sampling.Method{sampling.Method(99)}
	if _, err := Run(cfg); !errors.Is(err, sampling.ErrUnknownMethod) {
		t.Fatal("unknown method should error with sampling.ErrUnknownMethod")
	}
}

// TestRunContextRejectsBadGamma: a negative or non-finite temperature
// is an error before any game starts, not a panic inside one.
func TestRunContextRejectsBadGamma(t *testing.T) {
	for _, gamma := range []float64{-1, math.Inf(1), math.NaN()} {
		cfg := quickConfig("OMDB", belief.PriorSpec{Kind: belief.PriorRandom})
		cfg.Gamma = gamma
		if _, err := RunContext(context.Background(), cfg); !errors.Is(err, sampling.ErrBadGamma) {
			t.Fatalf("gamma %v: err = %v, want sampling.ErrBadGamma", gamma, err)
		}
	}
}

func TestSharedPriorStartsInAgreement(t *testing.T) {
	cfg := quickConfig("OMDB", belief.PriorSpec{Kind: belief.PriorUniform, D: 0.9})
	cfg.SharedPrior = true
	cfg.Methods = []sampling.Method{sampling.MethodRandom}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// With identical priors the first-iteration MAE reflects only one
	// interaction's worth of asymmetric evidence (the trainer digests
	// all cross pairs of the sample, the learner only the labels) —
	// well below the Uniform-0.9-vs-Random disagreement regime (~0.3).
	if first := res.Methods[0].MAE[0]; first > 0.2 {
		t.Fatalf("shared priors should start nearly agreed; first MAE %v", first)
	}
}

// TestAgreementDegreeInsensitive reproduces the paper's prose claim
// next to Figure 6: with agreeing priors, increasing the violation
// degree does not considerably impact convergence.
func TestAgreementDegreeInsensitive(t *testing.T) {
	if testing.Short() {
		t.Skip("needs multiple degrees")
	}
	results, err := Figure6Agreement(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("got %d degree conditions", len(results))
	}
	// Compare StochasticUS across degrees: the spread must be small
	// relative to the disagreeing-prior spread of Figure 6.
	var maes []float64
	for _, res := range results {
		for _, m := range res.Methods {
			if m.Method == "StochasticUS" {
				maes = append(maes, m.MeanMAE())
			}
		}
	}
	lo, hi := maes[0], maes[0]
	for _, v := range maes {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if hi-lo > 0.05 {
		t.Fatalf("agreement regime should be degree-insensitive; meanMAE spread %v (%v)", hi-lo, maes)
	}
	// Absolute level: the transient gap (the trainer sees all cross
	// pairs, the learner only labels) keeps meanMAE modest but nonzero.
	if hi > 0.2 {
		t.Fatalf("agreement regime should converge; worst meanMAE %v", hi)
	}
}

func TestLearnerForgettingRuns(t *testing.T) {
	cfg := quickConfig("OMDB", belief.PriorSpec{Kind: belief.PriorDataEstimate})
	cfg.LearnerForgetRate = 0.05
	cfg.Methods = []sampling.Method{sampling.MethodStochasticUS}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range res.Methods[0].MAE {
		if v < 0 || v > 1 {
			t.Fatalf("forgetting run produced MAE %v", v)
		}
	}
}

func TestWriteSeriesCSV(t *testing.T) {
	cfg := quickConfig("OMDB", belief.PriorSpec{Kind: belief.PriorDataEstimate})
	cfg.Methods = []sampling.Method{sampling.MethodRandom}
	cfg.Runs = 1
	cfg.Iterations = 4
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := WriteSeriesCSV(&sb, res, MAEOf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if lines[0] != "iteration,Random" {
		t.Fatalf("header = %q", lines[0])
	}
	if len(lines) != 5 {
		t.Fatalf("got %d lines, want 5", len(lines))
	}
	if !strings.HasPrefix(lines[1], "1,0.") {
		t.Fatalf("first row = %q", lines[1])
	}
}
