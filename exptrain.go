// Package exptrain is a Go implementation of exploratory training
// (Shrestha, Habibelahian, Termehchy, Papotti — SIGMOD 2023): active
// learning in which the human annotator is itself a learning agent whose
// labeling strategy evolves as it observes data.
//
// The framework models one training session as a game between two
// agents. The *trainer* (the human) holds a belief over a hypothesis
// space of approximate functional dependencies, updates it by fictitious
// play as samples arrive, and annotates the presented tuple pairs in
// best response to that belief. The *learner* (the system) selects which
// pairs to present — fixed random sampling, greedy uncertainty sampling,
// or the paper's stochastic best response / stochastic uncertainty
// sampling — and updates its own belief from the annotations alone.
// Convergence is measured as the mean absolute error between the two
// belief vectors; model quality as error-detection F1 on a held-out
// split.
//
// This package is the public facade: it re-exports the stable API from
// the internal packages and provides the one-call RunSession helper.
// The cmd/ binaries regenerate every table and figure of the paper's
// evaluation; the examples/ directory shows end-to-end usage.
package exptrain

import (
	"context"
	"fmt"

	"exptrain/internal/agents"
	"exptrain/internal/belief"
	"exptrain/internal/datagen"
	"exptrain/internal/dataset"
	"exptrain/internal/errgen"
	"exptrain/internal/experiments"
	"exptrain/internal/fd"
	"exptrain/internal/game"
	"exptrain/internal/metrics"
	"exptrain/internal/persist"
	"exptrain/internal/repair"
	"exptrain/internal/sampling"
	"exptrain/internal/stats"
	"exptrain/internal/userstudy"
)

// Relational substrate.
type (
	// Relation is an in-memory relation (ordered schema + string-typed
	// rows).
	Relation = dataset.Relation
	// Schema is an ordered attribute list with name→position lookup.
	Schema = dataset.Schema
	// Tuple is one row of a relation.
	Tuple = dataset.Tuple
	// Pair is an unordered pair of distinct row indices — the unit the
	// samplers present and the trainer labels.
	Pair = dataset.Pair
)

// Functional dependencies.
type (
	// FD is a normalized functional dependency X → A.
	FD = fd.FD
	// AttrSet is a bitmask set of attribute positions.
	AttrSet = fd.AttrSet
	// Space is an indexed FD hypothesis space.
	Space = fd.Space
	// FDStats holds the pair-level counts behind g₁ and confidence.
	FDStats = fd.Stats
	// DiscoveryConfig tunes approximate-FD discovery.
	DiscoveryConfig = fd.DiscoveryConfig
)

// Beliefs, agents and the game.
type (
	// Belief is a vector of Beta distributions over the hypothesis
	// space.
	Belief = belief.Belief
	// Labeling is one annotated pair (cell-level violation marks).
	Labeling = belief.Labeling
	// PriorSpec configures a §C.1 prior family (Uniform-d, Random,
	// Data-estimate).
	PriorSpec = belief.PriorSpec
	// Trainer is the annotator side of the game.
	Trainer = agents.Trainer
	// FPTrainer is the fictitious-play (Bayesian) trainer.
	FPTrainer = agents.FPTrainer
	// Learner is the active-learning side of the game.
	Learner = agents.Learner
	// Sampler is a learner response strategy.
	Sampler = sampling.Sampler
	// Method is the typed identifier of a response strategy; it
	// round-trips through String/ParseMethod and JSON.
	Method = sampling.Method
	// GameConfig drives one game (k, iterations, evaluation).
	GameConfig = game.Config
	// GameResult is one game's full trajectory.
	GameResult = game.Result
	// TrainingSession is the step-wise session API: the caller owns the
	// annotator side (Next presents pairs, Submit consumes labels).
	TrainingSession = game.Session
	// TrainingSessionConfig assembles a step-wise session.
	TrainingSessionConfig = game.SessionConfig
	// RoundObserver receives the round engine's structured per-round
	// events; batch runs, step-wise sessions and the HTTP service all
	// emit the same stream.
	RoundObserver = game.Observer
	// NopRoundObserver is the no-op RoundObserver; embed it to implement
	// only the events of interest.
	NopRoundObserver = game.NopObserver
	// IterationRecord is one completed round of a game or session.
	IterationRecord = game.IterationRecord
	// PRF1 bundles precision, recall and F1.
	PRF1 = metrics.PRF1
)

// Experiment and study harnesses.
type (
	// ExperimentConfig is one evaluation condition (§C.1).
	ExperimentConfig = experiments.Config
	// ExperimentResult holds the four methods' averaged series.
	ExperimentResult = experiments.Result
	// Dataset is a generated synthetic stand-in for a paper dataset.
	Dataset = datagen.Dataset
	// StudyConfig sizes the simulated user study (Appendix A).
	StudyConfig = userstudy.StudyConfig
	// Study holds all simulated trajectories.
	Study = userstudy.Study
	// Snapshot is a serializable training-session checkpoint.
	Snapshot = persist.Snapshot
	// RepairSuggestion is one proposed cell repair.
	RepairSuggestion = repair.Suggestion
	// BelievedFD pairs a dependency with the model's confidence in it.
	BelievedFD = repair.BelievedFD
	// RepairConfig tunes repair-suggestion generation.
	RepairConfig = repair.Config
)

// Prior kinds of §C.1.
const (
	PriorUniform      = belief.PriorUniform
	PriorRandom       = belief.PriorRandom
	PriorDataEstimate = belief.PriorDataEstimate
)

// DefaultGamma is the exploration temperature used throughout the
// paper's evaluation (γ = 0.5).
const DefaultGamma = sampling.DefaultGamma

// Response-strategy identifiers (the paper's four methods plus the
// repo's extensions). MethodDefault resolves to StochasticUS.
const (
	MethodDefault       = sampling.MethodDefault
	MethodRandom        = sampling.MethodRandom
	MethodUS            = sampling.MethodUS
	MethodStochasticBR  = sampling.MethodStochasticBR
	MethodStochasticUS  = sampling.MethodStochasticUS
	MethodQBC           = sampling.MethodQBC
	MethodEpsilonGreedy = sampling.MethodEpsilonGreedy
)

// Sentinel errors of the public surface, re-exported so callers can
// errors.Is against the facade alone.
var (
	// ErrRoundPending: TrainingSession.Next (or Snapshot) was called
	// while a presented round is unsubmitted.
	ErrRoundPending = game.ErrRoundPending
	// ErrNoRoundPending: TrainingSession.Submit was called with no round
	// presented.
	ErrNoRoundPending = game.ErrNoRoundPending
	// ErrPoolExhausted: the session's candidate pool has no fresh pairs
	// left.
	ErrPoolExhausted = game.ErrPoolExhausted
	// ErrUnknownMethod: a method name or value was not recognized.
	ErrUnknownMethod = sampling.ErrUnknownMethod
)

// ParseMethod maps a paper method name ("Random", "US", "StochasticBR",
// "StochasticUS", "QBC", "EpsilonGreedy") to its typed Method; unknown
// names error wrapping ErrUnknownMethod.
func ParseMethod(name string) (Method, error) { return sampling.ParseMethod(name) }

// ReadCSVFile loads a relation from a CSV file with a header row.
func ReadCSVFile(path string) (*Relation, error) { return dataset.ReadCSVFile(path) }

// NewSchema builds a schema from attribute names.
func NewSchema(names ...string) (*Schema, error) { return dataset.NewSchema(names...) }

// NewRelation returns an empty relation over the schema.
func NewRelation(schema *Schema) *Relation { return dataset.New(schema) }

// ParseFD parses "A,B->C" against a schema.
func ParseFD(s string, schema *Schema) (FD, error) { return fd.Parse(s, schema) }

// G1 computes the paper's scaled g₁ approximation measure of f over rel
// (Example 1: g₁(Team→City) = 0.04 over Table 1).
func G1(f FD, rel *Relation) float64 { return fd.G1(f, rel) }

// DiscoverFDs finds all minimal approximate FDs with g₁ at most the
// threshold, exploring LHS sizes up to maxLHS.
func DiscoverFDs(rel *Relation, maxG1 float64, maxLHS int) ([]FD, error) {
	return fd.Discover(rel, fd.DiscoveryConfig{MaxG1: maxG1, MaxLHS: maxLHS})
}

// Discover is DiscoverFDs with the full configuration (confidence and
// support floors in addition to the g₁ threshold).
func Discover(rel *Relation, cfg DiscoveryConfig) ([]FD, error) {
	return fd.Discover(rel, cfg)
}

// DetectErrors flags the rows the given FDs deem erroneous (the
// minority-value repair heuristic).
func DetectErrors(fds []FD, rel *Relation) map[int]struct{} {
	return fd.DetectErrors(fds, rel)
}

// GenerateDataset builds a synthetic stand-in for a paper dataset
// ("OMDB", "AIRPORT", "Hospital", "Tax") with n rows.
func GenerateDataset(name string, n int, seed uint64) (*Dataset, error) {
	gen, err := datagen.ByName(name)
	if err != nil {
		return nil, err
	}
	return gen(n, seed), nil
}

// InjectErrors dirties a relation until the FDs' mean violating-pair
// fraction reaches degree, returning the dirty copy and ground truth.
func InjectErrors(rel *Relation, fds []FD, degree float64, seed uint64) (*errgen.Result, error) {
	return errgen.InjectDegree(rel, errgen.DegreeConfig{FDs: fds, Degree: degree, Seed: seed})
}

// RunExperiment executes one evaluation condition for all four sampling
// methods.
func RunExperiment(cfg ExperimentConfig) (*ExperimentResult, error) { return experiments.Run(cfg) }

// RunExperimentContext is RunExperiment with cancellation checked
// inside the method × seed fan-out.
func RunExperimentContext(ctx context.Context, cfg ExperimentConfig) (*ExperimentResult, error) {
	return experiments.RunContext(ctx, cfg)
}

// NewTrainingSession starts a step-wise session for a caller-owned
// annotator (an interactive UI, a crowdsourcing bridge).
func NewTrainingSession(cfg TrainingSessionConfig) (*TrainingSession, error) {
	return game.NewSession(cfg)
}

// ResumeTrainingSession rebuilds a step-wise session from a checkpoint.
func ResumeTrainingSession(snap *Snapshot, cfg TrainingSessionConfig) (*TrainingSession, error) {
	return game.ResumeSession(snap, cfg)
}

// SimulateStudy runs the simulated user study of Appendix A.
func SimulateStudy(cfg StudyConfig) (*Study, error) { return userstudy.Simulate(cfg) }

// SimulateStudyContext is SimulateStudy with cancellation checked
// between participant sessions.
func SimulateStudyContext(ctx context.Context, cfg StudyConfig) (*Study, error) {
	return userstudy.SimulateContext(ctx, cfg)
}

// NewSnapshot captures a session checkpoint: the schema, the hypothesis
// space, optional agent beliefs and the labeling history.
func NewSnapshot(schema *Schema, space *Space, trainer, learner *Belief, history [][]Labeling) (*Snapshot, error) {
	return persist.NewSnapshot(schema, space, trainer, learner, history)
}

// ReadSnapshotFile loads a session checkpoint.
func ReadSnapshotFile(path string) (*Snapshot, error) { return persist.ReadFile(path) }

// MinimalCover returns a minimal cover of an FD set: left-reduced and
// with implied dependencies removed (Armstrong inference).
func MinimalCover(fds []FD) []FD { return fd.MinimalCover(fds) }

// SuggestRepairs derives minority-to-plurality cell repairs from a
// believed-FD model (§A.1's downstream application).
func SuggestRepairs(rel *Relation, believed []BelievedFD, cfg RepairConfig) ([]RepairSuggestion, error) {
	return repair.Suggest(rel, believed, cfg)
}

// ApplyRepairs returns a repaired copy of the relation.
func ApplyRepairs(rel *Relation, suggestions []RepairSuggestion) (*Relation, error) {
	return repair.Apply(rel, suggestions)
}

// SessionConfig assembles one exploratory-training session over a
// caller-provided relation: the simulated FP trainer annotates, the
// learner with the chosen response strategy presents pairs and learns.
type SessionConfig struct {
	// Relation is the (possibly dirty) data to train over.
	Relation *Relation
	// Space is the FD hypothesis space; when nil it is enumerated with
	// MaxLHS 2 over all attributes.
	Space *Space
	// Method is the learner's response strategy; the zero value
	// (MethodDefault) resolves to StochasticUS.
	Method Method
	// Gamma is the stochastic temperature (default 0.5).
	Gamma float64
	// TrainerPrior and LearnerPrior default to Random and
	// Data-estimate respectively.
	TrainerPrior, LearnerPrior PriorSpec
	// K, Iterations: examples per interaction and interaction count
	// (defaults 10 and 30).
	K, Iterations int
	// LearnerForgetRate enables discounted fictitious play on the
	// learner: evidence is geometrically discounted by this rate before
	// each update (useful when the annotator drifts). Zero disables it.
	LearnerForgetRate float64
	// Seed makes the session reproducible.
	Seed uint64
	// Observer receives the engine's per-round events (default: no-op).
	Observer RoundObserver
}

// RunSession plays one exploratory-training game and returns its
// trajectory. It is the quickstart entry point.
func RunSession(cfg SessionConfig) (*GameResult, error) {
	return RunSessionContext(context.Background(), cfg)
}

// RunSessionContext is RunSession with cancellation checked between
// interactions.
func RunSessionContext(ctx context.Context, cfg SessionConfig) (*GameResult, error) {
	if cfg.Relation == nil {
		return nil, fmt.Errorf("exptrain: SessionConfig.Relation is required")
	}
	space := cfg.Space
	if space == nil {
		fds, err := fd.Enumerate(fd.SpaceConfig{
			Arity:  cfg.Relation.Schema().Arity(),
			MaxLHS: 2,
		})
		if err != nil {
			return nil, err
		}
		space, err = fd.NewSpace(fds)
		if err != nil {
			return nil, err
		}
	}
	sampler, err := sampling.New(cfg.Method, cfg.Gamma)
	if err != nil {
		return nil, err
	}
	trainerSpec := cfg.TrainerPrior
	if trainerSpec.Kind == "" {
		trainerSpec = PriorSpec{Kind: PriorRandom, Sigma: 0.12}
	}
	learnerSpec := cfg.LearnerPrior
	if learnerSpec.Kind == "" {
		learnerSpec = PriorSpec{Kind: PriorDataEstimate, Sigma: 0.12}
	}

	rng := stats.NewRNG(cfg.Seed ^ 0x5E55)
	trainerPrior, err := trainerSpec.Build(space, cfg.Relation, rng.Split())
	if err != nil {
		return nil, fmt.Errorf("exptrain: trainer prior: %w", err)
	}
	learnerPrior, err := learnerSpec.Build(space, cfg.Relation, rng.Split())
	if err != nil {
		return nil, fmt.Errorf("exptrain: learner prior: %w", err)
	}
	trainer := agents.NewFPTrainer(trainerPrior, rng.Split())
	learner := agents.NewLearner(learnerPrior, sampler, rng.Split())
	learner.ForgetRate = cfg.LearnerForgetRate
	pool := sampling.NewPool(cfg.Relation, space, sampling.PoolConfig{Seed: cfg.Seed ^ 0x9001})
	return game.RunContext(ctx, cfg.Relation, trainer, learner, pool, game.Config{
		K:          cfg.K,
		Iterations: cfg.Iterations,
		Observer:   cfg.Observer,
	})
}
