package belief

import (
	"fmt"

	"exptrain/internal/dataset"
	"exptrain/internal/fd"
	"exptrain/internal/stats"
)

// Default prior shape parameters. Sigma follows §A.2 (all prior standard
// deviations set to 0.05); the experiment harness can widen it to weaken
// the prior (a larger σ means fewer pseudo-observations).
const (
	// DefaultPriorSigma is the standard deviation of every prior Beta
	// distribution (§A.2).
	DefaultPriorSigma = 0.05
	// UserSpecifiedMean is the prior mean ε for the FD the user names as
	// most accurate (§A.2).
	UserSpecifiedMean = 0.85
	// UnrelatedMean is the prior mean for FDs unrelated to the user's
	// (first prior configuration of §A.2).
	UnrelatedMean = 0.15
	// RelatedMean is the prior mean for subset/superset FDs of the
	// user's (second prior configuration of §A.2).
	RelatedMean = 0.8
)

// clampMean keeps prior means strictly inside (0, 1) and feasible for
// the configured σ.
func clampMean(mu, sigma float64) float64 {
	// Need σ² < μ(1−μ); solve the boundary and keep a 10% margin.
	v := sigma * sigma
	lo, hi := 0.02, 0.98
	// Feasibility bound: μ(1−μ) > v ⇒ μ ∈ (m−, m+) around 1/2.
	for clampIters := 0; clampIters < 64; clampIters++ {
		if mu < lo {
			mu = lo
		}
		if mu > hi {
			mu = hi
		}
		if v < mu*(1-mu)*0.99 {
			return mu
		}
		// Pull toward 1/2 until feasible.
		mu = 0.5 + (mu-0.5)*0.9
	}
	return 0.5
}

// priorAt builds the Beta prior with the given mean and σ, clamping the
// mean into the feasible region.
func priorAt(mu, sigma float64) stats.Beta {
	return stats.MustBetaFromMoments(clampMean(mu, sigma), sigma)
}

// UniformPrior returns a belief with every hypothesis at mean d
// (the "Uniform-d" prior of §C.1; Figure 3/5/6 use Uniform-0.9).
func UniformPrior(space *fd.Space, d, sigma float64) *Belief {
	return New(space, priorAt(d, sigma))
}

// RandomPrior returns a belief whose per-hypothesis confidence means are
// sampled uniformly from [0, 1] ("Random" prior of §C.1).
func RandomPrior(space *fd.Space, rng *stats.RNG, sigma float64) *Belief {
	b := New(space, priorAt(0.5, sigma))
	for i := 0; i < space.Size(); i++ {
		b.SetDist(i, priorAt(rng.Float64(), sigma))
	}
	return b
}

// DataEstimatePrior returns a belief whose confidence means are the
// pair-conditional compliance rates measured on the unlabeled relation
// ("Data-estimate" prior of §C.1: the learner treats the unlabeled
// dataset as if it were completely clean).
func DataEstimatePrior(space *fd.Space, rel *dataset.Relation, sigma float64) *Belief {
	b := New(space, priorAt(0.5, sigma))
	// One PLI cache shares the LHS partitions across hypotheses with a
	// common LHS (every RHS choice over one attribute set), so the
	// estimate partitions once per distinct LHS instead of once per FD.
	// The per-FD Stats are computed from the same stripped partitions
	// fd.ComputeStats derives, so the float results are identical.
	cache := fd.NewPLICache(rel)
	for i := 0; i < space.Size(); i++ {
		b.SetDist(i, priorAt(cache.Stats(space.FD(i)).Confidence(), sigma))
	}
	return b
}

// UserSpecifiedPrior implements the §A.2 user-study prior: the FD the
// user declares most accurate gets mean ε = 0.85; when treatRelated is
// true, subset/superset FDs of the declared one get mean 0.8; everything
// else gets mean 0.15; all σ = 0.05. It errors when the declared FD is
// not in the space.
func UserSpecifiedPrior(space *fd.Space, user fd.FD, treatRelated bool) (*Belief, error) {
	idx, ok := space.Index(user)
	if !ok {
		return nil, fmt.Errorf("belief: user-specified FD %v not in hypothesis space", user)
	}
	b := New(space, priorAt(UnrelatedMean, DefaultPriorSigma))
	b.SetDist(idx, priorAt(UserSpecifiedMean, DefaultPriorSigma))
	if treatRelated {
		for _, i := range space.Related(user) {
			b.SetDist(i, priorAt(RelatedMean, DefaultPriorSigma))
		}
	}
	return b, nil
}

// PriorKind names the §C.1 prior families for configuration surfaces
// (CLIs, experiment specs).
type PriorKind string

const (
	PriorUniform      PriorKind = "uniform"
	PriorRandom       PriorKind = "random"
	PriorDataEstimate PriorKind = "data-estimate"
)

// PriorSpec is a serializable prior configuration.
type PriorSpec struct {
	Kind PriorKind
	// D is the Uniform-d level (only for PriorUniform).
	D float64
	// Sigma is the prior standard deviation (DefaultPriorSigma if 0).
	Sigma float64
}

// Build materializes the prior over the space; rel supplies the data
// estimate and rng the random means.
func (s PriorSpec) Build(space *fd.Space, rel *dataset.Relation, rng *stats.RNG) (*Belief, error) {
	sigma := s.Sigma
	if sigma == 0 { //etlint:ignore floatcmp zero value means unset; callers assign literals
		sigma = DefaultPriorSigma
	}
	switch s.Kind {
	case PriorUniform:
		if s.D < 0 || s.D > 1 {
			return nil, fmt.Errorf("belief: Uniform-d level %v out of [0,1]", s.D)
		}
		return UniformPrior(space, s.D, sigma), nil
	case PriorRandom:
		if rng == nil {
			return nil, fmt.Errorf("belief: random prior needs an RNG")
		}
		return RandomPrior(space, rng, sigma), nil
	case PriorDataEstimate:
		if rel == nil {
			return nil, fmt.Errorf("belief: data-estimate prior needs a relation")
		}
		return DataEstimatePrior(space, rel, sigma), nil
	default:
		return nil, fmt.Errorf("belief: unknown prior kind %q", s.Kind)
	}
}

// String renders the spec for experiment reports, matching the paper's
// names ("Uniform-0.9", "Random", "Data-estimate").
func (s PriorSpec) String() string {
	switch s.Kind {
	case PriorUniform:
		return fmt.Sprintf("Uniform-%g", s.D)
	case PriorRandom:
		return "Random"
	case PriorDataEstimate:
		return "Data-estimate"
	default:
		return string(s.Kind)
	}
}
