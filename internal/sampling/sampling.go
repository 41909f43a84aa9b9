// Package sampling implements the learner's response strategies — the
// policies that pick which tuple pairs to present to the trainer in each
// interaction (Section 4 and §C.1):
//
//   - Random: fixed random sampling, the paper's baseline;
//   - Uncertainty: greedy uncertainty sampling, the state-of-the-art
//     active-learning comparator (US);
//   - StochasticBR: stochastic best response — softmax over the
//     learner's expected labeling payoff u_a with temperature γ;
//   - StochasticUS: stochastic uncertainty sampling — softmax over the
//     prediction entropy with temperature γ.
//
// FD violations are properties of tuple pairs, so all strategies select
// pairs rather than single tuples (§C.1).
package sampling

import (
	"fmt"
	"sort"
	"sync"

	"exptrain/internal/belief"
	"exptrain/internal/dataset"
	"exptrain/internal/stats"
)

// selectScratch holds the per-selection scoring buffers. The samplers
// are stateless values, so the scratch lives in a package pool; every
// buffer is fully overwritten before it is read (byClass is assigned for
// every class, scores and probs for every candidate, idx is refilled),
// so reuse cannot leak state between selections and determinism is
// unaffected.
type selectScratch struct {
	byClass []float64
	scores  []float64
	probs   []float64
	idx     []int
}

var selPool = sync.Pool{New: func() any { return new(selectScratch) }}

// floats returns buf resized to n, reallocating when capacity is short.
func floats(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// DefaultGamma is the exploration temperature used throughout the
// paper's evaluation (§C.1 sets γ = 0.5 in all experiments).
const DefaultGamma = 0.5

// Sampler selects k pairs from the candidates given the learner's
// current belief. Implementations must not mutate the pool and must be
// deterministic given the RNG state.
type Sampler interface {
	// Name identifies the strategy in experiment reports, matching the
	// paper's method names.
	Name() string
	// Select returns min(k, c.Len()) distinct candidate pairs.
	Select(c Candidates, b *belief.Belief, k int, rng *stats.RNG) []dataset.Pair
}

// Random is the Fixed Random Sampling baseline: it ignores the belief
// entirely and picks pairs uniformly at random.
type Random struct{}

// Name implements Sampler.
func (Random) Name() string { return "Random" }

// Select implements Sampler.
func (Random) Select(c Candidates, _ *belief.Belief, k int, rng *stats.RNG) []dataset.Pair {
	k = min(k, c.Len())
	idx := rng.SampleWithoutReplacement(c.Len(), k)
	out := make([]dataset.Pair, k)
	for i, j := range idx {
		out[i] = c.Pair(j)
	}
	return out
}

// Uncertainty is greedy uncertainty sampling (US): it deterministically
// picks the k pairs with the highest prediction entropy under the
// learner's belief. It fully trusts the current model — the behaviour
// the paper shows is brittle when the model's prior is wrong.
type Uncertainty struct{}

// Name implements Sampler.
func (Uncertainty) Name() string { return "US" }

// Select implements Sampler.
func (Uncertainty) Select(c Candidates, b *belief.Belief, k int, _ *stats.RNG) []dataset.Pair {
	sc := selPool.Get().(*selectScratch)
	defer selPool.Put(sc)
	return topKByScore(c, k, sc, c.scores(sc, b, stats.BernoulliEntropy))
}

// StochasticBR is the stochastic best response of Section 4: pair x is
// selected with probability proportional to exp(u_a(θ, x)/γ) where
// u_a is the learner's expected labeling payoff under its own belief.
// Low γ approaches greedy payoff maximization; high γ approaches
// uniform exploration.
type StochasticBR struct {
	// Gamma is the exploration temperature; DefaultGamma when zero.
	Gamma float64
}

// Name implements Sampler.
func (StochasticBR) Name() string { return "StochasticBR" }

// Select implements Sampler.
func (s StochasticBR) Select(c Candidates, b *belief.Belief, k int, rng *stats.RNG) []dataset.Pair {
	return softmaxSelect(c, b, k, gammaOrDefault(s.Gamma), rng, belief.SelfPayoffOf)
}

// StochasticUS is stochastic uncertainty sampling (Section 4): the
// uncertainty-sampling score fed through the same softmax response, so
// the learner still prefers uncertain pairs but presents a diverse,
// representative sample. As γ → 0 it approximates greedy US.
type StochasticUS struct {
	// Gamma is the exploration temperature; DefaultGamma when zero.
	Gamma float64
}

// Name implements Sampler.
func (StochasticUS) Name() string { return "StochasticUS" }

// Select implements Sampler.
func (s StochasticUS) Select(c Candidates, b *belief.Belief, k int, rng *stats.RNG) []dataset.Pair {
	return softmaxSelect(c, b, k, gammaOrDefault(s.Gamma), rng, stats.BernoulliEntropy)
}

func gammaOrDefault(g float64) float64 {
	if g == 0 { //etlint:ignore floatcmp zero value means unset; callers assign literals
		return DefaultGamma
	}
	if g < 0 {
		panic(fmt.Sprintf("sampling: negative gamma %v", g))
	}
	return g
}

// topKByScore returns the k highest-scoring candidates, ties broken by
// candidate order for determinism. scores holds one value per
// candidate.
func topKByScore(c Candidates, k int, sc *selectScratch, scores []float64) []dataset.Pair {
	k = min(k, c.Len())
	if cap(sc.idx) < len(scores) {
		sc.idx = make([]int, len(scores))
	}
	idx := sc.idx[:len(scores)]
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return scores[idx[a]] > scores[idx[b]] })
	out := make([]dataset.Pair, k)
	for i := 0; i < k; i++ {
		out[i] = c.Pair(idx[i])
	}
	return out
}

// softmaxSelect draws k distinct candidates with probabilities
// proportional to exp(score(PDirty)/γ), removing each drawn candidate
// from the distribution.
func softmaxSelect(c Candidates, b *belief.Belief, k int, gamma float64, rng *stats.RNG, score func(pdirty float64) float64) []dataset.Pair {
	k = min(k, c.Len())
	sc := selPool.Get().(*selectScratch)
	scores := c.scores(sc, b, score)
	probs := floats(sc.probs, len(scores))
	stats.Softmax(probs, scores, gamma)
	out := make([]dataset.Pair, 0, k)
	for len(out) < k {
		i := stats.SampleCategorical(rng, probs)
		out = append(out, c.Pair(i))
		probs[i] = 0
		stats.Normalize(probs)
	}
	sc.probs = probs
	selPool.Put(sc)
	return out
}

// ByName constructs the sampler matching the paper's method name
// ("Random", "US", "StochasticBR", "StochasticUS"); gamma applies to the
// stochastic strategies. Unknown names return an error wrapping
// ErrUnknownMethod. Typed callers should prefer ParseMethod + New.
func ByName(name string, gamma float64) (Sampler, error) {
	m, err := ParseMethod(name)
	if err != nil {
		return nil, err
	}
	return New(m, gamma)
}

// AllMethods lists the paper's four methods in presentation order.
func AllMethods(gamma float64) []Sampler {
	out := make([]Sampler, 0, 4)
	for _, m := range Methods() {
		s, _ := New(m, gamma)
		out = append(out, s)
	}
	return out
}
