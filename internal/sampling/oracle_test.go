package sampling

import (
	"fmt"
	"math"
	"sort"
	"testing"
	"testing/quick"

	"exptrain/internal/belief"
	"exptrain/internal/stats"
)

// This file keeps the per-candidate selection the class-level samplers
// replaced, as their oracle: scores spread from the classes to one
// float per candidate, a softmax over the candidates renormalised after
// every draw, and a stable sort of the candidates for the greedy
// rankings. TestClassSelectMatchesPerPair and FuzzClassSelect hold the
// class path to it draw for draw; BenchmarkSelect times the two.

// perPair is the oracle's per-candidate scratch, reused across calls
// the way the replaced code pooled it, so BenchmarkSelect times the
// per-candidate arithmetic rather than allocation.
type perPair struct {
	sc     selectScratch
	scores []float64
	probs  []float64
	drawn  []bool
	idx    []int
}

// selectPerPair is s.Select computed per candidate.
func (o *perPair) selectPerPair(s Sampler, c Candidates, b *belief.Belief, k int, rng *stats.RNG) []int {
	switch s := s.(type) {
	case Uncertainty:
		return o.topKByScore(c, k, o.candidateScores(c, b, stats.BernoulliEntropy))
	case StochasticUS:
		return o.softmaxSelect(c, b, k, gammaOrDefault(s.Gamma), rng, stats.BernoulliEntropy)
	case StochasticBR:
		return o.softmaxSelect(c, b, k, gammaOrDefault(s.Gamma), rng, belief.SelfPayoffOf)
	case QueryByCommittee:
		confs := s.committee(b, rng)
		t := c.countClasses(&o.sc, b.Space())
		for cl := range o.sc.value {
			o.sc.value[cl] = voteEntropy(confs, t.mask(cl))
		}
		return o.topKByScore(c, k, o.fill(c, t))
	case EpsilonGreedy:
		return s.walk(c, o.topKByScore(c, c.Len(), o.candidateScores(c, b, stats.BernoulliEntropy)), k, rng)
	}
	panic(fmt.Sprintf("no per-pair oracle for %T", s))
}

// candidateScores returns score(PDirty) of every candidate under b, in
// candidate order.
func (o *perPair) candidateScores(c Candidates, b *belief.Belief, score func(pdirty float64) float64) []float64 {
	return o.fill(c, c.scoreClasses(&o.sc, b, score))
}

// fill copies the class values in o.sc.value to o.scores by candidate
// class and returns o.scores.
func (o *perPair) fill(c Candidates, t *classTable) []float64 {
	o.scores = resize(o.scores, c.Len())
	for i, cl := range t.cand {
		o.scores[i] = o.sc.value[cl]
	}
	return o.scores
}

// topKByScore returns the k highest-scoring candidates, ties broken by
// candidate order for determinism. scores holds one value per
// candidate.
func (o *perPair) topKByScore(c Candidates, k int, scores []float64) []int {
	k = min(k, c.Len())
	o.idx = resize(o.idx, len(scores))
	idx := o.idx
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return scores[idx[a]] > scores[idx[b]] })
	return append([]int(nil), idx[:k]...)
}

// softmaxSelect draws k distinct candidates with probabilities
// proportional to exp(score(PDirty)/γ), removing each drawn candidate
// from the distribution. When every undrawn candidate's mass has
// underflowed to zero, the mass spreads uniformly over the undrawn
// candidates; Normalize's own fallback would revive the drawn ones.
func (o *perPair) softmaxSelect(c Candidates, b *belief.Belief, k int, gamma float64, rng *stats.RNG, score func(pdirty float64) float64) []int {
	k = min(k, c.Len())
	scores := o.candidateScores(c, b, score)
	probs := resize(o.probs, len(scores))
	Softmax(probs, scores, gamma)
	drawn := resize(o.drawn, len(scores))
	clear(drawn)
	out := make([]int, 0, k)
	for len(out) < k {
		i := SampleCategorical(rng, probs)
		out = append(out, i)
		probs[i], drawn[i] = 0, true
		if Normalize(probs) <= 0 {
			u := 1 / float64(len(probs)-len(out))
			for j := range probs {
				if drawn[j] {
					probs[j] = 0
				} else {
					probs[j] = u
				}
			}
		}
	}
	o.probs, o.drawn = probs, drawn
	return out
}

// Softmax writes into dst the distribution proportional to
// exp(score[i]/gamma), the stochastic best-response form of Section 4:
//
//	π(x) = exp(u(x)/γ) / Σ_x' exp(u(x')/γ)
//
// It is computed with the max-subtraction trick so that large scores and
// small γ do not overflow. gamma must be positive. dst and scores may
// alias. If all scores are −Inf the result is uniform.
func Softmax(dst, scores []float64, gamma float64) {
	if gamma <= 0 {
		panic("sampling: Softmax with non-positive gamma")
	}
	if len(dst) != len(scores) {
		panic("sampling: Softmax length mismatch")
	}
	if len(scores) == 0 {
		return
	}
	maxS := math.Inf(-1)
	for _, s := range scores {
		if s > maxS {
			maxS = s
		}
	}
	if math.IsInf(maxS, -1) {
		u := 1 / float64(len(dst))
		for i := range dst {
			dst[i] = u
		}
		return
	}
	var sum float64
	for i, s := range scores {
		e := math.Exp((s - maxS) / gamma)
		dst[i] = e
		sum += e
	}
	for i := range dst {
		dst[i] /= sum
	}
}

// SampleCategorical draws an index from the (normalized) distribution p.
// A final fallback to the last positive-probability index protects
// against the cumulative sum landing a hair under 1.
func SampleCategorical(r *stats.RNG, p []float64) int {
	u := r.Float64()
	var c float64
	last := -1
	for i, pi := range p {
		if pi <= 0 {
			continue
		}
		last = i
		c += pi
		if u < c {
			return i
		}
	}
	if last < 0 {
		panic("sampling: SampleCategorical over empty or zero distribution")
	}
	return last
}

// Normalize scales p in place to sum to 1. If the sum is not positive it
// sets the uniform distribution. It returns the original sum.
func Normalize(p []float64) float64 {
	var sum float64
	for _, v := range p {
		if v > 0 {
			sum += v
		}
	}
	if sum <= 0 {
		if len(p) > 0 {
			u := 1 / float64(len(p))
			for i := range p {
				p[i] = u
			}
		}
		return sum
	}
	for i, v := range p {
		if v > 0 {
			p[i] = v / sum
		} else {
			p[i] = 0
		}
	}
	return sum
}

func TestSoftmaxSumsToOne(t *testing.T) {
	f := func(raw []float64, gRaw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		scores := make([]float64, len(raw))
		for i, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			scores[i] = math.Mod(v, 100)
		}
		gamma := 0.05 + float64(gRaw)/64
		dst := make([]float64, len(scores))
		Softmax(dst, scores, gamma)
		var sum float64
		for _, p := range dst {
			if p < 0 || p > 1 {
				return false
			}
			sum += p
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSoftmaxOrderPreserving(t *testing.T) {
	scores := []float64{1, 3, 2}
	dst := make([]float64, 3)
	Softmax(dst, scores, 0.5)
	if !(dst[1] > dst[2] && dst[2] > dst[0]) {
		t.Fatalf("softmax not order preserving: %v", dst)
	}
}

func TestSoftmaxGammaLimits(t *testing.T) {
	scores := []float64{0, 1}
	// Small gamma → nearly deterministic argmax (approximates pure
	// uncertainty sampling per Section 4).
	cold := make([]float64, 2)
	Softmax(cold, scores, 0.01)
	if cold[1] < 0.999 {
		t.Fatalf("γ→0 should concentrate on argmax, got %v", cold)
	}
	// Large gamma → nearly uniform.
	hot := make([]float64, 2)
	Softmax(hot, scores, 1000)
	if math.Abs(hot[0]-0.5) > 0.01 {
		t.Fatalf("γ→∞ should approach uniform, got %v", hot)
	}
}

func TestSoftmaxLargeScoresNoOverflow(t *testing.T) {
	scores := []float64{1e6, 1e6 + 1, 1e6 - 3}
	dst := make([]float64, 3)
	Softmax(dst, scores, 0.5)
	var sum float64
	for _, p := range dst {
		if math.IsNaN(p) || math.IsInf(p, 0) {
			t.Fatalf("overflow in softmax: %v", dst)
		}
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("softmax sum = %v", sum)
	}
}

func TestSoftmaxAllNegInfUniform(t *testing.T) {
	scores := []float64{math.Inf(-1), math.Inf(-1)}
	dst := make([]float64, 2)
	Softmax(dst, scores, 1)
	if dst[0] != 0.5 || dst[1] != 0.5 {
		t.Fatalf("all -Inf should yield uniform, got %v", dst)
	}
}

func TestSoftmaxPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"zero gamma":      func() { Softmax(make([]float64, 1), []float64{1}, 0) },
		"length mismatch": func() { Softmax(make([]float64, 2), []float64{1}, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestSampleCategoricalFrequencies(t *testing.T) {
	r := stats.NewRNG(77)
	p := []float64{0.1, 0.2, 0.7}
	const n = 100000
	counts := make([]int, 3)
	for i := 0; i < n; i++ {
		counts[SampleCategorical(r, p)]++
	}
	for i, pi := range p {
		got := float64(counts[i]) / n
		if math.Abs(got-pi) > 0.01 {
			t.Errorf("category %d frequency %v, want %v", i, got, pi)
		}
	}
}

func TestSampleCategoricalSkipsZeros(t *testing.T) {
	r := stats.NewRNG(79)
	p := []float64{0, 1, 0}
	for i := 0; i < 100; i++ {
		if SampleCategorical(r, p) != 1 {
			t.Fatal("sampled a zero-probability category")
		}
	}
}

func TestSampleCategoricalPanicsOnZeroDist(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero distribution did not panic")
		}
	}()
	SampleCategorical(stats.NewRNG(1), []float64{0, 0})
}

func TestNormalize(t *testing.T) {
	p := []float64{2, 6, 2}
	Normalize(p)
	want := []float64{0.2, 0.6, 0.2}
	for i := range p {
		if math.Abs(p[i]-want[i]) > 1e-12 {
			t.Fatalf("Normalize = %v, want %v", p, want)
		}
	}
}

func TestNormalizeZeroFallsBackToUniform(t *testing.T) {
	p := []float64{0, 0, 0, 0}
	Normalize(p)
	for _, v := range p {
		if v != 0.25 {
			t.Fatalf("zero-sum Normalize = %v, want uniform", p)
		}
	}
}

func TestNormalizeNegativeEntriesZeroed(t *testing.T) {
	p := []float64{-1, 1, 1}
	Normalize(p)
	if p[0] != 0 || math.Abs(p[1]-0.5) > 1e-12 {
		t.Fatalf("negative entries not handled: %v", p)
	}
}
