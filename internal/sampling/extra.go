package sampling

import (
	"math/bits"

	"exptrain/internal/belief"
	"exptrain/internal/dataset"
	"exptrain/internal/stats"
)

// This file adds two response strategies beyond the paper's four — a
// Bayesian query-by-committee and an ε-greedy hybrid — used by the
// ablation benches to position the paper's stochastic strategies
// against other classic exploration mechanisms.

// QueryByCommittee scores pairs by committee disagreement: each
// committee member is a hypothesis-confidence vector sampled from the
// learner's posterior (one draw per Beta), votes dirty/clean on each
// candidate pair, and the pair's score is the vote entropy. Pairs the
// posterior is genuinely undecided about — not merely pairs whose point
// estimate sits near 1/2 — score highest.
type QueryByCommittee struct {
	// Committee is the number of sampled members (default 5).
	Committee int
}

// Name implements Sampler.
func (QueryByCommittee) Name() string { return "QBC" }

// Select implements Sampler.
func (s QueryByCommittee) Select(c Candidates, b *belief.Belief, k int, rng *stats.RNG) []dataset.Pair {
	confs := s.committee(b, rng)
	// A member's vote on a pair is a property of the pair's agree-set
	// class, so each class is voted on once.
	sc := selPool.Get().(*selectScratch)
	defer selPool.Put(sc)
	t := c.countClasses(sc, b.Space())
	for cl := range sc.value {
		sc.value[cl] = voteEntropy(confs, t.mask(cl))
	}
	return classTopK(c, t, sc, k)
}

// committee draws the members: per member, one confidence sample per
// hypothesis.
func (s QueryByCommittee) committee(b *belief.Belief, rng *stats.RNG) [][]float64 {
	n := s.Committee
	if n <= 0 {
		n = 5
	}
	confs := make([][]float64, n)
	for m := range confs {
		confs[m] = make([]float64, b.Size())
		for i := 0; i < b.Size(); i++ {
			confs[m][i] = b.Dist(i).Sample(rng)
		}
	}
	return confs
}

// voteEntropy is the entropy of the committee's dirty/clean vote on a
// pair whose violated hypotheses are set in mask. A member votes dirty
// when it holds (≥ 1/2) some hypothesis the pair violates.
func voteEntropy(confs [][]float64, mask []uint64) float64 {
	dirty := 0
	for _, conf := range confs {
		if holdsAny(conf, mask) {
			dirty++
		}
	}
	return stats.BernoulliEntropy(float64(dirty) / float64(len(confs)))
}

// holdsAny reports whether any hypothesis set in mask has confidence at
// least 1/2 in conf.
func holdsAny(conf []float64, mask []uint64) bool {
	for w, word := range mask {
		for ; word != 0; word &= word - 1 {
			if conf[w*64+bits.TrailingZeros64(word)] >= 0.5 {
				return true
			}
		}
	}
	return false
}

// EpsilonGreedy mixes greedy uncertainty sampling with uniform
// exploration: each of the k picks is uniform-random with probability
// Epsilon and the highest-entropy remaining pair otherwise — the
// classic bandit-style exploration baseline.
type EpsilonGreedy struct {
	// Epsilon is the exploration probability (default 0.2).
	Epsilon float64
}

// Name implements Sampler.
func (EpsilonGreedy) Name() string { return "EpsilonGreedy" }

// Select implements Sampler.
func (s EpsilonGreedy) Select(c Candidates, b *belief.Belief, k int, rng *stats.RNG) []dataset.Pair {
	// Rank once by entropy; then walk the ranking, substituting random
	// picks with probability ε.
	sc := selPool.Get().(*selectScratch)
	ranked := classTopK(c, c.scoreClasses(sc, b, stats.BernoulliEntropy), sc, c.Len())
	selPool.Put(sc)
	return s.walk(c, ranked, k, rng)
}

// walk takes min(k, c.Len()) distinct candidates: each uniform-random
// with probability ε, otherwise the next of ranked not yet taken.
func (s EpsilonGreedy) walk(c Candidates, ranked []dataset.Pair, k int, rng *stats.RNG) []dataset.Pair {
	eps := s.Epsilon
	if eps == 0 { //etlint:ignore floatcmp zero value means unset; callers assign literals
		eps = 0.2
	}
	k = min(k, c.Len())
	taken := make(map[dataset.Pair]struct{}, k)
	out := make([]dataset.Pair, 0, k)
	next := 0
	takeGreedy := func() {
		for next < len(ranked) {
			p := ranked[next]
			next++
			if _, dup := taken[p]; !dup {
				taken[p] = struct{}{}
				out = append(out, p)
				return
			}
		}
	}
	for len(out) < k {
		if rng.Float64() < eps {
			// Uniform exploration; retry a few times on duplicates, then
			// fall back to greedy so selection always terminates.
			picked := false
			for attempt := 0; attempt < 8; attempt++ {
				p := c.Pair(rng.Intn(c.Len()))
				if _, dup := taken[p]; !dup {
					taken[p] = struct{}{}
					out = append(out, p)
					picked = true
					break
				}
			}
			if picked {
				continue
			}
		}
		takeGreedy()
	}
	return out
}
