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
	"cmp"
	"fmt"
	"math"
	"slices"
	"sync"

	"exptrain/internal/belief"
	"exptrain/internal/dataset"
	"exptrain/internal/stats"
)

// selectScratch holds the per-selection class buffers. The samplers
// are stateless values, so the scratch lives in a package pool. Every
// buffer is sized and fully overwritten before it is read, so reuse
// cannot leak state between selections and determinism is unaffected.
type selectScratch struct {
	// value holds one float64 per class: its score, then, for the
	// softmax samplers, the probability mass of each of its undrawn
	// candidates.
	value []float64
	// count holds the number of candidates in each class.
	count []int32
	// drawn lists the candidate indices a softmax selection has drawn,
	// ascending.
	drawn []int
	// order, level and slot rank the classes for classTopK.
	order []int32
	level []int32
	slot  []int
}

var selPool = sync.Pool{New: func() any { return new(selectScratch) }}

// resize returns buf resized to n, reallocating when capacity is short.
func resize[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
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
	return classTopK(c, c.scoreClasses(sc, b, stats.BernoulliEntropy), sc, k)
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
	return classSoftmax(c, b, k, gammaOrDefault(s.Gamma), rng, belief.SelfPayoffOf)
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
	return classSoftmax(c, b, k, gammaOrDefault(s.Gamma), rng, stats.BernoulliEntropy)
}

// validGamma reports whether g is a usable exploration temperature:
// zero (the default) or positive and finite.
func validGamma(g float64) bool { return g >= 0 && !math.IsInf(g, 1) }

// gammaOrDefault resolves a temperature New would accept; a sampler
// literal holding any other is a programming error.
func gammaOrDefault(g float64) float64 {
	if g == 0 { //etlint:ignore floatcmp zero value means unset; callers assign literals
		return DefaultGamma
	}
	if !validGamma(g) {
		panic(fmt.Sprintf("sampling: invalid gamma %v", g))
	}
	return g
}

// classTopK returns the k candidates with the highest class value in
// sc.value, ties in candidate order: the order a stable sort of every
// candidate by descending value gives. Instead of sorting the
// candidates it ranks the distinct values of the classes present into
// levels, highest first, and then places each candidate of the levels
// that fill the k slots, in one pass in candidate order, at its
// level's next free slot.
func classTopK(c Candidates, t *classTable, sc *selectScratch, k int) []dataset.Pair {
	k = min(k, c.Len())
	out := make([]dataset.Pair, k)
	value, count := sc.value, sc.count
	order := resize(sc.order, len(count))[:0]
	for cl, n := range count {
		if n > 0 {
			order = append(order, int32(cl))
		}
	}
	slices.SortFunc(order, func(a, b int32) int { return cmp.Compare(value[b], value[a]) })
	// level[cl] is class cl's level, -1 past the levels that fill the
	// k slots; slot[l] is level l's next free output index.
	level, slot := resize(sc.level, len(count)), resize(sc.slot, len(count))[:0]
	for cl := range level {
		level[cl] = -1
	}
	ranked := 0
	for j, cl := range order {
		if j == 0 || value[order[j-1]] > value[cl] {
			if ranked >= k {
				break
			}
			slot = append(slot, ranked)
		}
		level[cl] = int32(len(slot) - 1)
		ranked += int(count[cl])
	}
	placed := 0
	for _, pos := range c.p.unshown {
		if placed == k {
			break
		}
		l := level[t.id[pos]]
		if l < 0 || slot[l] == k {
			continue
		}
		out[slot[l]] = c.p.pairs[pos]
		slot[l]++
		placed++
	}
	sc.order, sc.level, sc.slot = order, level, slot
	return out
}

// classSoftmax draws k distinct candidates with probabilities
// proportional to exp(score(PDirty)/γ), renormalising over the
// undrawn candidates after each draw.
//
// It reproduces a per-candidate softmax draw bit for bit. All
// candidates of one class hold the same float at every step: the same
// score, the same exp, the same quotient by each shared total. So the
// exp and every divide run once per class, on sc.value. Only the sums
// run over the candidates, in candidate order: the softmax total, each
// draw's cumulative scan, and each renormalising total, which continues
// from the scan's prefix before the drawn candidate instead of
// rescanning it. Masses are never negative, so adding a zero mass
// changes no sum and the sums need not skip them. Should every undrawn
// candidate's mass underflow to zero, the mass spreads uniformly over
// the undrawn candidates.
func classSoftmax(c Candidates, b *belief.Belief, k int, gamma float64, rng *stats.RNG, score func(pdirty float64) float64) []dataset.Pair {
	k = min(k, c.Len())
	out := make([]dataset.Pair, 0, k)
	if k == 0 {
		return out
	}
	sc := selPool.Get().(*selectScratch)
	defer selPool.Put(sc)
	t := c.scoreClasses(sc, b, score)
	l := liveMass{cands: c.p.unshown, id: t.id, mass: sc.value, drawn: resize(sc.drawn, k)[:0]}
	maxS := math.Inf(-1)
	for cl, n := range sc.count {
		if n > 0 && l.mass[cl] > maxS {
			maxS = l.mass[cl]
		}
	}
	for cl := range l.mass {
		l.mass[cl] = math.Exp((l.mass[cl] - maxS) / gamma)
	}
	total := l.sum(0, 0, len(l.cands))
	for cl := range l.mass {
		l.mass[cl] /= total
	}
	for {
		pick, before, ok := l.draw(rng.Float64())
		if !ok {
			// The cumulative sum landed a hair under u: take the last
			// candidate with mass.
			pick = l.lastWithMass()
			before = l.sum(0, 0, pick)
		}
		out = append(out, c.p.pairs[l.cands[pick]])
		if len(out) == k {
			sc.drawn = l.drawn
			return out
		}
		total = l.sum(before, pick+1, len(l.cands))
		at, _ := slices.BinarySearch(l.drawn, pick)
		l.drawn = slices.Insert(l.drawn, at, pick)
		if total <= 0 {
			u := 1 / float64(len(l.cands)-len(l.drawn))
			for cl := range l.mass {
				l.mass[cl] = u
			}
			continue
		}
		for cl, m := range l.mass {
			if m > 0 {
				l.mass[cl] = m / total
			} else {
				l.mass[cl] = 0
			}
		}
	}
}

// liveMass is classSoftmax's view of the candidates: candidate i holds
// mass[id[cands[i]]], its class's mass, unless it is among drawn, the
// ascending indices of the candidates drawn so far.
type liveMass struct {
	cands, id []int32
	mass      []float64
	drawn     []int
}

// sum adds to acc, in candidate order, the masses of the undrawn
// candidates with indices in [from, to).
func (l *liveMass) sum(acc float64, from, to int) float64 {
	id, mass := l.id, l.mass
	s, _ := slices.BinarySearch(l.drawn, from)
	for lo := from; lo < to; s++ {
		hi := to
		if s < len(l.drawn) && l.drawn[s] < to {
			hi = l.drawn[s]
		}
		for _, pos := range l.cands[lo:hi] {
			acc += mass[id[pos]]
		}
		lo = hi + 1
	}
	return acc
}

// draw returns the first undrawn candidate at which the cumulative
// mass, in candidate order, exceeds u, and the cumulative mass before
// it; ok is false when the whole sum stays at or below u.
func (l *liveMass) draw(u float64) (pick int, before float64, ok bool) {
	id, mass := l.id, l.mass
	var cum float64
	lo := 0
	for s := 0; s <= len(l.drawn); s++ {
		hi := len(l.cands)
		if s < len(l.drawn) {
			hi = l.drawn[s]
		}
		for i, pos := range l.cands[lo:hi] {
			prev := cum
			if cum += mass[id[pos]]; u < cum {
				return lo + i, prev, true
			}
		}
		lo = hi + 1
	}
	return 0, 0, false
}

// lastWithMass returns the last undrawn candidate whose mass is
// positive.
func (l *liveMass) lastWithMass() int {
	s := len(l.drawn) - 1
	for i := len(l.cands) - 1; ; i-- {
		if s >= 0 && l.drawn[s] == i {
			s--
			continue
		}
		if l.mass[l.id[l.cands[i]]] > 0 {
			return i
		}
	}
}

// ByName constructs the sampler matching the paper's method name
// ("Random", "US", "StochasticBR", "StochasticUS"); gamma applies to the
// stochastic strategies. Unknown names return an error wrapping
// ErrUnknownMethod, and a gamma New rejects one wrapping ErrBadGamma.
// Typed callers should prefer ParseMethod + New.
func ByName(name string, gamma float64) (Sampler, error) {
	m, err := ParseMethod(name)
	if err != nil {
		return nil, err
	}
	return New(m, gamma)
}
