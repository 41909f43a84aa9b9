// Package belief implements the agents' beliefs about the target model:
// a vector of Beta distributions, one per functional dependency in the
// hypothesis space, each modeling the agent's confidence that the FD
// holds over the clean portion of the data.
//
// The conjugate Beta update — increment α on compliant evidence, β on
// violating evidence — is exactly fictitious play's empirical-frequency
// counting, which is why the paper treats FP and Bayesian learning as
// interchangeable (§3, Fudenberg & Levine 1998).
package belief

import (
	"fmt"
	"math"
	"math/bits"

	"exptrain/internal/dataset"
	"exptrain/internal/fd"
	"exptrain/internal/stats"
)

// Label is the annotation a trainer assigns to a presented tuple pair.
type Label int

const (
	// Clean: the trainer believes neither tuple of the pair is erroneous;
	// any FD violation the pair exhibits is genuine counter-evidence.
	Clean Label = iota
	// Dirty: the trainer believes the pair exhibits an error — it marks
	// the pair as a violation of the trainer's hypothesized FDs.
	Dirty
)

func (l Label) String() string {
	if l == Dirty {
		return "dirty"
	}
	return "clean"
}

// Labeling is one annotation (x, y) of the game: a presented pair plus
// the trainer's violation marks. Following the paper's interface (§A.1
// identifies violations at the cell level; study participants mark the
// violating cells of their hypothesized FDs), a mark names an attribute
// whose cells the trainer believes erroneous in this pair. An empty
// mark set means the trainer considers the pair clean.
type Labeling struct {
	Pair dataset.Pair
	// Marked holds the attributes whose cells the trainer marked as
	// violations of its believed FDs.
	Marked fd.AttrSet
	// Abstained reports that the trainer declined to label the pair (an
	// annotator may abstain when too uncertain — the weak-labeler
	// setting of Zhang & Chaudhuri 2015). Abstained labelings carry no
	// evidence.
	Abstained bool
}

// Dirty reports whether the trainer marked anything — the pair-level
// binary label used by the payoff functions.
func (l Labeling) Dirty() bool { return !l.Marked.IsEmpty() }

// Label returns the pair-level binary label.
func (l Labeling) Label() Label {
	if l.Dirty() {
		return Dirty
	}
	return Clean
}

// Belief is a probability model over the hypothesis space: hypothesis i
// (an FD) holds with confidence distributed as dists[i].
type Belief struct {
	space *fd.Space
	dists []stats.Beta
}

// New creates a belief over the space with every hypothesis at the given
// prior distribution.
func New(space *fd.Space, prior stats.Beta) *Belief {
	b := &Belief{space: space, dists: make([]stats.Beta, space.Size())}
	for i := range b.dists {
		b.dists[i] = prior
	}
	return b
}

// Space returns the hypothesis space the belief is defined over.
func (b *Belief) Space() *fd.Space { return b.space }

// Size returns the number of hypotheses.
func (b *Belief) Size() int { return len(b.dists) }

// Dist returns the Beta distribution of hypothesis i.
func (b *Belief) Dist(i int) stats.Beta { return b.dists[i] }

// SetDist overwrites the distribution of hypothesis i.
func (b *Belief) SetDist(i int, d stats.Beta) { b.dists[i] = d }

// Confidence returns the point estimate (posterior mean) for hypothesis
// i.
func (b *Belief) Confidence(i int) float64 { return b.dists[i].Mean() }

// Confidences returns the posterior-mean vector over the space, the
// representation the MAE metric compares.
func (b *Belief) Confidences() []float64 {
	out := make([]float64, len(b.dists))
	for i, d := range b.dists {
		out[i] = d.Mean()
	}
	return out
}

// Clone returns an independent copy.
func (b *Belief) Clone() *Belief {
	c := &Belief{space: b.space, dists: make([]stats.Beta, len(b.dists))}
	copy(c.dists, b.dists)
	return c
}

// MAE returns the mean absolute error between the two beliefs'
// confidence vectors (§C.1's convergence metric). It panics if the
// beliefs are over different spaces.
func (b *Belief) MAE(o *Belief) float64 {
	if b.space != o.space && b.Size() != o.Size() {
		panic("belief: MAE across different hypothesis spaces")
	}
	// Direct loop replicating stats.MeanAbsDiff's exact operation order
	// over the confidence vectors without materializing them — MAE runs
	// once per round and must not allocate.
	var s float64
	for i := range b.dists {
		s += math.Abs(b.dists[i].Mean() - o.dists[i].Mean())
	}
	if len(b.dists) == 0 {
		return 0
	}
	return s / float64(len(b.dists))
}

// UpdateFromData performs the unsupervised fictitious-play update the
// trainer applies after observing raw samples (§2, P^T): for every
// presented pair and every hypothesis, a compliant pair increments α and
// a violating pair increments β, each scaled by weight. Pairs neutral to
// a hypothesis (LHS disagrees) carry no evidence for it.
func (b *Belief) UpdateFromData(rel *dataset.Relation, pairs []dataset.Pair, weight float64) {
	if weight <= 0 {
		panic(fmt.Sprintf("belief: non-positive update weight %v", weight))
	}
	var buf [batchBuf]fd.AttrSet
	agree := agreeScratch(buf[:], len(pairs))
	for _, p := range pairs {
		agree = append(agree, fd.AgreeSet(rel, p))
	}
	for i := 0; i < b.space.Size(); i++ {
		f := b.space.FD(i)
		var succ, fail float64
		for _, a := range agree {
			switch fd.StatusOn(f, a) {
			case fd.Compliant:
				succ += weight
			case fd.Violating:
				fail += weight
			}
		}
		if succ > 0 || fail > 0 {
			b.dists[i] = b.dists[i].Observe(succ, fail)
		}
	}
}

// MarkPairs is the trainer's best-response annotation (§2, R^T) under
// the belief: for every presented pair and every hypothesis held with
// confidence at least tau that the pair violates, the hypothesis' RHS
// attribute is marked as erroneous. Pairs violating no held hypothesis
// come back with no marks, i.e. clean.
func (b *Belief) MarkPairs(rel *dataset.Relation, pairs []dataset.Pair, tau float64) []Labeling {
	out := make([]Labeling, len(pairs))
	for i, p := range pairs {
		agree := fd.AgreeSet(rel, p)
		var marked fd.AttrSet
		for j := 0; j < b.space.Size(); j++ {
			f := b.space.FD(j)
			if b.dists[j].Mean() >= tau && fd.StatusOn(f, agree) == fd.Violating {
				marked = marked.Add(f.RHS)
			}
		}
		out[i] = Labeling{Pair: p, Marked: marked}
	}
	return out
}

// UpdateFromLabelings performs the learner's supervised fictitious-play
// update (§2, P^L) from the trainer's cell-level annotations. For each
// hypothesis f = X→A and each labeling whose pair agrees on X:
//
//   - the pair complies with f and A is unmarked → α += weight
//     (trustworthy consistent support);
//   - the pair violates f and A is unmarked → β += weight (the trainer
//     saw the disagreement on A and did not attribute it to an error —
//     genuine counter-evidence);
//   - A is marked → no update: the trainer flagged the A cells as
//     erroneous, so neither compliance nor violation on A is evidence
//     about whether f holds on clean data.
//
// Marking at the attribute level is what makes credit assignment work:
// a pair violating several hypotheses only shields the hypotheses whose
// RHS the trainer actually marked, so unbelieved hypotheses violated by
// the same pair still receive their negative evidence.
func (b *Belief) UpdateFromLabelings(rel *dataset.Relation, labeled []Labeling, weight float64) {
	if weight <= 0 {
		panic(fmt.Sprintf("belief: non-positive update weight %v", weight))
	}
	var buf [batchBuf]fd.AttrSet
	agree := labelingAgreeSets(agreeScratch(buf[:], len(labeled)), rel, labeled)
	for i := 0; i < b.space.Size(); i++ {
		succ, fail := labelingEvidence(b.space.FD(i), labeled, agree, weight)
		if succ > 0 || fail > 0 {
			b.dists[i] = b.dists[i].Observe(succ, fail)
		}
	}
}

// batchBuf is the on-stack capacity for a batch's agree sets: a round
// presents 10 pairs.
const batchBuf = 16

// agreeScratch returns an empty slice with room for n agree sets: buf
// when they fit, else one exact allocation.
func agreeScratch(buf []fd.AttrSet, n int) []fd.AttrSet {
	if n <= cap(buf) {
		return buf[:0]
	}
	return make([]fd.AttrSet, 0, n)
}

// labelingAgreeSets appends each labeling's agree set to dst, so a
// batch classifies its pairs once rather than once per hypothesis.
// Abstained labelings carry no evidence and get the empty set.
func labelingAgreeSets(dst []fd.AttrSet, rel *dataset.Relation, labeled []Labeling) []fd.AttrSet {
	for _, lp := range labeled {
		var a fd.AttrSet
		if !lp.Abstained {
			a = fd.AgreeSet(rel, lp.Pair)
		}
		dst = append(dst, a)
	}
	return dst
}

// labelingEvidence accumulates the (α, β) increments one hypothesis
// receives from a batch of labelings with the given agree sets.
func labelingEvidence(f fd.FD, labeled []Labeling, agree []fd.AttrSet, weight float64) (succ, fail float64) {
	for j, lp := range labeled {
		if lp.Abstained || lp.Marked.Has(f.RHS) {
			continue
		}
		switch fd.StatusOn(f, agree[j]) {
		case fd.Compliant:
			succ += weight
		case fd.Violating:
			fail += weight
		}
	}
	return succ, fail
}

// RemoveLabelings reverses a prior UpdateFromLabelings for the given
// labelings: the conjugate update is additive, so subtracting the same
// evidence undoes it exactly. Parameters are floored at a small
// positive value so a revision stream interleaved with decay cannot
// drive them invalid. Used when an annotator revises earlier labels.
func (b *Belief) RemoveLabelings(rel *dataset.Relation, labeled []Labeling, weight float64) {
	if weight <= 0 {
		panic(fmt.Sprintf("belief: non-positive update weight %v", weight))
	}
	const floor = 1e-3
	var buf [batchBuf]fd.AttrSet
	agree := labelingAgreeSets(agreeScratch(buf[:], len(labeled)), rel, labeled)
	for i := 0; i < b.space.Size(); i++ {
		succ, fail := labelingEvidence(b.space.FD(i), labeled, agree, weight)
		if succ == 0 && fail == 0 { //etlint:ignore floatcmp evidence untouched by any labeling is exactly 0, not computed
			continue
		}
		a := b.dists[i].Alpha - succ
		bb := b.dists[i].Beta - fail
		if a < floor {
			a = floor
		}
		if bb < floor {
			bb = floor
		}
		b.dists[i] = stats.Beta{Alpha: a, Beta: bb}
	}
}

// Decay applies geometric discounting to every hypothesis' evidence:
// α ← λ·α, β ← λ·β with λ ∈ (0, 1]. This is the standard adaptation of
// fictitious play to non-stationary opponents (Young 2004): old
// observations fade, so the belief tracks an annotator whose strategy
// drifts instead of averaging over its whole history. λ = 1 is a no-op;
// a small floor keeps the Beta parameters valid.
func (b *Belief) Decay(lambda float64) {
	if lambda <= 0 || lambda > 1 {
		panic(fmt.Sprintf("belief: decay factor %v out of (0,1]", lambda))
	}
	if lambda == 1 { //etlint:ignore floatcmp lambda == 1 is the explicit no-decay argument, not arithmetic
		return
	}
	const floor = 1e-3
	for i, d := range b.dists {
		a, bb := d.Alpha*lambda, d.Beta*lambda
		if a < floor {
			a = floor
		}
		if bb < floor {
			bb = floor
		}
		b.dists[i] = stats.Beta{Alpha: a, Beta: bb}
	}
}

// PDirty returns the belief's probability that the pair contains an
// error: the maximum confidence among hypotheses the pair syntactically
// violates, or 0 when the pair violates nothing. This generalizes the
// paper's Example 2 (a pair violating an FD with g₁ measure m is dirty
// with probability 1 − m): with confidence = 1 − conditional violation
// rate, a violating pair is dirty exactly with the violated hypothesis'
// confidence.
func (b *Belief) PDirty(rel *dataset.Relation, p dataset.Pair) float64 {
	agree := fd.AgreeSet(rel, p)
	var best float64
	for i, d := range b.dists {
		if fd.StatusOn(b.space.FD(i), agree) == fd.Violating {
			if c := d.Mean(); c > best {
				best = c
			}
		}
	}
	return best
}

// MaxConfidence returns the highest confidence among the hypotheses
// set in mask (the fd.Space.AppendViolated layout), or 0 for an empty
// mask: PDirty of every pair whose violated-hypothesis mask it is.
// Hypotheses are visited in ascending index order, the same order
// PDirty uses, so the two agree bit for bit.
func (b *Belief) MaxConfidence(mask []uint64) float64 {
	var best float64
	for w, word := range mask {
		for ; word != 0; word &= word - 1 {
			if c := b.dists[w*64+bits.TrailingZeros64(word)].Mean(); c > best {
				best = c
			}
		}
	}
	return best
}

// PredictLabel is the best-response labeling under the belief: Dirty
// when PDirty ≥ 1/2, Clean otherwise.
func (b *Belief) PredictLabel(rel *dataset.Relation, p dataset.Pair) Label {
	if b.PDirty(rel, p) >= 0.5 {
		return Dirty
	}
	return Clean
}

// LabelPayoff returns θ(y|x), the probability the belief assigns to
// label y for pair x — the per-labeling payoff of Section 2.
func (b *Belief) LabelPayoff(rel *dataset.Relation, p dataset.Pair, y Label) float64 {
	pd := b.PDirty(rel, p)
	if y == Dirty {
		return pd
	}
	return 1 - pd
}

// SelfPayoff returns max(PDirty, 1−PDirty): the payoff u_a(θ, x) the
// learner expects from presenting x, assuming the trainer will label it
// the way the learner's own belief predicts (Section 4's stochastic best
// response scores).
func (b *Belief) SelfPayoff(rel *dataset.Relation, p dataset.Pair) float64 {
	return SelfPayoffOf(b.PDirty(rel, p))
}

// SelfPayoffOf is SelfPayoff as a function of the pair's PDirty.
func SelfPayoffOf(pd float64) float64 {
	if pd >= 0.5 {
		return pd
	}
	return 1 - pd
}

// Uncertainty returns the Bernoulli entropy of the dirty/clean
// prediction for the pair, the uncertainty-sampling score of §C.1.
func (b *Belief) Uncertainty(rel *dataset.Relation, p dataset.Pair) float64 {
	return stats.BernoulliEntropy(b.PDirty(rel, p))
}

// BelievedFDs returns the hypotheses with confidence at least tau, the
// model the belief exports for downstream error detection.
func (b *Belief) BelievedFDs(tau float64) []fd.FD {
	var out []fd.FD
	for i, d := range b.dists {
		if d.Mean() >= tau {
			out = append(out, b.space.FD(i))
		}
	}
	return out
}

// ConfidentFDs returns the hypotheses with posterior mean at least tau
// AND posterior standard deviation at most maxStd. The second condition
// keeps hypotheses that merely inherited a high prior — and never
// received evidence — out of the exported model; a Beta only tightens
// below the prior's spread after actual observations arrive.
func (b *Belief) ConfidentFDs(tau, maxStd float64) []fd.FD {
	var out []fd.FD
	for i, d := range b.dists {
		if d.Mean() >= tau && d.StdDev() <= maxStd {
			out = append(out, b.space.FD(i))
		}
	}
	return out
}

// CredibleInterval returns the central credible interval of hypothesis
// i's confidence covering the given mass (e.g. 0.95) — the uncertainty
// band an interface shows next to the point estimate.
func (b *Belief) CredibleInterval(i int, mass float64) (lo, hi float64) {
	return b.dists[i].CredibleInterval(mass)
}

// TopK returns the indices of the k highest-confidence hypotheses in
// descending confidence order (ties broken by canonical space order),
// used by the user study's reciprocal-rank evaluation.
func (b *Belief) TopK(k int) []int {
	if k > len(b.dists) {
		k = len(b.dists)
	}
	idx := make([]int, len(b.dists))
	for i := range idx {
		idx[i] = i
	}
	// Partial selection sort: k is small (the paper uses k = 5).
	for sel := 0; sel < k; sel++ {
		best := sel
		for j := sel + 1; j < len(idx); j++ {
			ci, cj := b.dists[idx[j]].Mean(), b.dists[idx[best]].Mean()
			if ci > cj || (ci == cj && idx[j] < idx[best]) { //etlint:ignore floatcmp deterministic index tie-break on identically computed means
				best = j
			}
		}
		idx[sel], idx[best] = idx[best], idx[sel]
	}
	return idx[:k]
}
