package stats

import "math"

// BernoulliEntropy returns the entropy (in nats) of a Bernoulli(p)
// variable: −p·ln(p) − (1−p)·ln(1−p). This is the uncertainty measure
// the paper uses for both Uncertainty Sampling and Stochastic Uncertainty
// Sampling (§C.1). Degenerate p (0 or 1) yields 0 by the usual
// 0·ln 0 = 0 convention; p outside [0,1] is clamped, which protects the
// samplers from tiny floating-point excursions in belief means.
func BernoulliEntropy(p float64) float64 {
	if p <= 0 || p >= 1 {
		return 0
	}
	return -p*math.Log(p) - (1-p)*math.Log(1-p)
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
		panic("stats: Softmax with non-positive gamma")
	}
	if len(dst) != len(scores) {
		panic("stats: Softmax length mismatch")
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
func SampleCategorical(r *RNG, p []float64) int {
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
		panic("stats: SampleCategorical over empty or zero distribution")
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
