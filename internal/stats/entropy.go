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
