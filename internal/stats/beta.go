package stats

import (
	"fmt"
	"math"
)

// Beta is a Beta(α, β) distribution over [0, 1]. It is the conjugate
// prior the framework uses for per-hypothesis confidence: observing a
// tuple pair that complies with a functional dependency increments α,
// observing a violating pair increments β (fictitious play's empirical
// frequency counting is exactly this update, which is why the paper uses
// "FP" and "Bayesian" interchangeably).
type Beta struct {
	Alpha float64
	Beta  float64
}

// NewBeta returns a Beta distribution with the given shape parameters.
// It panics if either parameter is not strictly positive.
func NewBeta(alpha, beta float64) Beta {
	if !(alpha > 0) || !(beta > 0) {
		panic(fmt.Sprintf("stats: invalid Beta parameters α=%v β=%v", alpha, beta))
	}
	return Beta{Alpha: alpha, Beta: beta}
}

// BetaFromMoments constructs the Beta distribution with the given mean μ
// and standard deviation σ, inverting
//
//	μ = α/(α+β)
//	σ² = αβ / ((α+β)²(α+β+1))
//
// which is how the paper configures user-study priors (§A.2: μ=0.85 for
// the user-specified FD, 0.15 or 0.8 for the others, σ=0.05 for all).
// It returns an error when (μ, σ) lie outside the feasible region
// σ² < μ(1-μ).
func BetaFromMoments(mu, sigma float64) (Beta, error) {
	if mu <= 0 || mu >= 1 {
		return Beta{}, fmt.Errorf("stats: Beta mean %v out of (0,1)", mu)
	}
	v := sigma * sigma
	if v <= 0 {
		return Beta{}, fmt.Errorf("stats: Beta variance must be positive, got σ=%v", sigma)
	}
	if v >= mu*(1-mu) {
		return Beta{}, fmt.Errorf("stats: infeasible Beta moments μ=%v σ=%v (need σ² < μ(1-μ))", mu, sigma)
	}
	nu := mu*(1-mu)/v - 1 // ν = α+β
	return NewBeta(mu*nu, (1-mu)*nu), nil
}

// MustBetaFromMoments is BetaFromMoments that panics on error; intended
// for statically known-feasible configurations.
func MustBetaFromMoments(mu, sigma float64) Beta {
	b, err := BetaFromMoments(mu, sigma)
	if err != nil {
		panic(err)
	}
	return b
}

// Mean returns α/(α+β).
func (b Beta) Mean() float64 { return b.Alpha / (b.Alpha + b.Beta) }

// Variance returns αβ/((α+β)²(α+β+1)).
func (b Beta) Variance() float64 {
	s := b.Alpha + b.Beta
	return b.Alpha * b.Beta / (s * s * (s + 1))
}

// StdDev returns the standard deviation.
func (b Beta) StdDev() float64 { return math.Sqrt(b.Variance()) }

// Observe returns the posterior after seeing `successes` compliant and
// `failures` violating observations (standard conjugate update).
func (b Beta) Observe(successes, failures float64) Beta {
	if successes < 0 || failures < 0 {
		panic("stats: negative observation counts")
	}
	return Beta{Alpha: b.Alpha + successes, Beta: b.Beta + failures}
}

// Sample draws a variate using the ratio of two Gamma draws.
func (b Beta) Sample(r *RNG) float64 {
	x := sampleGamma(r, b.Alpha)
	y := sampleGamma(r, b.Beta)
	if x == 0 && y == 0 {
		return 0.5
	}
	return x / (x + y)
}

// logBetaFunc computes log B(a, b) = lnΓ(a) + lnΓ(b) − lnΓ(a+b).
func logBetaFunc(a, b float64) float64 {
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	lab, _ := math.Lgamma(a + b)
	return la + lb - lab
}

// sampleGamma draws from Gamma(shape, 1) using Marsaglia & Tsang (2000),
// with the standard boost for shape < 1.
func sampleGamma(r *RNG, shape float64) float64 {
	if shape < 1 {
		// Gamma(a) = Gamma(a+1) * U^(1/a)
		u := r.Float64()
		for u == 0 {
			u = r.Float64()
		}
		return sampleGamma(r, shape+1) * math.Pow(u, 1/shape)
	}
	d := shape - 1.0/3.0
	c := 1 / math.Sqrt(9*d)
	for {
		x := r.NormFloat64()
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := r.Float64()
		if u == 0 {
			continue
		}
		if u < 1-0.0331*x*x*x*x {
			return d * v
		}
		if math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v
		}
	}
}
