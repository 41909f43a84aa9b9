package stats

import "math"

// CDF returns P(X ≤ x) for X ~ Beta(α, β): the regularized incomplete
// beta function I_x(α, β), computed with the continued-fraction
// expansion (Lentz's method, as in Numerical Recipes §6.4). Accurate to
// ~1e-12 over the parameter ranges beliefs use.
func (b Beta) CDF(x float64) float64 {
	switch {
	case x <= 0:
		return 0
	case x >= 1:
		return 1
	}
	// Symmetry: converge fast by evaluating on the side where the
	// continued fraction is stable.
	lbeta := logBetaFunc(b.Alpha, b.Beta)
	front := math.Exp(b.Alpha*math.Log(x) + b.Beta*math.Log(1-x) - lbeta)
	if x < (b.Alpha+1)/(b.Alpha+b.Beta+2) {
		return front * betacf(b.Alpha, b.Beta, x) / b.Alpha
	}
	return 1 - front*betacf(b.Beta, b.Alpha, 1-x)/b.Beta
}

// betacf evaluates the continued fraction for the incomplete beta
// function by the modified Lentz method.
func betacf(a, b, x float64) float64 {
	const (
		maxIter = 300
		eps     = 1e-14
		fpmin   = 1e-300
	)
	qab := a + b
	qap := a + 1
	qam := a - 1
	c := 1.0
	d := 1 - qab*x/qap
	if math.Abs(d) < fpmin {
		d = fpmin
	}
	d = 1 / d
	h := d
	for m := 1; m <= maxIter; m++ {
		m2 := float64(2 * m)
		mf := float64(m)
		aa := mf * (b - mf) * x / ((qam + m2) * (a + m2))
		d = 1 + aa*d
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		h *= d * c
		aa = -(a + mf) * (qab + mf) * x / ((a + m2) * (qap + m2))
		d = 1 + aa*d
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < eps {
			break
		}
	}
	return h
}

// Quantile returns the p-quantile of the Beta distribution (the inverse
// CDF), found by bisection on the monotone CDF down to two adjacent
// floats: it returns whichever of them has the CDF nearer p. A bracket
// of fixed width in x would miss p by far more than the CDF's own error
// in a steep tail (a small α near 0, a small β near 1). Every step
// halves the bracket, so the loop ends within ~1100 steps even when the
// quantile is subnormal. p outside [0, 1] panics.
func (b Beta) Quantile(p float64) float64 {
	if p < 0 || p > 1 {
		panic("stats: Beta quantile probability out of [0,1]")
	}
	if p == 0 {
		return 0
	}
	if p == 1 {
		return 1
	}
	lo, hi := 0.0, 1.0
	clo, chi := 0.0, 1.0
	for {
		mid := lo + (hi-lo)/2
		if mid == lo || mid == hi { // the bracket is two adjacent floats
			break
		}
		if c := b.CDF(mid); c < p {
			lo, clo = mid, c
		} else {
			hi, chi = mid, c
		}
	}
	if p-clo < chi-p {
		return lo
	}
	return hi
}

// CredibleInterval returns the central credible interval covering the
// given mass (e.g. 0.95): the (1−mass)/2 and 1−(1−mass)/2 quantiles.
func (b Beta) CredibleInterval(mass float64) (lo, hi float64) {
	if mass <= 0 || mass >= 1 {
		panic("stats: credible mass out of (0,1)")
	}
	tail := (1 - mass) / 2
	return b.Quantile(tail), b.Quantile(1 - tail)
}
