package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestBetaMeanVariance(t *testing.T) {
	cases := []struct {
		alpha, beta, mean, variance float64
	}{
		{1, 1, 0.5, 1.0 / 12},
		{2, 2, 0.5, 0.05},
		{9, 1, 0.9, 9.0 / (100 * 11)},
		{0.5, 0.5, 0.5, 0.125},
	}
	for _, c := range cases {
		b := NewBeta(c.alpha, c.beta)
		if got := b.Mean(); math.Abs(got-c.mean) > 1e-12 {
			t.Errorf("Beta(%v,%v).Mean() = %v, want %v", c.alpha, c.beta, got, c.mean)
		}
		if got := b.Variance(); math.Abs(got-c.variance) > 1e-12 {
			t.Errorf("Beta(%v,%v).Variance() = %v, want %v", c.alpha, c.beta, got, c.variance)
		}
	}
}

func TestNewBetaPanicsOnInvalid(t *testing.T) {
	for _, c := range [][2]float64{{0, 1}, {1, 0}, {-1, 1}, {math.NaN(), 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewBeta(%v, %v) did not panic", c[0], c[1])
				}
			}()
			NewBeta(c[0], c[1])
		}()
	}
}

func TestBetaFromMomentsRoundTrip(t *testing.T) {
	f := func(muRaw, sigmaRaw uint16) bool {
		mu := 0.01 + 0.98*float64(muRaw)/65535
		maxSigma := math.Sqrt(mu * (1 - mu))
		sigma := 0.001 + 0.9*maxSigma*float64(sigmaRaw)/65535
		b, err := BetaFromMoments(mu, sigma)
		if err != nil {
			return false
		}
		return math.Abs(b.Mean()-mu) < 1e-9 && math.Abs(b.StdDev()-sigma) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestBetaFromMomentsPaperPriors(t *testing.T) {
	// §A.2 prior configuration: means 0.85 / 0.15 / 0.8, σ = 0.05.
	for _, mu := range []float64{0.85, 0.15, 0.8} {
		b, err := BetaFromMoments(mu, 0.05)
		if err != nil {
			t.Fatalf("paper prior μ=%v infeasible: %v", mu, err)
		}
		if math.Abs(b.Mean()-mu) > 1e-9 {
			t.Errorf("μ=%v: got mean %v", mu, b.Mean())
		}
		if math.Abs(b.StdDev()-0.05) > 1e-9 {
			t.Errorf("μ=%v: got σ %v", mu, b.StdDev())
		}
	}
}

func TestBetaFromMomentsInfeasible(t *testing.T) {
	cases := []struct{ mu, sigma float64 }{
		{0.5, 0.5},  // σ² = 0.25 = μ(1-μ)
		{0.5, 0.6},  // σ² > μ(1-μ)
		{0, 0.05},   // mean at boundary
		{1, 0.05},   // mean at boundary
		{0.5, 0},    // zero variance
		{-0.1, 0.1}, // mean below range
	}
	for _, c := range cases {
		if _, err := BetaFromMoments(c.mu, c.sigma); err == nil {
			t.Errorf("BetaFromMoments(%v, %v) should error", c.mu, c.sigma)
		}
	}
}

func TestBetaObserve(t *testing.T) {
	b := NewBeta(1, 1).Observe(3, 2)
	if b.Alpha != 4 || b.Beta != 3 {
		t.Fatalf("Observe: got Beta(%v,%v), want Beta(4,3)", b.Alpha, b.Beta)
	}
	// Posterior mean moves toward the empirical rate as evidence grows.
	strong := NewBeta(1, 1).Observe(300, 100)
	if math.Abs(strong.Mean()-0.75) > 0.01 {
		t.Fatalf("posterior mean = %v, want ≈0.75", strong.Mean())
	}
}

func TestBetaObservePanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative observation did not panic")
		}
	}()
	NewBeta(1, 1).Observe(-1, 0)
}

func TestBetaSampleMoments(t *testing.T) {
	r := NewRNG(101)
	for _, b := range []Beta{NewBeta(2, 5), NewBeta(0.5, 0.5), NewBeta(10, 1)} {
		const n = 100000
		var sum, sumsq float64
		for i := 0; i < n; i++ {
			x := b.Sample(r)
			if x < 0 || x > 1 {
				t.Fatalf("Beta(%v,%v) sample out of [0,1]: %v", b.Alpha, b.Beta, x)
			}
			sum += x
			sumsq += x * x
		}
		mean := sum / n
		variance := sumsq/n - mean*mean
		if math.Abs(mean-b.Mean()) > 0.01 {
			t.Errorf("Beta(%v,%v) sample mean %v, want %v", b.Alpha, b.Beta, mean, b.Mean())
		}
		if math.Abs(variance-b.Variance()) > 0.01 {
			t.Errorf("Beta(%v,%v) sample variance %v, want %v", b.Alpha, b.Beta, variance, b.Variance())
		}
	}
}

func TestBetaObserveConvergesProperty(t *testing.T) {
	// Property: with enough evidence at rate p, the posterior mean is
	// within 0.02 of p regardless of prior.
	f := func(pRaw, aRaw, bRaw uint8) bool {
		p := 0.05 + 0.9*float64(pRaw)/255
		prior := NewBeta(0.5+float64(aRaw)/32, 0.5+float64(bRaw)/32)
		const n = 10000
		post := prior.Observe(p*n, (1-p)*n)
		return math.Abs(post.Mean()-p) < 0.02
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
