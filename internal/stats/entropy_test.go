package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestBernoulliEntropy(t *testing.T) {
	cases := []struct{ p, want float64 }{
		{0, 0},
		{1, 0},
		{0.5, math.Ln2},
		{-0.1, 0}, // clamped
		{1.1, 0},  // clamped
	}
	for _, c := range cases {
		if got := BernoulliEntropy(c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("BernoulliEntropy(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestBernoulliEntropySymmetricAndPeaked(t *testing.T) {
	f := func(pRaw uint16) bool {
		p := float64(pRaw) / 65535
		h := BernoulliEntropy(p)
		// Symmetry and maximality at 1/2.
		return math.Abs(h-BernoulliEntropy(1-p)) < 1e-12 && h <= math.Ln2+1e-12 && h >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
