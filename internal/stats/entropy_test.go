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
	r := NewRNG(77)
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
	r := NewRNG(79)
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
	SampleCategorical(NewRNG(1), []float64{0, 0})
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
