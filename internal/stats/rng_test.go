package stats

import (
	"math"
	"math/bits"
	"slices"
	"testing"
	"testing/quick"
)

func TestNewRNGDeterministic(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 100; i++ {
		if x, y := a.Uint64(), b.Uint64(); x != y {
			t.Fatalf("iteration %d: same seed diverged: %d vs %d", i, x, y)
		}
	}
}

func TestNewRNGDifferentSeedsDiverge(t *testing.T) {
	a := NewRNG(1)
	b := NewRNG(2)
	same := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 1 {
		t.Fatalf("different seeds produced %d/64 identical outputs", same)
	}
}

func TestSplitDecorrelated(t *testing.T) {
	a := NewRNG(7)
	b := a.Split()
	// The split stream must not simply replay the parent stream.
	parent := make([]uint64, 32)
	for i := range parent {
		parent[i] = a.Uint64()
	}
	matches := 0
	for i := 0; i < 32; i++ {
		v := b.Uint64()
		for _, p := range parent {
			if v == p {
				matches++
			}
		}
	}
	if matches > 0 {
		t.Fatalf("split stream shares %d values with parent", matches)
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(3)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := NewRNG(11)
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("uniform mean = %v, want ≈0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	r := NewRNG(5)
	for n := 1; n <= 17; n++ {
		seen := make([]bool, n)
		for i := 0; i < 2000; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
			seen[v] = true
		}
		for v, ok := range seen {
			if !ok {
				t.Fatalf("Intn(%d) never produced %d in 2000 draws", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestIntnUniformity(t *testing.T) {
	r := NewRNG(9)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Intn(n)]++
	}
	want := float64(draws) / n
	for v, c := range counts {
		if math.Abs(float64(c)-want) > 0.05*want {
			t.Fatalf("Intn(%d): value %d drawn %d times, want ≈%v", n, v, c, want)
		}
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := NewRNG(13)
	const n = 200000
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		x := r.NormFloat64()
		sum += x
		sumsq += x * x
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("normal mean = %v, want ≈0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Fatalf("normal variance = %v, want ≈1", variance)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := NewRNG(17)
	for n := 0; n <= 20; n++ {
		p := r.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) has length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) = %v is not a permutation", n, p)
			}
			seen[v] = true
		}
	}
}

func TestSampleWithoutReplacementProperties(t *testing.T) {
	r := NewRNG(19)
	f := func(nRaw, kRaw uint8) bool {
		n := int(nRaw%50) + 1
		k := int(kRaw) % (n + 1)
		s := r.SampleWithoutReplacement(n, k)
		if len(s) != k {
			return false
		}
		seen := map[int]bool{}
		for _, v := range s {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// sampleWithoutReplacementLinear is SampleWithoutReplacement with the
// membership test it replaced, a scan of the draws so far: the oracle
// for the hashed set.
func (r *RNG) sampleWithoutReplacementLinear(n, k int) []int {
	if k == 0 {
		return nil
	}
	out := make([]int, 0, k)
	for j := n - k; j < n; j++ {
		t := r.Intn(j + 1)
		for _, v := range out {
			if v == t {
				t = j
				break
			}
		}
		out = append(out, t)
	}
	r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// TestSampleWithoutReplacementMatchesLinearScan: the hashed membership
// test returns the linear scan's indices, in the same order, and leaves
// the generator in the same state, for small and large k, k = n and
// n up to the pool's sub-sampling sizes.
func TestSampleWithoutReplacementMatchesLinearScan(t *testing.T) {
	meta := NewRNG(41)
	for trial := 0; trial < 2000; trial++ {
		n, k := 1+meta.Intn(6000), 0
		switch trial % 4 {
		case 0: // k ≤ 16
			k = min(n, meta.Intn(17))
		case 1: // the whole range
			n = 1 + meta.Intn(300)
			k = n
		case 2: // NewPool's per-hypothesis cap
			k = min(n, 200)
		default:
			k = meta.Intn(min(n, 1000) + 1)
		}
		seed := meta.Uint64()
		got, want := NewRNG(seed), NewRNG(seed)
		g, w := got.SampleWithoutReplacement(n, k), want.sampleWithoutReplacementLinear(n, k)
		if !slices.Equal(g, w) || got.State() != want.State() {
			t.Fatalf("n=%d k=%d seed=%d: hashed %v, linear scan %v", n, k, seed, g, w)
		}
	}
}

// TestSampleIntoMatchesSampleWithoutReplacement: drawing into a reused
// buffer — left dirty by the previous draw, with k shrinking and
// growing so the membership set lands on stale indices and the storage
// is outgrown — returns the fresh-allocation indices and leaves the
// generator in the same state.
func TestSampleIntoMatchesSampleWithoutReplacement(t *testing.T) {
	meta := NewRNG(43)
	var buf []int
	for trial := 0; trial < 3000; trial++ {
		n := 1 + meta.Intn(5000)
		k := meta.Intn(min(n, 1+trial%400) + 1)
		if trial%7 == 0 {
			k = n % 301 // the whole range when n ≤ 300
		}
		seed := meta.Uint64()
		got, want := NewRNG(seed), NewRNG(seed)
		buf = got.SampleInto(buf, n, k)
		w := want.SampleWithoutReplacement(n, k)
		if !slices.Equal(buf, w) || got.State() != want.State() {
			t.Fatalf("trial %d n=%d k=%d: into reused buffer %v, fresh %v", trial, n, k, buf, w)
		}
	}
}

func TestSampleWithoutReplacementFullSet(t *testing.T) {
	r := NewRNG(23)
	s := r.SampleWithoutReplacement(8, 8)
	seen := make([]bool, 8)
	for _, v := range s {
		seen[v] = true
	}
	for i, ok := range seen {
		if !ok {
			t.Fatalf("k=n sample missing element %d: %v", i, s)
		}
	}
}

func TestSampleWithoutReplacementPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("k > n did not panic")
		}
	}()
	NewRNG(1).SampleWithoutReplacement(3, 4)
}

func TestSampleWithoutReplacementUniform(t *testing.T) {
	// Every element should be included with probability k/n.
	r := NewRNG(29)
	const n, k, trials = 10, 3, 50000
	counts := make([]int, n)
	for i := 0; i < trials; i++ {
		for _, v := range r.SampleWithoutReplacement(n, k) {
			counts[v]++
		}
	}
	want := float64(trials) * k / n
	for v, c := range counts {
		if math.Abs(float64(c)-want) > 0.05*want {
			t.Fatalf("element %d included %d times, want ≈%v", v, c, want)
		}
	}
}

func TestShuffle(t *testing.T) {
	r := NewRNG(31)
	xs := []int{0, 1, 2, 3, 4, 5, 6, 7}
	r.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	seen := make([]bool, len(xs))
	for _, v := range xs {
		seen[v] = true
	}
	for i, ok := range seen {
		if !ok {
			t.Fatalf("shuffle lost element %d: %v", i, xs)
		}
	}
}

// mul64 is the Hacker's Delight 128-bit product Intn used before
// math/bits.Mul64: the oracle for the intrinsic.
func mul64(a, b uint64) (hi, lo uint64) {
	const mask = 0xffffffff
	aLo, aHi := a&mask, a>>32
	bLo, bHi := b&mask, b>>32
	t := aLo*bHi + (aLo*bLo)>>32
	w1 := t & mask
	w2 := t >> 32
	w1 += aHi * bLo
	hi = aHi*bHi + w2 + (w1 >> 32)
	lo = a * b
	return hi, lo
}

// TestMul64MatchesBits: bits.Mul64 returns mul64's 128-bit product on
// the edge operands and on random pairs, so Intn's bounded draws are
// unchanged.
func TestMul64MatchesBits(t *testing.T) {
	edges := []uint64{0, 1, 2, 1<<32 - 1, 1 << 32, 1<<32 + 1, 1<<63 - 1, 1 << 63, math.MaxUint64}
	check := func(a, b uint64) {
		hi, lo := bits.Mul64(a, b)
		whi, wlo := mul64(a, b)
		if hi != whi || lo != wlo {
			t.Fatalf("Mul64(%#x, %#x) = (%#x, %#x), mul64 = (%#x, %#x)", a, b, hi, lo, whi, wlo)
		}
	}
	for _, a := range edges {
		for _, b := range edges {
			check(a, b)
		}
	}
	r := NewRNG(47)
	for i := 0; i < 100000; i++ {
		check(r.Uint64(), r.Uint64())
		check(r.Uint64(), uint64(r.Intn(1<<20)+1))
	}
}
