package sampling

import (
	"math"
	"testing"

	"exptrain/internal/belief"
	"exptrain/internal/dataset"
	"exptrain/internal/fd"
	"exptrain/internal/stats"
)

// fixture builds a relation with a planted FD a→b (violated once) and a
// hypothesis space over its three attributes.
func fixture() (*dataset.Relation, *fd.Space) {
	rel := dataset.New(dataset.MustSchema("a", "b", "c"))
	for i := 0; i < 12; i++ {
		k := string(rune('0' + i%3))
		rel.MustAppend(dataset.Tuple{k, "f" + k, string(rune('p' + i%2))})
	}
	rel.SetValue(0, 1, "broken")
	space := fd.MustNewSpace(fd.MustEnumerate(fd.SpaceConfig{Arity: 3, MaxLHS: 2}))
	return rel, space
}

func allPairs(rel *dataset.Relation) []dataset.Pair {
	return dataset.AllPairs(rel.NumRows())
}

// cands is the candidate view of a pool over exactly the given pairs.
func cands(rel *dataset.Relation, pairs []dataset.Pair) Candidates {
	return NewPoolFrom(rel, pairs).Candidates()
}

func TestRandomSelectBasics(t *testing.T) {
	rel, space := fixture()
	b := belief.UniformPrior(space, 0.5, 0.1)
	pool := allPairs(rel)
	got := Random{}.Select(cands(rel, pool), b, 10, stats.NewRNG(1))
	if len(got) != 10 {
		t.Fatalf("selected %d, want 10", len(got))
	}
	seen := map[dataset.Pair]bool{}
	for _, p := range got {
		if seen[p] {
			t.Fatal("duplicate pair selected")
		}
		seen[p] = true
	}
	// Oversized k clamps.
	if got := (Random{}).Select(cands(rel, pool[:3]), b, 10, stats.NewRNG(1)); len(got) != 3 {
		t.Fatalf("clamped select returned %d", len(got))
	}
}

func TestUncertaintySelectsHighestEntropy(t *testing.T) {
	rel, space := fixture()
	// Belief with one FD at maximal uncertainty (0.5) and the rest
	// confident: only pairs violating the 0.5-FD carry entropy.
	b := belief.New(space, stats.MustBetaFromMoments(0.98, 0.01))
	target := fd.MustNew(fd.NewAttrSet(0), 1) // a→b
	idx, _ := space.Index(target)
	b.SetDist(idx, stats.NewBeta(1, 1)) // mean 0.5 → max entropy

	pool := allPairs(rel)
	got := Uncertainty{}.Select(cands(rel, pool), b, 3, stats.NewRNG(1))
	wantScore := b.Uncertainty(rel, got[0])
	// Verify it actually returns the global top score.
	for _, p := range pool {
		if s := b.Uncertainty(rel, p); s > wantScore+1e-12 {
			t.Fatalf("US missed a higher-entropy pair: %v (%v > %v)", p, s, wantScore)
		}
	}
	// Deterministic regardless of RNG.
	again := Uncertainty{}.Select(cands(rel, pool), b, 3, stats.NewRNG(999))
	for i := range got {
		if got[i] != again[i] {
			t.Fatal("US should be RNG independent")
		}
	}
}

func TestStochasticBRPrefersHighPayoff(t *testing.T) {
	rel, space := fixture()
	b := belief.New(space, stats.NewBeta(1, 1))
	// Make one FD certain so pairs violating it have payoff ≈ 1.
	idx, _ := space.Index(fd.MustNew(fd.NewAttrSet(0), 1))
	b.SetDist(idx, stats.MustBetaFromMoments(0.97, 0.01))

	pool := allPairs(rel)
	// Count how often the highest-payoff pair family is selected with a
	// cold temperature.
	s := StochasticBR{Gamma: 0.05}
	rng := stats.NewRNG(7)
	high, total := 0, 0
	for trial := 0; trial < 200; trial++ {
		for _, p := range s.Select(cands(rel, pool), b, 1, rng) {
			total++
			if b.SelfPayoff(rel, p) > 0.9 {
				high++
			}
		}
	}
	if float64(high)/float64(total) < 0.8 {
		t.Fatalf("cold StochasticBR picked high-payoff pairs only %d/%d times", high, total)
	}
}

func TestStochasticUSApproachesUSAsGammaToZero(t *testing.T) {
	rel, space := fixture()
	b := belief.New(space, stats.MustBetaFromMoments(0.9, 0.05))
	idx, _ := space.Index(fd.MustNew(fd.NewAttrSet(0), 1))
	b.SetDist(idx, stats.NewBeta(1, 1))

	pool := allPairs(rel)
	usPick := Uncertainty{}.Select(cands(rel, pool), b, 1, stats.NewRNG(1))[0]
	usScore := b.Uncertainty(rel, usPick)

	s := StochasticUS{Gamma: 0.005}
	rng := stats.NewRNG(11)
	match := 0
	const trials = 100
	for i := 0; i < trials; i++ {
		p := s.Select(cands(rel, pool), b, 1, rng)[0]
		if math.Abs(b.Uncertainty(rel, p)-usScore) < 1e-9 {
			match++
		}
	}
	if match < trials*9/10 {
		t.Fatalf("γ→0 StochasticUS matched US score only %d/%d times", match, trials)
	}
}

func TestStochasticSpreadsMoreThanGreedy(t *testing.T) {
	rel, space := fixture()
	b := belief.New(space, stats.MustBetaFromMoments(0.7, 0.05))
	pool := allPairs(rel)
	rng := stats.NewRNG(13)

	distinct := func(s Sampler, trials int) int {
		seen := map[dataset.Pair]bool{}
		for i := 0; i < trials; i++ {
			for _, p := range s.Select(cands(rel, pool), b, 2, rng) {
				seen[p] = true
			}
		}
		return len(seen)
	}
	greedy := distinct(Uncertainty{}, 30)
	warm := distinct(StochasticUS{Gamma: 2}, 30)
	if warm <= greedy {
		t.Fatalf("stochastic (γ=2) visited %d distinct pairs, greedy %d — expected more exploration", warm, greedy)
	}
}

func TestSoftmaxSelectDistinct(t *testing.T) {
	rel, space := fixture()
	b := belief.New(space, stats.NewBeta(1, 1))
	pool := allPairs(rel)
	got := StochasticBR{}.Select(cands(rel, pool), b, len(pool), stats.NewRNG(3))
	if len(got) != len(pool) {
		t.Fatalf("full draw returned %d of %d", len(got), len(pool))
	}
	seen := map[dataset.Pair]bool{}
	for _, p := range got {
		if seen[p] {
			t.Fatal("softmaxSelect returned a duplicate")
		}
		seen[p] = true
	}
}

func TestGammaDefaultsAndPanics(t *testing.T) {
	if gammaOrDefault(0) != DefaultGamma {
		t.Fatal("zero gamma should default")
	}
	if gammaOrDefault(0.3) != 0.3 {
		t.Fatal("explicit gamma overridden")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("negative gamma did not panic")
		}
	}()
	gammaOrDefault(-1)
}

func TestByName(t *testing.T) {
	for _, name := range []string{"Random", "US", "StochasticBR", "StochasticUS"} {
		s, err := ByName(name, 0.5)
		if err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
		if s.Name() != name {
			t.Fatalf("ByName(%q).Name() = %q", name, s.Name())
		}
	}
	if _, err := ByName("bogus", 0.5); err == nil {
		t.Fatal("unknown name should error")
	}
}

func TestAllMethodsOrder(t *testing.T) {
	ms := Methods()
	want := []string{"Random", "US", "StochasticBR", "StochasticUS"}
	if len(ms) != len(want) {
		t.Fatalf("Methods returned %d", len(ms))
	}
	for i, m := range ms {
		s, err := New(m, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		if s.Name() != want[i] {
			t.Fatalf("method %d = %q, want %q", i, s.Name(), want[i])
		}
	}
}

func TestPoolBuildsAgreeingAndRandom(t *testing.T) {
	rel, space := fixture()
	pool := NewPool(rel, space, PoolConfig{Seed: 1})
	if pool.Size() == 0 {
		t.Fatal("empty pool")
	}
	// Every agreeing pair of the planted FD should be present (well under
	// the per-FD cap at this size).
	f := fd.MustNew(fd.NewAttrSet(0), 1)
	have := map[dataset.Pair]bool{}
	for _, p := range pool.Remaining() {
		have[p] = true
	}
	for _, p := range dataset.AllPairs(rel.NumRows()) {
		if fd.Status(f, rel, p) != fd.Neutral && !have[p] {
			t.Fatalf("pool missing agreeing pair %v", p)
		}
	}
}

func TestPoolMarkShownExcludes(t *testing.T) {
	rel, space := fixture()
	pool := NewPool(rel, space, PoolConfig{Seed: 2})
	before := pool.Remaining()
	pool.MarkShown(before[:5])
	after := pool.Remaining()
	if len(after) != len(before)-5 {
		t.Fatalf("Remaining = %d, want %d", len(after), len(before)-5)
	}
	shown := map[dataset.Pair]bool{}
	for _, p := range before[:5] {
		shown[p] = true
	}
	for _, p := range after {
		if shown[p] {
			t.Fatal("shown pair still in Remaining")
		}
	}
	if pool.ShownCount() != 5 {
		t.Fatalf("ShownCount = %d", pool.ShownCount())
	}
}

func TestPoolRemainingCount(t *testing.T) {
	rel, space := fixture()
	pool := NewPool(rel, space, PoolConfig{Seed: 4})
	if pool.RemainingCount() != len(pool.Remaining()) {
		t.Fatalf("RemainingCount = %d, Remaining has %d", pool.RemainingCount(), len(pool.Remaining()))
	}
	total := pool.RemainingCount()
	show := append([]dataset.Pair(nil), pool.Remaining()[:3]...)
	pool.MarkShown(show)
	if pool.RemainingCount() != total-3 {
		t.Fatalf("RemainingCount after MarkShown = %d, want %d", pool.RemainingCount(), total-3)
	}
	// Re-marking shown pairs is a no-op for the counter.
	pool.MarkShown(show)
	if pool.RemainingCount() != total-3 {
		t.Fatalf("RemainingCount after duplicate MarkShown = %d, want %d", pool.RemainingCount(), total-3)
	}
	if pool.RemainingCount() != len(pool.Remaining()) {
		t.Fatal("RemainingCount and Remaining diverged")
	}
}

func TestPoolPerFDCap(t *testing.T) {
	// A relation with one huge LHS group; cap must bound the pool.
	rel := dataset.New(dataset.MustSchema("a", "b"))
	for i := 0; i < 100; i++ {
		rel.MustAppend(dataset.Tuple{"same", string(rune('0' + i%10))})
	}
	space := fd.MustNewSpace([]fd.FD{fd.MustNew(fd.NewAttrSet(0), 1)})
	pool := NewPool(rel, space, PoolConfig{MaxAgreeingPerFD: 50, RandomPairs: 1, Seed: 3})
	// 100 rows share one group → 4950 agreeing pairs, capped at 50 (plus
	// up to 1 random pair that may or may not dedupe).
	if pool.Size() > 51 {
		t.Fatalf("pool size %d exceeds cap", pool.Size())
	}
}

func TestPoolDeterministicForSeed(t *testing.T) {
	rel, space := fixture()
	a := NewPool(rel, space, PoolConfig{Seed: 9})
	b := NewPool(rel, space, PoolConfig{Seed: 9})
	ar, br := a.Remaining(), b.Remaining()
	if len(ar) != len(br) {
		t.Fatal("same seed different pool sizes")
	}
	for i := range ar {
		if ar[i] != br[i] {
			t.Fatal("same seed different pool contents")
		}
	}
}

// Remaining returns a copy of the candidate pairs not yet marked shown,
// in pool order.
func (p *Pool) Remaining() []dataset.Pair {
	out := make([]dataset.Pair, p.remaining)
	at := p.cursor()
	for i := range out {
		out[i] = p.pairs[at.seek(i)].pair()
	}
	return out
}

// ShownCount returns how many pairs have been presented.
func (p *Pool) ShownCount() int { return len(p.pairs) - p.remaining }
