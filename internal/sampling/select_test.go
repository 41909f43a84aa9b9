package sampling

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"testing"

	"exptrain/internal/belief"
	"exptrain/internal/datagen"
	"exptrain/internal/dataset"
	"exptrain/internal/fd"
	"exptrain/internal/stats"
)

// selectors lists every belief-driven sampler, the stochastic ones at
// each temperature the equality tests cover.
func selectors() []Sampler {
	out := []Sampler{Uncertainty{}, QueryByCommittee{}, QueryByCommittee{Committee: 8}, EpsilonGreedy{Epsilon: 0.3}}
	for _, g := range []float64{1e-4, 0.05, 0.5, 5} {
		out = append(out, StochasticUS{Gamma: g}, StochasticBR{Gamma: g})
	}
	return out
}

// checkSelect runs every sampler at k ∈ {1, 10, n−1, n} over p's
// candidates through its class path and through the per-pair oracle,
// from equal RNG states, and fails unless both return the same
// candidate indices in the same order and leave the RNG in the same
// state.
func checkSelect(t testing.TB, p *Pool, b *belief.Belief, seed uint64, ctx string) {
	t.Helper()
	c := p.Candidates()
	n := c.Len()
	o := new(perPair)
	for _, s := range selectors() {
		for _, k := range []int{1, 10, n - 1, n} {
			if k < 0 {
				continue
			}
			got, want := stats.NewRNG(seed), stats.NewRNG(seed)
			gp := s.Select(c, b, k, got)
			wp := o.selectPerPair(s, c, b, k, want)
			if !slices.Equal(gp, wp) {
				t.Fatalf("%s: %s %+v k=%d of %d: class path %v, per-pair %v", ctx, s.Name(), s, k, n, gp, wp)
			}
			if got.State() != want.State() {
				t.Fatalf("%s: %s %+v k=%d of %d: RNG left at %v, per-pair at %v", ctx, s.Name(), s, k, n, got.State(), want.State())
			}
		}
	}
}

// randomRelation returns rows random tuples over arity attributes with
// small domains, so pairs agree on varied attribute sets.
func randomRelation(rng *stats.RNG, rows, arity int) *dataset.Relation {
	names := make([]string, arity)
	for j := range names {
		names[j] = fmt.Sprintf("a%d", j)
	}
	rel := dataset.New(dataset.MustSchema(names...))
	for i := 0; i < rows; i++ {
		row := make(dataset.Tuple, arity)
		for j := range row {
			row[j] = fmt.Sprintf("v%d", rng.Intn(2+j%3))
		}
		rel.MustAppend(row)
	}
	return rel
}

// moveOut edits one cell of q's first row so that q's agree set is no
// longer agree: it breaks q's first agreement with a value no other
// cell holds, or, for a pair agreeing nowhere, copies q's second row's
// first cell.
func moveOut(rel *dataset.Relation, q dataset.Pair, agree fd.AttrSet, fresh string) {
	if agree.IsEmpty() {
		rel.SetValue(q.A, 0, rel.Value(q.B, 0))
		return
	}
	rel.SetValue(q.A, agree.Attrs()[0], fresh)
}

// emptyClass moves candidates of p's smallest class out of it, one
// SetValue at a time, until the class has no candidates left.
func emptyClass(t testing.TB, p *Pool, space *fd.Space) {
	t.Helper()
	sc := new(selectScratch)
	c := p.Candidates()
	tab := c.countClasses(sc, space)
	cl := -1
	for k, n := range sc.count {
		if n > 0 && (cl < 0 || n < sc.count[cl]) {
			cl = k
		}
	}
	for edit := 0; sc.count[cl] > 0; edit++ {
		if edit == c.Len() {
			t.Fatalf("class %d kept %d candidates through %d edits", cl, sc.count[cl], edit)
		}
		for i, id := range tab.cand {
			if int(id) == cl {
				moveOut(p.rel, c.Pair(i), tab.agree[cl], fmt.Sprintf("emptied-%d", edit))
				break
			}
		}
		tab = c.countClasses(sc, space)
	}
}

// createClass makes one SetValue that gives some candidate an agree set
// the class table does not hold yet.
func createClass(t testing.TB, p *Pool, space *fd.Space) {
	t.Helper()
	sc := new(selectScratch)
	c := p.Candidates()
	for i := 0; i < c.Len(); i++ {
		tab := c.countClasses(sc, space)
		classes := len(tab.agree)
		moveOut(p.rel, c.Pair(i), tab.agree[tab.cand[i]], fmt.Sprintf("created-%d", i))
		if len(c.countClasses(sc, space).agree) > classes {
			return
		}
	}
	t.Fatal("no single-cell edit created a class")
}

// checkSelectStates runs checkSelect on a pool over rel's pairs as it
// moves through every state a session reaches: built, after a Show,
// after a SetValue that empties a class and one that creates one, and
// after an Append, which rebuilds the class table.
func checkSelectStates(t testing.TB, p *Pool, b *belief.Belief, seed uint64, ctx string) {
	t.Helper()
	checkSelect(t, p, b, seed, ctx+" built")
	p.Show(StochasticUS{}.Select(p.Candidates(), b, 10, stats.NewRNG(seed)))
	checkSelect(t, p, b, seed+1, ctx+" after Show")
	emptyClass(t, p, b.Space())
	checkSelect(t, p, b, seed+3, ctx+" after a SetValue emptied a class")
	createClass(t, p, b.Space())
	checkSelect(t, p, b, seed+4, ctx+" after a SetValue created a class")
	p.rel.MustAppend(p.rel.Row(0).Clone())
	checkSelect(t, p, b, seed+5, ctx+" after Append")
}

// TestClassSelectMatchesPerPair: on random relations and on the paper's
// datasets, under random, flat, uniform and data-estimate beliefs,
// every class-level sampler returns exactly the per-pair oracle's
// candidate indices, in order, and leaves the RNG where the oracle
// leaves it, in every pool state checkSelectStates visits.
func TestClassSelectMatchesPerPair(t *testing.T) {
	rng := stats.NewRNG(5)
	for r := 0; r < 4; r++ {
		rel := randomRelation(rng, 14+4*r, 6)
		space := enumerated(rel, 3, 0)
		p := NewPoolFrom(rel, dataset.AllPairs(rel.NumRows()))
		beliefs := []*belief.Belief{
			belief.RandomPrior(space, rng.Split(), 0.1),
			belief.New(space, stats.NewBeta(1, 1)),
		}
		b := beliefs[r%len(beliefs)]
		checkSelectStates(t, p, b, uint64(r)*11, fmt.Sprintf("random relation %d", r))
	}
	for _, name := range []string{"OMDB", "Hospital"} {
		gen, err := datagen.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		ds := gen(40, 3)
		space := enumerated(ds.Rel, 3, 38)
		p := NewPool(ds.Rel, space, PoolConfig{MaxAgreeingPerFD: 10, RandomPairs: 40, Seed: 3})
		for i, b := range []*belief.Belief{
			belief.UniformPrior(space, 0.9, 0.05),
			belief.DataEstimatePrior(space, ds.Rel, 0.12),
		} {
			checkSelectStates(t, p, b, uint64(i)+100, fmt.Sprintf("%s belief %d", name, i))
		}
	}
}

// TestSoftmaxDrawsDistinctAfterUnderflow: at γ = 1e-4 under a flat
// belief, StochasticUS first draws the 37 of the fixture's 66 pairs
// with positive entropy and StochasticBR the 29 with payoff 1; every
// other pair's mass has underflowed to zero. Each later draw must
// still be a fresh pair, drawn uniformly from the undrawn ones.
func TestSoftmaxDrawsDistinctAfterUnderflow(t *testing.T) {
	rel, space := fixture()
	b := belief.New(space, stats.NewBeta(1, 1))
	pool := allPairs(rel)
	for _, s := range []Sampler{StochasticUS{Gamma: 1e-4}, StochasticBR{Gamma: 1e-4}} {
		got := pick(s, rel, pool, b, 38, stats.NewRNG(2))
		seen := map[dataset.Pair]bool{}
		for _, p := range got {
			if seen[p] {
				t.Fatalf("%s drew %v twice in %v", s.Name(), p, got)
			}
			seen[p] = true
		}
		if len(got) != 38 {
			t.Fatalf("%s drew %d pairs, want 38", s.Name(), len(got))
		}
	}
}

// rngAt returns a generator whose first two Float64 draws are u1 and
// u2, each a multiple of 2⁻⁵³ in [0, 1). A xoshiro256** output depends
// only on state word 1, as rotl(s1·5, 7)·9, and the first step sets
// word 1 to s0^s1^s2, so both outputs can be solved for.
func rngAt(u1, u2 float64) *stats.RNG {
	inverse := func(a uint64) uint64 { // of odd a, mod 2⁶⁴ (Newton)
		x := a
		for i := 0; i < 6; i++ {
			x *= 2 - a*x
		}
		return x
	}
	word1 := func(u float64) uint64 {
		out := uint64(u*(1<<53)) << 11
		return bits.RotateLeft64(out*inverse(9), -7) * inverse(5)
	}
	s0, s1 := uint64(0x9e3779b97f4a7c15), word1(u1)
	r := stats.NewRNG(0)
	if err := r.RestoreState([4]uint64{s0, s1, word1(u2) ^ s1 ^ s0, 1}); err != nil {
		panic(err)
	}
	return r
}

// boundaries returns the cumulative sums, in candidate order, of the
// positive entries of probs, each with the float just below it: the
// values of u at which a draw's pick moves to the next candidate. Only
// those a Float64 draw can return, multiples of 2⁻⁵³ below 1, are kept.
func boundaries(probs []float64) []float64 {
	var out []float64
	var cum float64
	for _, p := range probs {
		if p <= 0 {
			continue
		}
		cum += p
		for _, u := range []float64{cum, math.Nextafter(cum, 0)} {
			if m := u * (1 << 53); u < 1 && m == math.Trunc(m) {
				out = append(out, u)
			}
		}
	}
	return out
}

// TestClassSoftmaxBoundaryDraws pins the floats, not only the draws
// random u values reach. It sets u exactly on, and one float below,
// each cumulative sum the per-pair oracle forms in its first and
// second draws, where a sum one ulp off would move the pick: the
// class path must pick what the oracle picks at every one. Each pool
// is checked as built and again with the classes of its top candidates
// by entropy and by payoff shown, so that the classes present no
// longer hold the highest score.
func TestClassSoftmaxBoundaryDraws(t *testing.T) {
	if r := rngAt(0.5, 0x1.23456789abcdp-1); r.Float64() != 0.5 || r.Float64() != 0x1.23456789abcdp-1 {
		t.Fatal("rngAt does not produce the draws asked for")
	}
	scores := []func(float64) float64{stats.BernoulliEntropy, belief.SelfPayoffOf}
	o := new(perPair)
	check := func(ctx string, c Candidates, b *belief.Belief) {
		t.Helper()
		for _, gamma := range []float64{0.05, 0.5, 5} {
			for i, s := range []Sampler{StochasticUS{Gamma: gamma}, StochasticBR{Gamma: gamma}} {
				draw := func(k int, u1, u2 float64) {
					got := s.Select(c, b, k, rngAt(u1, u2))
					want := o.selectPerPair(s, c, b, k, rngAt(u1, u2))
					if !slices.Equal(got, want) {
						t.Fatalf("%s %s %+v k=%d u=(%v, %v): class path %v, per-pair %v", ctx, s.Name(), s, k, u1, u2, got, want)
					}
				}
				probs := make([]float64, c.Len())
				Softmax(probs, o.candidateScores(c, b, scores[i]), gamma)
				first := boundaries(probs)
				if len(first) < c.Len()/4 {
					t.Fatalf("%s: only %d usable first-draw boundaries over %d candidates", ctx, len(first), c.Len())
				}
				for _, u := range first {
					draw(1, u, 0)
				}
				// The second draw, after the pick at u1 = 1/2.
				probs[SampleCategorical(rngAt(0.5, 0), probs)] = 0
				Normalize(probs)
				for _, u := range boundaries(probs) {
					draw(2, 0.5, u)
				}
			}
		}
	}
	rel := randomRelation(stats.NewRNG(9), 16, 6)
	space := enumerated(rel, 3, 0)
	ds := datagen.OMDB(40, 5)
	omdb := ds.Space(3, 38)
	for _, tc := range []struct {
		name string
		p    *Pool
		b    *belief.Belief
	}{
		{"random relation", NewPoolFrom(rel, dataset.AllPairs(rel.NumRows())), belief.RandomPrior(space, stats.NewRNG(4), 0.1)},
		{"OMDB", NewPool(ds.Rel, omdb, PoolConfig{MaxAgreeingPerFD: 10, RandomPairs: 40, Seed: 5}), belief.DataEstimatePrior(omdb, ds.Rel, 0.12)},
	} {
		c := tc.p.Candidates()
		check(tc.name, c, tc.b)
		tab := c.countClasses(new(selectScratch), tc.b.Space())
		var top []int32
		for _, score := range scores {
			values := o.candidateScores(c, tc.b, score)
			top = append(top, tab.cand[slices.Index(values, slices.Max(values))])
		}
		var hide []int
		for i, id := range tab.cand {
			if slices.Contains(top, id) {
				hide = append(hide, i)
			}
		}
		tc.p.Show(hide)
		check(tc.name+" without its top classes", tc.p.Candidates(), tc.b)
	}
}

// FuzzClassSelect drives a pool over every pair of a small random
// relation through fuzzer-chosen Show, SetValue and Append steps
// and checks every sampler's class path against the per-pair oracle
// after each step. The first byte seeds the relation and the belief.
func FuzzClassSelect(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{7, 0x40, 3, 1, 0x81, 2, 2, 0xc0, 9, 9})
	f.Add([]byte{3, 0x10, 0x20, 0x30, 0x41, 0x52, 0x63, 0x84, 0xf5})
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) == 0 || len(script) > 32 {
			return
		}
		rng := stats.NewRNG(uint64(script[0]))
		rel := randomRelation(rng, 8+int(script[0]%8), 4)
		space := enumerated(rel, 2, 0)
		p := NewPoolFrom(rel, dataset.AllPairs(rel.NumRows()))
		b := belief.RandomPrior(space, rng.Split(), 0.05+float64(script[0]%4)/10)
		checkSelect(t, p, b, 1, "built")
		for i, op := range script[1:] {
			arg := int(op & 0x3f)
			switch op >> 6 {
			case 0, 1:
				if n := p.RemainingCount(); n > 0 {
					p.Show([]int{arg % n})
				}
			case 2:
				rel.SetValue(arg%rel.NumRows(), arg%4, fmt.Sprintf("v%d", arg%5))
			case 3:
				rel.MustAppend(rel.Row(arg % rel.NumRows()).Clone())
			}
			checkSelect(t, p, b, uint64(i), fmt.Sprintf("step %d (op %#x)", i, op))
		}
	})
}

// BenchmarkSelect times one selection of k = 10 pairs from an OMDB-240
// pool under a DataEstimate prior, over the paper's 38-FD space and the
// service's 147-FD one, from the pool as built (shown=0) and after 40
// rounds of k = 10 StochasticUS presentations (shown=400), through the
// per-candidate oracle (perpair) and the class-level samplers (class).
// Each class case also reports x-vs-perpair: the same run's perpair
// ns/op for its sampler and shape divided by its own.
func BenchmarkSelect(b *testing.B) {
	ds := datagen.OMDB(240, 1)
	type shape struct {
		name string
		bel  *belief.Belief
		pool *Pool
	}
	var shapes []shape
	for _, space := range []*fd.Space{ds.Space(3, 38), enumerated(ds.Rel, 2, 0)} {
		bel := belief.DataEstimatePrior(space, ds.Rel, 0.12)
		for _, shown := range []int{0, 400} {
			pool := NewPool(ds.Rel, space, PoolConfig{Seed: 1})
			rng := stats.NewRNG(3)
			for pool.ShownCount() < shown {
				pool.Show(StochasticUS{}.Select(pool.Candidates(), bel, 10, rng))
			}
			pool.Candidates().countClasses(new(selectScratch), space) // build the class table outside the timer
			shapes = append(shapes, shape{fmt.Sprintf("fds=%d/shown=%d", space.Size(), shown), bel, pool})
		}
	}
	perpairNs := map[string]float64{}
	for _, path := range []string{"perpair", "class"} {
		b.Run(path, func(b *testing.B) {
			for _, s := range []Sampler{Uncertainty{}, StochasticUS{}, StochasticBR{}} {
				b.Run(s.Name(), func(b *testing.B) {
					for _, sh := range shapes {
						b.Run(sh.name, func(b *testing.B) {
							c, rng, o := sh.pool.Candidates(), stats.NewRNG(2), new(perPair)
							b.ResetTimer()
							for i := 0; i < b.N; i++ {
								if path == "perpair" {
									o.selectPerPair(s, c, sh.bel, 10, rng)
								} else {
									s.Select(c, sh.bel, 10, rng)
								}
							}
							ns := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
							key := s.Name() + "/" + sh.name
							if path == "perpair" {
								perpairNs[key] = ns
							} else if ref := perpairNs[key]; ref > 0 {
								b.ReportMetric(ref/ns, "x-vs-perpair")
							}
						})
					}
				})
			}
		})
	}
}
