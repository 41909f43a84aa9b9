package sampling

import (
	"fmt"
	"slices"
	"testing"

	"exptrain/internal/belief"
	"exptrain/internal/datagen"
	"exptrain/internal/dataset"
	"exptrain/internal/fd"
	"exptrain/internal/stats"
)

// checkClasses is the oracle for the agree-set class table: every pool
// position's class mask over space must hold exactly the hypotheses
// fd.Status reports the pair violating, with no bits past the space.
// It also checks that every candidate's class value equals a per-pair
// b.PDirty walk bit for bit, and that the class counts add up to the
// candidates.
func checkClasses(t *testing.T, p *Pool, space *fd.Space, b *belief.Belief, ctx string) {
	t.Helper()
	tab := p.classesFor(space)
	if tab.version != p.rel.Version() {
		t.Fatalf("%s: class table at version %d, relation at %d", ctx, tab.version, p.rel.Version())
	}
	for pos, q := range p.pairs {
		mask := tab.mask(int(tab.id[pos]))
		if len(mask) != space.MaskWords() {
			t.Fatalf("%s: mask of %v spans %d words, want %d", ctx, q, len(mask), space.MaskWords())
		}
		for i := 0; i < 64*len(mask); i++ {
			got := mask[i/64]&(1<<uint(i%64)) != 0
			want := i < space.Size() && fd.Status(space.FD(i), p.rel, q) == fd.Violating
			if got != want {
				t.Fatalf("%s: pair %v hypothesis %d: mask bit %v, fd.Status violating %v", ctx, q, i, got, want)
			}
		}
	}
	if b == nil {
		return
	}
	sc := new(selectScratch)
	c := p.Candidates()
	tab = c.scoreClasses(sc, b, func(pd float64) float64 { return pd })
	counted := make([]int32, len(sc.count))
	for i, pos := range p.unshown {
		cl := tab.id[pos]
		counted[cl]++
		if want := b.PDirty(p.rel, c.Pair(i)); sc.value[cl] != want {
			t.Fatalf("%s: candidate %v scored %v by class, PDirty %v", ctx, c.Pair(i), sc.value[cl], want)
		}
	}
	if !slices.Equal(counted, sc.count) {
		t.Fatalf("%s: class counts %v, candidates per class %v", ctx, sc.count, counted)
	}
}

// enumerated returns the first n hypotheses of rel's canonical
// enumeration with LHS up to maxLHS attributes.
func enumerated(rel *dataset.Relation, maxLHS, n int) *fd.Space {
	return fd.MustNewSpace(fd.MustEnumerate(fd.SpaceConfig{
		Arity: rel.Schema().Arity(), MaxLHS: maxLHS, MaxFDs: n,
	}))
}

// editStorm applies edits single-cell SetValues through the delta
// journal: most copy another row's value (creating agreements), the
// rest write fresh values (breaking them).
func editStorm(rel *dataset.Relation, rng *stats.RNG, edits int) {
	arity := rel.Schema().Arity()
	for e := 0; e < edits; e++ {
		row, col := rng.Intn(rel.NumRows()), rng.Intn(arity)
		v := rel.Value(rng.Intn(rel.NumRows()), col)
		if rng.Intn(4) == 0 {
			v = fmt.Sprintf("fresh-%d", e)
		}
		rel.SetValue(row, col, v)
	}
}

// TestClassMasksMatchStatusOracle: across the paper's four datasets,
// space sizes on both sides of every mask word boundary (38, 64, 65,
// 147, and a >1k-hypothesis Hospital space), and SetValue edit storms
// replayed through the delta journal plus one Append barrier, every
// candidate's class mask equals per-FD fd.Status, and class scoring
// equals per-pair PDirty.
func TestClassMasksMatchStatusOracle(t *testing.T) {
	for _, name := range datagen.AllNames() {
		gen, err := datagen.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		ds := gen(80, 7)
		rel := ds.Rel
		spaces := []*fd.Space{
			enumerated(rel, 3, 38), enumerated(rel, 3, 64),
			enumerated(rel, 3, 65), enumerated(rel, 3, 147),
		}
		if name == "Hospital" {
			spaces = append(spaces, enumerated(rel, 3, 1200))
		}
		rng := stats.NewRNG(3)
		for si, space := range spaces {
			if si == 4 && space.Size() <= 1000 {
				t.Fatalf("%s: large space has %d hypotheses, want > 1000", name, space.Size())
			}
			p := NewPool(rel, space, PoolConfig{MaxAgreeingPerFD: 20, Seed: uint64(si)})
			b := belief.RandomPrior(space, rng.Split(), 0.1)
			ctx := fmt.Sprintf("%s space=%d", name, space.Size())
			checkClasses(t, p, space, b, ctx+" built")
			for storm := 0; storm < 3; storm++ {
				editStorm(rel, rng, 1+storm*7)
				checkClasses(t, p, space, b, fmt.Sprintf("%s storm %d", ctx, storm))
			}
			// Another space over the same pool recomputes only the masks.
			other := spaces[(si+1)%len(spaces)]
			checkClasses(t, p, other, belief.RandomPrior(other, rng.Split(), 0.1), ctx+" respaced")
			// Append is a journal barrier: the table rebuilds.
			rel.MustAppend(rel.Row(0).Clone())
			editStorm(rel, rng, 5)
			checkClasses(t, p, space, b, ctx+" after Append")
		}
	}
}

// FuzzAgreeClasses drives a pool over every pair of a small relation
// through fuzzer-chosen SetValue scripts and Append barriers and
// checks the class table against the fd.Status oracle after each
// flagged step. The space has 70 hypotheses, so masks span two words.
func FuzzAgreeClasses(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{255, 255, 255, 0, 0, 0, 9, 9, 9, 1, 2, 0x93})
	f.Add([]byte{1, 0, 0x11, 2, 0, 0x11, 3, 4, 0x30, 0, 0, 0})
	f.Fuzz(func(t *testing.T, script []byte) {
		const arity = 5
		names := make([]string, arity)
		for j := range names {
			names[j] = fmt.Sprintf("a%d", j)
		}
		rel := dataset.New(dataset.MustSchema(names...))
		rng := stats.NewRNG(11)
		for i := 0; i < 12; i++ {
			row := make(dataset.Tuple, arity)
			for j := range row {
				row[j] = fmt.Sprintf("v%d", rng.Intn(2+j%3))
			}
			rel.MustAppend(row)
		}
		space := enumerated(rel, 3, 0)
		p := NewPoolFrom(rel, dataset.AllPairs(rel.NumRows()))
		b := belief.RandomPrior(space, rng.Split(), 0.1)
		checkClasses(t, p, space, b, "built")
		for i := 0; i+2 < len(script); i += 3 {
			row := int(script[i]) % rel.NumRows()
			col := int(script[i+1]) % arity
			if script[i+2]&0x80 != 0 {
				rel.MustAppend(rel.Row(row).Clone())
			}
			rel.SetValue(row, col, fmt.Sprintf("v%d", script[i+2]&0x07))
			if script[i+2]&0x10 != 0 {
				checkClasses(t, p, space, b, fmt.Sprintf("step %d", i))
			}
		}
		checkClasses(t, p, space, b, "end")
	})
}
