package sampling

import (
	"fmt"
	"slices"
	"testing"

	"exptrain/internal/datagen"
	"exptrain/internal/dataset"
	"exptrain/internal/fd"
	"exptrain/internal/stats"
)

// Pair returns candidate i, 0 ≤ i < Len, in O(pool size/64). The
// samplers name candidates by index and the pool's Show maps them; the
// tests read single candidates back through this.
func (c Candidates) Pair(i int) dataset.Pair {
	at := c.p.cursor()
	return c.p.pairs[at.seek(i)].pair()
}

// listModel keeps the candidate layout the compacted class list
// replaced: the pool-order positions of the unshown pairs, compacted on
// Show and MarkShown, with each candidate's class taken from
// fd.AgreeSet. A pair is found by a map instead of the pool's one-pass
// MarkShown, and a candidate index by the position list instead of
// Show's cursor sweep. TestCandidatesMatchListModel and
// FuzzPoolMarkShown hold the pool's candidates, counter and class table
// to it.
type listModel struct {
	pairs   []dataset.Pair // pool order
	at      map[dataset.Pair]int32
	shown   []bool
	unshown []int32
}

func newListModel(p *Pool) *listModel {
	m := &listModel{at: make(map[dataset.Pair]int32, len(p.pairs)), shown: make([]bool, len(p.pairs))}
	for pos, q := range p.pairs {
		m.pairs = append(m.pairs, q.pair())
		m.at[q.pair()] = int32(pos)
		m.unshown = append(m.unshown, int32(pos))
	}
	return m
}

func (m *listModel) markShown(pairs []dataset.Pair) {
	for _, q := range pairs {
		if pos, ok := m.at[q]; ok {
			m.shown[pos] = true
		}
	}
	kept := m.unshown[:0]
	for _, pos := range m.unshown {
		if !m.shown[pos] {
			kept = append(kept, pos)
		}
	}
	m.unshown = kept
}

// show returns the pairs of the candidates at idx, in the order of idx,
// and marks them shown.
func (m *listModel) show(idx []int) []dataset.Pair {
	out := make([]dataset.Pair, len(idx))
	for j, i := range idx {
		out[j] = m.pairs[m.unshown[i]]
	}
	m.markShown(out)
	return out
}

// indices returns up to eight distinct candidate indices for Show, in
// random order, as a Sampler's Select returns them.
func (m *listModel) indices(rng *stats.RNG) []int {
	return rng.SampleWithoutReplacement(len(m.unshown), min(1+rng.Intn(8), len(m.unshown)))
}

// batch returns up to eight pairs for MarkShown: candidates,
// shown pairs, repeats of earlier entries, pairs the pool does not hold
// (reversed or random rows) and pool pairs with a row moved by ±2³²,
// which must not alias the pair they truncate to.
func (m *listModel) batch(rng *stats.RNG, rows int) []dataset.Pair {
	var shown []dataset.Pair
	for pos, s := range m.shown {
		if s {
			shown = append(shown, m.pairs[pos])
		}
	}
	out := make([]dataset.Pair, 0, 8)
	for n := 1 + rng.Intn(8); len(out) < n; {
		switch r := rng.Intn(7); {
		case r <= 1 && len(m.unshown) > 0:
			out = append(out, m.pairs[m.unshown[rng.Intn(len(m.unshown))]])
		case r == 2 && len(shown) > 0:
			out = append(out, shown[rng.Intn(len(shown))])
		case r == 3 && len(out) > 0:
			out = append(out, out[rng.Intn(len(out))])
		case r == 4 && len(m.pairs) > 0:
			q := m.pairs[rng.Intn(len(m.pairs))]
			out = append(out, dataset.Pair{A: q.B, B: q.A})
		case r == 5 && len(m.pairs) > 0:
			q := m.pairs[rng.Intn(len(m.pairs))]
			if rng.Intn(2) == 0 {
				q.A += 1 << 32
			} else {
				q.B -= 1 << 32
			}
			out = append(out, q)
		default:
			out = append(out, dataset.Pair{A: rng.Intn(rows), B: rng.Intn(rows)})
		}
	}
	return out
}

// check fails unless the pool's candidates are the model's, in order,
// and its remaining count the model's. With classes it also brings the
// class table up to date for space and demands each candidate's agree
// set and each class's candidate count the model's.
func (m *listModel) check(t testing.TB, p *Pool, space *fd.Space, classes bool, ctx string) {
	t.Helper()
	c := p.Candidates()
	if c.Len() != len(m.unshown) || p.RemainingCount() != len(m.unshown) {
		t.Fatalf("%s: Len %d, RemainingCount %d; model holds %d candidates", ctx, c.Len(), p.RemainingCount(), len(m.unshown))
	}
	for i, pos := range m.unshown {
		if got := c.Pair(i); got != m.pairs[pos] {
			t.Fatalf("%s: candidate %d is %v, model %v", ctx, i, got, m.pairs[pos])
		}
	}
	if !classes {
		return
	}
	sc := new(selectScratch)
	tab := c.countClasses(sc, space)
	if len(tab.cand) != len(m.unshown) {
		t.Fatalf("%s: class list holds %d candidates, model %d", ctx, len(tab.cand), len(m.unshown))
	}
	want := make(map[fd.AttrSet]int32)
	for i, pos := range m.unshown {
		a := fd.AgreeSet(p.rel, m.pairs[pos])
		if got := tab.agree[tab.cand[i]]; got != a {
			t.Fatalf("%s: candidate %d (%v) in the class of agree set %v, fd.AgreeSet %v", ctx, i, m.pairs[pos], got, a)
		}
		want[a]++
	}
	for cl, a := range tab.agree {
		if sc.count[cl] != want[a] {
			t.Fatalf("%s: class %d (agree set %v) counts %d candidates, model %d", ctx, cl, a, sc.count[cl], want[a])
		}
	}
}

// runPoolScript plays ops on p and the model, one step per byte, and
// checks the pool against the model after every step. The low two bits
// of a byte pick the step: a Show batch (0), a MarkShown batch (1), one
// to three SetValues, or an Append. Bit 2 follows a SetValue or Append
// with a batch before the class table has caught up, a Show batch when
// bit 3 is set and a MarkShown batch otherwise. The class table is left
// unbuilt for the first lead steps, so their batches change only bits.
func runPoolScript(t testing.TB, p *Pool, space *fd.Space, rng *stats.RNG, lead int, ops []byte, ctx string) {
	t.Helper()
	m := newListModel(p)
	rel := p.rel
	m.check(t, p, space, false, ctx+" built")
	apply := func(show bool, step string) {
		if !show {
			b := m.batch(rng, rel.NumRows())
			p.MarkShown(b)
			m.markShown(b)
			return
		}
		idx := m.indices(rng)
		if got, want := p.Show(idx), m.show(idx); !slices.Equal(got, want) {
			t.Fatalf("%s: Show(%v) = %v, model %v", step, idx, got, want)
		}
	}
	for i, op := range ops {
		step := fmt.Sprintf("%s step %d (op %#x)", ctx, i, op)
		switch op & 3 {
		case 0, 1:
			apply(op&3 == 0, step)
		case 2:
			editStorm(rel, rng, 1+int(op>>4)%3)
		case 3:
			rel.MustAppend(rel.Row(rng.Intn(rel.NumRows())).Clone())
		}
		if op&3 >= 2 && op&4 != 0 {
			apply(op&8 != 0, step)
		}
		if i < lead && p.classes.cand != nil {
			t.Fatalf("%s: class table built before any scoring call", ctx)
		}
		m.check(t, p, space, i >= lead, step)
	}
}

// TestCandidatesMatchListModel: on OMDB, Hospital and Tax at 3, 24 and
// 240 rows, random scripts of Show batches, MarkShown batches — with
// repeats, shown pairs, non-candidates and rows past the int32 range —
// SetValues and Appends, some played before the class table exists,
// return the model's pairs from every Show and leave the pool's
// candidates, remaining count, agree sets and class counts equal to
// the list model's after every step. Checking every
// candidate costs O(pool²/64) a step, so the 240-row pools of several
// thousand pairs play shorter scripts.
func TestCandidatesMatchListModel(t *testing.T) {
	for _, name := range []string{"OMDB", "Hospital", "Tax"} {
		gen, err := datagen.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, rows := range []int{3, 24, 240} {
			for trial := 0; trial < 3; trial++ {
				ds := gen(rows, uint64(rows+trial))
				space := ds.Space(3, 38)
				rng := stats.NewRNG(uint64(100*rows + trial))
				p := NewPool(ds.Rel, space, PoolConfig{Seed: uint64(trial)})
				ops := make([]byte, 40)
				if rows == 240 {
					ops = ops[:12]
				}
				for i := range ops {
					ops[i] = byte(rng.Intn(256))
				}
				ctx := fmt.Sprintf("%s rows=%d trial %d (%d pairs)", name, rows, trial, p.Size())
				runPoolScript(t, p, space, rng, trial, ops, ctx)
			}
		}
	}
}

// FuzzPoolMarkShown plays fuzzer-chosen scripts through runPoolScript
// on a pool over a small paper dataset. The first byte picks the
// dataset, its size and how many steps run before the class table is
// built, and seeds the batches.
func FuzzPoolMarkShown(f *testing.F) {
	f.Add([]byte{0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{0x35, 0, 0, 0x0e, 0x06, 1, 1, 0x17, 0x1f, 0})
	f.Add([]byte{0xc2, 2, 0x26, 0x2e, 3, 0, 0, 0, 1, 0x0f, 0x07})
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) == 0 || len(script) > 48 {
			return
		}
		names := datagen.AllNames()
		gen, err := datagen.ByName(names[int(script[0])%len(names)])
		if err != nil {
			t.Fatal(err)
		}
		ds := gen(2+int(script[0]>>2)%30, uint64(script[0]))
		space := ds.Space(3, 38)
		p := NewPool(ds.Rel, space, PoolConfig{MaxAgreeingPerFD: 20, Seed: uint64(script[0])})
		runPoolScript(t, p, space, stats.NewRNG(uint64(script[0])), int(script[0]>>6), script[1:], "fuzz")
	})
}

// TestShowRejectsBadIndices: Show panics on a candidate index that is
// negative, past the candidates or repeated.
func TestShowRejectsBadIndices(t *testing.T) {
	rel, _ := fixture()
	for _, idx := range [][]int{{-1}, {66}, {3, 0, 3}} {
		p := NewPoolFrom(rel, allPairs(rel))
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Show(%v) of %d candidates did not panic", idx, p.RemainingCount())
				}
			}()
			p.Show(idx)
		}()
	}
}
