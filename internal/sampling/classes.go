package sampling

import (
	"exptrain/internal/belief"
	"exptrain/internal/dataset"
	"exptrain/internal/fd"
)

// classTable groups a pool's candidates by agree set. Whether a pair
// violates a hypothesis depends only on the attributes its two tuples
// agree on (fd.StatusOn), so every score a sampler derives from P(dirty)
// is a function of the pair's class: a round scores each class once and
// selects on the class values. Pools hold thousands of pairs but only
// tens to a few thousand classes.
//
// The class ids follow the relation through its delta journal: when
// cells change, only the candidates touching an edited row are
// re-derived, and a journal gap (an Append, or edits past the journal
// window) rebuilds the table.
type classTable struct {
	// cand holds the class of each candidate, in candidate order; nil
	// until first built. MarkShown compacts it in place, so it always
	// lists exactly the pool's candidates.
	cand []int32
	// count holds the number of candidates in each class.
	count []int32
	// agree holds each class's agree set. Classes a later edit emptied
	// stay in the table until the next rebuild.
	agree []fd.AttrSet
	// version is the relation version cand reflects.
	version uint64
	// space is the hypothesis space masks cover (nil: not computed).
	space *fd.Space
	words int
	// masks holds class c's violated-hypothesis mask (the
	// fd.Space.AppendViolated layout) at masks[c*words : (c+1)*words].
	masks []uint64
}

// mask returns class c's violated-hypothesis mask.
func (t *classTable) mask(c int) []uint64 {
	return t.masks[c*t.words : (c+1)*t.words : (c+1)*t.words]
}

// classesFor brings the pool's class table up to date with the relation
// and returns it with masks over space.
func (p *Pool) classesFor(space *fd.Space) *classTable {
	t := &p.classes
	switch {
	case t.cand == nil:
		p.buildClasses()
	case t.version != p.rel.Version():
		p.updateClasses()
	}
	if t.space != space {
		t.space, t.words = space, space.MaskWords()
		t.masks = t.masks[:0]
		for _, a := range t.agree {
			t.masks = space.AppendViolated(t.masks, a)
		}
	}
	return t
}

// buildClasses derives every candidate's class from scratch.
func (p *Pool) buildClasses() {
	t := &p.classes
	if t.cand == nil {
		t.cand = make([]int32, 0, p.remaining)
	}
	t.cand, t.agree, t.masks, t.space = t.cand[:0], t.agree[:0], t.masks[:0], nil
	index := make(map[fd.AttrSet]int32)
	at := p.cursor()
	for i := 0; i < p.remaining; i++ {
		t.cand = append(t.cand, t.classOf(index, fd.AgreeSet(p.rel, p.pairs[at.seek(i)].pair())))
	}
	t.recount()
	t.version = p.rel.Version()
}

// updateClasses replays the relation's cell deltas since the table's
// version: only candidates touching an edited row can change class.
func (p *Pool) updateClasses() {
	t := &p.classes
	deltas, ok := p.rel.DeltasSince(t.version)
	if !ok {
		p.buildClasses()
		return
	}
	var edited []uint64
	for _, d := range deltas {
		if d.Old == d.New {
			continue
		}
		if edited == nil {
			edited = make([]uint64, (p.rel.NumRows()+63)/64)
		}
		edited[d.Row/64] |= 1 << uint(d.Row%64)
	}
	t.version = p.rel.Version()
	if edited == nil {
		return
	}
	touched := func(row int32) bool { return edited[row/64]&(1<<uint(row%64)) != 0 }
	index, at := t.index(), p.cursor()
	for i := range t.cand {
		if q := p.pairs[at.seek(i)]; touched(q.a) || touched(q.b) {
			t.cand[i] = t.classOf(index, fd.AgreeSet(p.rel, q.pair()))
		}
	}
	t.recount()
}

// index returns the map from agree set to class that classOf extends.
func (t *classTable) index() map[fd.AttrSet]int32 {
	index := make(map[fd.AttrSet]int32, len(t.agree))
	for c, a := range t.agree {
		index[a] = int32(c)
	}
	return index
}

// classOf returns the class of agree set a, adding it (with its mask,
// when masks are current) if it is new.
func (t *classTable) classOf(index map[fd.AttrSet]int32, a fd.AttrSet) int32 {
	if c, ok := index[a]; ok {
		return c
	}
	c := int32(len(t.agree))
	index[a] = c
	t.agree = append(t.agree, a)
	if t.space != nil {
		t.masks = t.space.AppendViolated(t.masks, a)
	}
	return c
}

// recount sets count from cand.
func (t *classTable) recount() {
	t.count = resize(t.count, len(t.agree))
	clear(t.count)
	for _, c := range t.cand {
		t.count[c]++
	}
}

// remove deletes the candidates at the ascending indices idx from
// cand, in one order-preserving pass.
func (t *classTable) remove(idx []int32) {
	cand := t.cand
	w := int(idx[0])
	for j, i := range idx {
		t.count[cand[i]]--
		end := len(cand)
		if j+1 < len(idx) {
			end = int(idx[j+1])
		}
		w += copy(cand[w:], cand[i+1:end])
	}
	t.cand = cand[:w]
}

// Candidates is the read-only view a Sampler selects from: the pool's
// unshown pairs in pool order. Besides the pairs themselves it scores
// them through the pool's agree-set classes, one evaluation per class.
// A view is invalidated by the pool's next MarkShown.
type Candidates struct{ p *Pool }

// Len returns the number of candidates.
func (c Candidates) Len() int { return c.p.remaining }

// Pair returns candidate i, 0 ≤ i < Len, in O(pool size/64).
func (c Candidates) Pair(i int) dataset.Pair {
	at := c.p.cursor()
	return c.p.pairs[at.seek(i)].pair()
}

// countClasses brings the pool's class table up to date for space,
// sizes sc.value to one entry per class for the caller to fill, sets
// sc.count to the number of candidates in each class and returns the
// table.
func (c Candidates) countClasses(sc *selectScratch, space *fd.Space) *classTable {
	t := c.p.classesFor(space)
	sc.value = resize(sc.value, len(t.agree))
	sc.count = append(sc.count[:0], t.count...)
	return t
}

// scoreClasses is countClasses for b's space that sets sc.value to
// score(PDirty) of each class under b. score runs once per agree-set
// class, and a class's value is the float64 a per-pair b.PDirty walk
// produces for each of its candidates.
func (c Candidates) scoreClasses(sc *selectScratch, b *belief.Belief, score func(pdirty float64) float64) *classTable {
	t := c.countClasses(sc, b.Space())
	for cl := range sc.value {
		sc.value[cl] = score(b.MaxConfidence(t.mask(cl)))
	}
	return t
}
