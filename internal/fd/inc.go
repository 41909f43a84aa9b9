package fd

import (
	"sort"

	"exptrain/internal/dataset"
)

// gkey identifies one (unstripped) equivalence group of an attribute
// set X through the refinement chain: pg is the group id the row holds
// in X's chain prefix (X minus its highest attribute; 0 for
// single-attribute sets, which have an empty prefix putting every row
// in one implicit group), and code is the row's dictionary code on X's
// highest attribute. Two rows agree on X iff their gkeys are equal,
// which is what lets a single-cell edit relocate exactly one row.
type gkey struct {
	pg   int32
	code int32
}

// incPLI is the incrementally maintained (unstripped) partition of one
// attribute set: every row — singletons included — is assigned to a
// group, so a cell edit can move one row between groups in O(|group|)
// without losing track of rows that a stripped view would hide. The
// stripped Partition the read paths consume is derived lazily and
// memoized until the next move.
//
// Group ids are dense indices into members/keys; emptied ids go on the
// free list and are reused. Because every mutation flows through the
// PLICache's deterministic replay (deltas in version order, affected
// sets in sorted order), id assignment — and therefore the whole
// structure — is reproducible for a fixed edit sequence.
type incPLI struct {
	attrs AttrSet
	// last is the highest attribute of attrs; prefix is attrs without
	// it (the TANE refinement-chain parent, empty for single attrs).
	last   int
	prefix AttrSet
	// groupOf maps row → group id; members[g] lists g's rows ascending;
	// keys[g] is g's gkey (the lookup entry to delete when g empties).
	groupOf []int32
	members [][]int32
	keys    []gkey
	lookup  map[gkey]int32
	free    []int32
	// stripped memoizes the derived stripped partition; nil after any
	// move. Its classes alias the live member slices, so a returned
	// Partition is only valid until the next relation mutation.
	stripped *Partition
}

// place assigns row to the group keyed by k, creating the group if
// needed. Rows must arrive in ascending order during a build so member
// lists come out sorted without insertion cost.
func (q *incPLI) place(row int32, k gkey) {
	g, ok := q.lookup[k]
	if !ok {
		g = q.allocGroup(k)
	}
	q.members[g] = append(q.members[g], row)
	q.groupOf[row] = g
}

// allocGroup returns a fresh (or recycled) empty group id for key k.
func (q *incPLI) allocGroup(k gkey) int32 {
	var g int32
	if n := len(q.free); n > 0 {
		g = q.free[n-1]
		q.free = q.free[:n-1]
		q.members[g] = q.members[g][:0]
	} else {
		g = int32(len(q.members))
		q.members = append(q.members, nil)
		q.keys = append(q.keys, gkey{})
	}
	q.keys[g] = k
	q.lookup[k] = g
	return g
}

// moveRow relocates row to the group keyed by k: binary-search removal
// from its current group (freeing it when emptied), sorted insertion
// into the target (creating it when absent). A row already keyed k is
// a no-op — replaying a delta against a structure already at the final
// state (freshly promoted mid-batch) must not disturb it.
func (q *incPLI) moveRow(row int32, k gkey) {
	g := q.groupOf[row]
	if q.keys[g] == k {
		return
	}
	m := q.members[g]
	i := sort.Search(len(m), func(i int) bool { return m[i] >= row })
	copy(m[i:], m[i+1:])
	m = m[:len(m)-1]
	q.members[g] = m
	if len(m) == 0 {
		delete(q.lookup, q.keys[g])
		q.free = append(q.free, g)
	}
	g2, ok := q.lookup[k]
	if !ok {
		g2 = q.allocGroup(k)
	}
	m2 := q.members[g2]
	j := sort.Search(len(m2), func(i int) bool { return m2[i] >= row })
	m2 = append(m2, 0)
	copy(m2[j+1:], m2[j:])
	m2[j] = row
	q.members[g2] = m2
	q.groupOf[row] = g2
	q.stripped = nil
}

// statsFor computes the pair counts of (attrs → a) straight off the
// live group lists, skipping the stripped view entirely — the counting
// is a sum over classes, so class order is irrelevant and the result is
// identical to Partition.statsFor over the derived view. Emptied
// (free-listed) groups keep zero-length member slices and fall out of
// the ≥2 filter. This keeps a post-edit stats sweep from paying the
// view's sort + slice materialization per edit.
func (q *incPLI) statsFor(rel *dataset.Relation, a int, sc *pliScratch) Stats {
	codes := rel.ColumnCodes(a)
	cnt := grow(sc.cnt, rel.DictLen(a))
	for i := range cnt {
		cnt[i] = 0
	}
	touched := sc.touched[:0]
	st := Stats{Rows: len(q.groupOf)}
	for _, class := range q.members {
		g := len(class)
		if g < 2 {
			continue
		}
		st.Agreeing += g * (g - 1) / 2
		touched = touched[:0]
		for _, row := range class {
			c := codes[row]
			if cnt[c] == 0 {
				touched = append(touched, c)
			}
			cnt[c]++
		}
		for _, c := range touched {
			n := int(cnt[c])
			st.Compliant += n * (n - 1) / 2
			cnt[c] = 0
		}
	}
	sc.cnt, sc.touched = cnt[:0], touched[:0]
	st.Violating = st.Agreeing - st.Compliant
	return st
}

// strippedView derives (and memoizes) the stripped Partition: the ≥2
// groups ordered by smallest member, exactly the order the rebuild
// path produces, so every downstream consumer (Stats, DetectErrors, the
// pool's agreeing-pair decoding) is bit-identical to a from-scratch
// partition. Classes
// alias the live member slices; the view is valid until the next
// relation mutation.
func (q *incPLI) strippedView() *Partition {
	if q.stripped != nil {
		return q.stripped
	}
	classes := 0
	for _, m := range q.members {
		if len(m) >= 2 {
			classes++
		}
	}
	p := &Partition{Rows: len(q.groupOf), Classes: make([][]int32, 0, classes)}
	for _, m := range q.members {
		if len(m) >= 2 {
			p.Classes = append(p.Classes, m)
		}
	}
	sort.Slice(p.Classes, func(i, j int) bool { return p.Classes[i][0] < p.Classes[j][0] })
	q.stripped = p
	return p
}
