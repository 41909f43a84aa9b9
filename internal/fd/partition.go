package fd

import (
	"sort"

	"exptrain/internal/dataset"
)

// Partition is a stripped partition in the TANE sense: the equivalence
// classes of rows under "agrees on attribute set X", with singleton
// classes removed (they can never participate in an agreeing pair).
// Classes and their members are kept sorted so operations are
// deterministic. Members are row indices stored as int32 (relations are
// bounded well below 2³¹ rows), which halves partition memory and lets
// partitions share backing storage with the incremental PLI index.
type Partition struct {
	// Classes holds the equivalence classes with ≥2 rows.
	Classes [][]int32
	// Rows is the relation size the partition was computed over.
	Rows int
}

// pliScratch holds the reusable counting buffers the partition
// constructors thread through. A zero value is ready to use; buffers
// grow on demand. Invariant: cnt is all-zero between calls (every user
// restores it via its touched list or re-zeroes on entry), while
// starts/fill/slot/touched hold garbage and are fully overwritten
// before being read. PLICache owns one instance under its mutex so the
// steady-state refinement path stops allocating counter arrays.
type pliScratch struct {
	cnt     []int32
	starts  []int32
	fill    []int32
	slot    []int32
	touched []int32
}

// grow returns buf resized to at least n entries, reallocating (without
// copying — contents are scratch) when capacity is short.
func grow(buf []int32, n int) []int32 {
	if cap(buf) < n {
		return make([]int32, n)
	}
	return buf[:n]
}

// PartitionOn computes the stripped partition of rel on attribute set X.
// It works entirely on the relation's dictionary codes: the first
// attribute is grouped with a counting pass over its code column, and
// every further attribute is folded in with refine. No strings are
// built or hashed.
func PartitionOn(rel *dataset.Relation, x AttrSet) *Partition {
	attrs := x.Attrs()
	if len(attrs) == 0 {
		return &Partition{Rows: rel.NumRows()}
	}
	var sc pliScratch
	p := partitionSingle(rel, attrs[0], &sc)
	for _, a := range attrs[1:] {
		p = p.refine(rel, a, &sc)
	}
	return p
}

// partitionSingle builds the stripped partition on one attribute with a
// two-pass counting sort over the code column: count per code, lay the
// multi-row classes out in one shared backing array, then fill it in row
// order so every class is sorted ascending.
func partitionSingle(rel *dataset.Relation, a int, sc *pliScratch) *Partition {
	codes := rel.ColumnCodes(a)
	dict := rel.DictLen(a)
	counts := grow(sc.cnt, dict)
	for i := range counts {
		counts[i] = 0
	}
	for _, c := range codes {
		counts[c]++
	}
	total, classes := 0, 0
	starts := grow(sc.starts, dict)
	for code, cnt := range counts {
		if cnt >= 2 {
			starts[code] = int32(total)
			total += int(cnt)
			classes++
		} else {
			starts[code] = -1
		}
	}
	p := &Partition{Rows: len(codes), Classes: make([][]int32, 0, classes)}
	if classes == 0 {
		for i := range counts {
			counts[i] = 0
		}
		sc.cnt, sc.starts = counts[:0], starts[:0]
		return p
	}
	backing := make([]int32, total)
	fill := grow(sc.fill, dict)
	copy(fill, starts)
	for i, c := range codes {
		if s := fill[c]; s >= 0 {
			backing[s] = int32(i)
			fill[c] = s + 1
		}
	}
	for code, cnt := range counts {
		if cnt >= 2 {
			s := starts[code]
			e := s + cnt
			p.Classes = append(p.Classes, backing[s:e:e])
		}
		counts[code] = 0
	}
	sc.cnt, sc.starts, sc.fill = counts[:0], starts[:0], fill[:0]
	sort.Slice(p.Classes, func(i, j int) bool { return p.Classes[i][0] < p.Classes[j][0] })
	return p
}

// AgreeingPairCount returns Σ C(|class|, 2), the number of unordered
// pairs agreeing on the partition's attribute set.
func (p *Partition) AgreeingPairCount() int {
	var total int
	for _, c := range p.Classes {
		total += len(c) * (len(c) - 1) / 2
	}
	return total
}

// refine intersects the partition with the single attribute a,
// returning the stripped partition on X ∪ {a}: the product-partition
// step TANE uses to walk the lattice level by level without re-grouping
// from scratch. sc is caller-owned scratch. Sub-grouping runs on a's
// code column with per-code counters reset via the touched list. Two
// passes: the first sizes every surviving sub-class so the output's
// members lay out in a single backing array, the second fills them in
// row order (ascending, since class members ascend). Cost is
// O(Σ|class|) with exactly two result allocations plus the final sort,
// no per-class slice churn.
func (p *Partition) refine(rel *dataset.Relation, a int, sc *pliScratch) *Partition {
	codes := rel.ColumnCodes(a)
	dict := rel.DictLen(a)
	out := &Partition{Rows: p.Rows}
	cnt := grow(sc.cnt, dict)
	for i := range cnt {
		cnt[i] = 0
	}
	slot := grow(sc.slot, dict)
	touched := sc.touched[:0]
	// Pass 1: total surviving rows and sub-class count.
	total, classes := 0, 0
	for _, class := range p.Classes {
		touched = touched[:0]
		for _, row := range class {
			c := codes[row]
			if cnt[c] == 0 {
				touched = append(touched, c)
			}
			cnt[c]++
		}
		for _, c := range touched {
			if cnt[c] >= 2 {
				total += int(cnt[c])
				classes++
			}
			cnt[c] = 0
		}
	}
	if classes == 0 {
		sc.cnt, sc.slot, sc.touched = cnt[:0], slot[:0], touched[:0]
		return out
	}
	// Pass 2: lay the sub-classes out in one backing array.
	backing := make([]int32, total)
	out.Classes = make([][]int32, 0, classes)
	next := int32(0)
	for _, class := range p.Classes {
		touched = touched[:0]
		for _, row := range class {
			c := codes[row]
			if cnt[c] == 0 {
				touched = append(touched, c)
			}
			cnt[c]++
		}
		for _, c := range touched {
			if cnt[c] >= 2 {
				s := next
				next += cnt[c]
				out.Classes = append(out.Classes, backing[s:s:next])
				slot[c] = int32(len(out.Classes) - 1)
			} else {
				slot[c] = -1
			}
		}
		for _, row := range class {
			c := codes[row]
			if s := slot[c]; s >= 0 {
				// Within the sub-class's capped backing region; no alloc.
				out.Classes[s] = append(out.Classes[s], row)
			}
		}
		for _, c := range touched {
			cnt[c] = 0
		}
	}
	sc.cnt, sc.slot, sc.touched = cnt[:0], slot[:0], touched[:0]
	sort.Slice(out.Classes, func(i, j int) bool { return out.Classes[i][0] < out.Classes[j][0] })
	return out
}

// StatsFor computes the pair counts of the FD (X → a) given the stripped
// partition on X: within each X-class, rows are sub-grouped by the RHS
// code; compliant pairs are the within-subgroup pairs.
func (p *Partition) StatsFor(rel *dataset.Relation, a int) Stats {
	var sc pliScratch
	return p.statsFor(rel, a, &sc)
}

// statsFor is StatsFor with caller-owned scratch.
func (p *Partition) statsFor(rel *dataset.Relation, a int, sc *pliScratch) Stats {
	codes := rel.ColumnCodes(a)
	cnt := grow(sc.cnt, rel.DictLen(a))
	for i := range cnt {
		cnt[i] = 0
	}
	touched := sc.touched[:0]
	st := Stats{Rows: p.Rows}
	for _, class := range p.Classes {
		g := len(class)
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
