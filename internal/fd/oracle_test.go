package fd

import (
	"sort"

	"exptrain/internal/dataset"
)

// Test oracles. The string-keyed *Naive implementations are the
// reference the dictionary and PLI fast paths are property-tested
// against; the agreeing-pair enumerations pin the partition class order
// the sampling pool's determinism rides on; Equivalent checks
// MinimalCover. Production code calls none of them.

// ComputeStatsNaive is the original string-keyed implementation,
// retained as the reference the dictionary/PLI fast paths are
// property-tested against.
func ComputeStatsNaive(f FD, rel *dataset.Relation) Stats {
	lhs := f.LHS.Attrs()
	n := rel.NumRows()
	groups := make(map[string]map[string]int)
	sizes := make(map[string]int)
	for i := 0; i < n; i++ {
		key := rel.ProjectKey(i, lhs)
		rhsVal := rel.Value(i, f.RHS)
		cls := groups[key]
		if cls == nil {
			cls = make(map[string]int)
			groups[key] = cls
		}
		cls[rhsVal]++
		sizes[key]++
	}
	st := Stats{Rows: n}
	for key, g := range sizes {
		st.Agreeing += g * (g - 1) / 2
		for _, c := range groups[key] {
			st.Compliant += c * (c - 1) / 2
		}
	}
	st.Violating = st.Agreeing - st.Compliant
	return st
}

// AgreeingPairs returns every unordered pair that agrees on f's LHS
// (compliant and violating alike), in deterministic order. These are the
// pairs that carry evidence about f. Callers enumerating many FDs over
// one relation should use PLICache.AgreeingPairs, which shares the LHS
// partitions.
func AgreeingPairs(f FD, rel *dataset.Relation) []dataset.Pair {
	return agreeingFromPartition(PartitionOn(rel, f.LHS))
}

// AgreeingPairsNaive is the original string-keyed implementation,
// retained as the reference the dictionary/PLI fast paths are
// property-tested against (including the exact enumeration order, which
// the sampling pool's determinism rides on).
func AgreeingPairsNaive(f FD, rel *dataset.Relation) []dataset.Pair {
	lhs := f.LHS.Attrs()
	n := rel.NumRows()
	groups := make(map[string][]int)
	order := make([]string, 0)
	for i := 0; i < n; i++ {
		key := rel.ProjectKey(i, lhs)
		if _, ok := groups[key]; !ok {
			order = append(order, key)
		}
		groups[key] = append(groups[key], i)
	}
	var out []dataset.Pair
	for _, key := range order {
		rows := groups[key]
		for a := 0; a < len(rows); a++ {
			for b := a + 1; b < len(rows); b++ {
				out = append(out, dataset.NewPair(rows[a], rows[b]))
			}
		}
	}
	return out
}

// MinorityRows is fd.MinorityRows backed by the cached LHS partition.
func (c *PLICache) MinorityRows(f FD) map[int]struct{} {
	flagged := make(map[int]struct{})
	c.minorityInto(f, flagged)
	return flagged
}

// AgreeingPairs returns every unordered pair agreeing on f's LHS, in
// the same deterministic order as fd.AgreeingPairs, enumerated from the
// cached partition. The result is freshly allocated (callers retain
// it); pool construction avoids materializing it at all on large
// relations by decoding sampled indices straight off the partition.
func (c *PLICache) AgreeingPairs(f FD) []dataset.Pair {
	return agreeingFromPartition(c.Partition(f.LHS))
}

// agreeingFromPartition expands a stripped LHS partition into its
// agreeing pairs. Classes are ordered by smallest member and members
// ascend, which reproduces exactly the first-seen group order of the
// naive row scan.
func agreeingFromPartition(p *Partition) []dataset.Pair {
	out := make([]dataset.Pair, 0, p.AgreeingPairCount())
	for _, rows := range p.Classes {
		for a := 0; a < len(rows); a++ {
			for b := a + 1; b < len(rows); b++ {
				out = append(out, dataset.Pair{A: int(rows[a]), B: int(rows[b])})
			}
		}
	}
	return out
}

// PartitionOnNaive is the original string-keyed implementation, retained
// as the reference the dictionary/PLI fast paths are property-tested
// against.
func PartitionOnNaive(rel *dataset.Relation, x AttrSet) *Partition {
	attrs := x.Attrs()
	groups := make(map[string][]int32)
	for i := 0; i < rel.NumRows(); i++ {
		key := rel.ProjectKey(i, attrs)
		groups[key] = append(groups[key], int32(i))
	}
	p := &Partition{Rows: rel.NumRows()}
	for _, rows := range groups {
		if len(rows) >= 2 {
			p.Classes = append(p.Classes, rows)
		}
	}
	sort.Slice(p.Classes, func(i, j int) bool { return p.Classes[i][0] < p.Classes[j][0] })
	return p
}

// MinorityRowsNaive is the original string-keyed implementation,
// retained as the reference the dictionary/PLI fast paths are
// property-tested against.
func MinorityRowsNaive(f FD, rel *dataset.Relation) map[int]struct{} {
	lhs := f.LHS.Attrs()
	groups := make(map[string][]int)
	for i := 0; i < rel.NumRows(); i++ {
		key := rel.ProjectKey(i, lhs)
		groups[key] = append(groups[key], i)
	}
	flagged := make(map[int]struct{})
	for _, rows := range groups {
		if len(rows) < 2 {
			continue
		}
		counts := make(map[string]int)
		for _, r := range rows {
			counts[rel.Value(r, f.RHS)]++
		}
		if len(counts) < 2 {
			continue
		}
		// Plurality value, ties toward the smallest value.
		vals := make([]string, 0, len(counts))
		for v := range counts {
			vals = append(vals, v)
		}
		sort.Strings(vals)
		majority := vals[0]
		for _, v := range vals[1:] {
			if counts[v] > counts[majority] {
				majority = v
			}
		}
		maxClass := int(minorityFraction * float64(len(rows)))
		if maxClass < 1 {
			maxClass = 1
		}
		for _, r := range rows {
			v := rel.Value(r, f.RHS)
			if v != majority && counts[v] <= maxClass {
				flagged[r] = struct{}{}
			}
		}
	}
	return flagged
}

// Equivalent reports whether two FD sets imply each other.
func Equivalent(a, b []FD) bool {
	for _, f := range b {
		if !Implies(a, f) {
			return false
		}
	}
	for _, f := range a {
		if !Implies(b, f) {
			return false
		}
	}
	return true
}
