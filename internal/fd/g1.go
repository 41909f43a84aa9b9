package fd

import (
	"math/bits"

	"exptrain/internal/dataset"
)

// PairStatus classifies a tuple pair with respect to one FD.
type PairStatus int

const (
	// Neutral: the pair disagrees on the LHS, so the FD says nothing
	// about it.
	Neutral PairStatus = iota
	// Compliant: the pair agrees on the LHS and on the RHS.
	Compliant
	// Violating: the pair agrees on the LHS but disagrees on the RHS —
	// a violation of the FD.
	Violating
)

func (s PairStatus) String() string {
	switch s {
	case Neutral:
		return "neutral"
	case Compliant:
		return "compliant"
	case Violating:
		return "violating"
	default:
		return "unknown"
	}
}

// Status classifies pair p against f over rel. It runs entirely on
// dictionary codes — one int32 compare per LHS attribute plus one for
// the RHS, iterating the LHS bitmask directly so no attribute slice is
// materialized — which matters because the belief layer classifies
// every presented pair against every hypothesis on every update.
func Status(f FD, rel *dataset.Relation, p dataset.Pair) PairStatus {
	for v := uint64(f.LHS); v != 0; v &= v - 1 {
		a := bits.TrailingZeros64(v)
		if rel.Code(p.A, a) != rel.Code(p.B, a) {
			return Neutral
		}
	}
	if rel.Code(p.A, f.RHS) == rel.Code(p.B, f.RHS) {
		return Compliant
	}
	return Violating
}

// Stats holds the pair-level counts of an FD over a relation.
type Stats struct {
	// Agreeing is the number of unordered pairs that agree on the LHS.
	Agreeing int
	// Compliant is the number of unordered pairs that agree on the LHS
	// and the RHS.
	Compliant int
	// Violating = Agreeing − Compliant.
	Violating int
	// Rows is the relation size the counts were computed over.
	Rows int
}

// G1 returns the scaled g₁ measure of the paper: the number of
// (unordered) violating pairs divided by |r|². The paper's Example 1
// fixes the convention — g₁(Team→City) over Table 1's five tuples is
// 1/25 = 0.04, i.e. the single violating pair counted once against n².
func (s Stats) G1() float64 {
	if s.Rows == 0 {
		return 0
	}
	return float64(s.Violating) / float64(s.Rows*s.Rows)
}

// Confidence returns the fraction of LHS-agreeing pairs that comply with
// the FD, i.e. 1 − (conditional violation rate). This is the
// "confidence" the belief layer models per FD; an FD with no agreeing
// pairs is vacuously satisfied and gets confidence 1.
func (s Stats) Confidence() float64 {
	if s.Agreeing == 0 {
		return 1
	}
	return float64(s.Compliant) / float64(s.Agreeing)
}

// ComputeStats counts agreeing/compliant/violating pairs for f over rel
// by partitioning rows on the LHS codes and, within each class, counting
// RHS codes: with group size g and RHS-class sizes c_i, the group
// contributes C(g,2) agreeing and ΣC(c_i,2) compliant pairs.
// O(n·|LHS|) time on integer codes; callers evaluating many FDs over
// one relation should go through a PLICache to share the LHS
// partitions.
func ComputeStats(f FD, rel *dataset.Relation) Stats {
	return PartitionOn(rel, f.LHS).StatsFor(rel, f.RHS)
}

// G1 computes the scaled g₁ measure of f over rel.
func G1(f FD, rel *dataset.Relation) float64 {
	return ComputeStats(f, rel).G1()
}

// ViolatingPairs returns every unordered pair of rel that violates f, in
// deterministic order (groups in first-seen order, ascending row pairs
// within each group — a stripped partition's classes sorted by smallest
// member enumerate in exactly that order).
func ViolatingPairs(f FD, rel *dataset.Relation) []dataset.Pair {
	codes := rel.ColumnCodes(f.RHS)
	var out []dataset.Pair
	for _, rows := range PartitionOn(rel, f.LHS).Classes {
		for a := 0; a < len(rows); a++ {
			for b := a + 1; b < len(rows); b++ {
				if codes[rows[a]] != codes[rows[b]] {
					out = append(out, dataset.Pair{A: int(rows[a]), B: int(rows[b])})
				}
			}
		}
	}
	return out
}

// Cell identifies one cell of a relation by row and attribute position.
type Cell struct {
	Row, Attr int
}
