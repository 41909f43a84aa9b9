package fd

import "exptrain/internal/dataset"

// minorityFraction bounds how large an RHS value class may be, relative
// to its LHS group, and still be flagged as erroneous. Injected errors
// are rare deviations (usually a single scrambled cell), whereas an
// approximate FD's structural exceptions (a remake of a movie, two
// facilities sharing a name) come in balanced classes; the threshold
// separates the two.
const minorityFraction = 0.25

// MinorityRows returns the rows flagged as erroneous by f under the
// standard FD-repair heuristic (Chu et al. 2013; Rekatsinas et al.
// 2017): within each group of rows agreeing on f's LHS, the plurality
// RHS value is presumed clean and rows holding a *rare* deviating value
// (a class no larger than minorityFraction of the group, and never the
// plurality itself) are flagged. Groups with a single distinct RHS
// value flag nothing. Ties for the plurality are broken toward the
// lexicographically smallest value so detection is deterministic.
func MinorityRows(f FD, rel *dataset.Relation) map[int]struct{} {
	flagged := make(map[int]struct{})
	var sc pliScratch
	minorityFromPartition(PartitionOn(rel, f.LHS), rel, f.RHS, flagged, &sc)
	return flagged
}

// minorityFromPartition applies the minority rule to each class of the
// stripped LHS partition, counting RHS dictionary codes with a
// touched-list counter array from the caller-owned scratch. The
// plurality tie-break still compares the decoded strings, preserving
// the naive implementation's deterministic choice exactly.
func minorityFromPartition(p *Partition, rel *dataset.Relation, rhs int, flagged map[int]struct{}, sc *pliScratch) {
	codes := rel.ColumnCodes(rhs)
	cnt := grow(sc.cnt, rel.DictLen(rhs))
	for i := range cnt {
		cnt[i] = 0
	}
	touched := sc.touched[:0]
	for _, rows := range p.Classes {
		touched = touched[:0]
		for _, r := range rows {
			c := codes[r]
			if cnt[c] == 0 {
				touched = append(touched, c)
			}
			cnt[c]++
		}
		if len(touched) < 2 {
			for _, c := range touched {
				cnt[c] = 0
			}
			continue
		}
		// Plurality code: highest count, ties toward the smallest string.
		maj := touched[0]
		for _, c := range touched[1:] {
			if cnt[c] > cnt[maj] ||
				(cnt[c] == cnt[maj] && rel.DictValue(rhs, c) < rel.DictValue(rhs, maj)) {
				maj = c
			}
		}
		maxClass := int32(minorityFraction * float64(len(rows)))
		if maxClass < 1 {
			maxClass = 1
		}
		for _, r := range rows {
			c := codes[r]
			if c != maj && cnt[c] <= maxClass {
				flagged[int(r)] = struct{}{}
			}
		}
		for _, c := range touched {
			cnt[c] = 0
		}
	}
	sc.cnt, sc.touched = cnt[:0], touched[:0]
}

// DetectErrors unions MinorityRows over a set of believed FDs: the rows
// the model predicts to be dirty. Callers scoring the same relation
// repeatedly should use PLICache.DetectErrors, which shares the LHS
// partitions across FDs and calls.
func DetectErrors(fds []FD, rel *dataset.Relation) map[int]struct{} {
	out := make(map[int]struct{})
	var sc pliScratch
	for _, f := range fds {
		minorityFromPartition(PartitionOn(rel, f.LHS), rel, f.RHS, out, &sc)
	}
	return out
}
