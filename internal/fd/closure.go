package fd

import "sort"

// This file implements classical FD inference — attribute-set closure
// under Armstrong's axioms, implication testing, and minimal covers.
// Exact implication is not sound for *approximate* FDs in general, but
// it is the standard post-processing for an exported believed-FD set:
// dropping implied dependencies yields a smaller model with identical
// detection behaviour on data where the believed FDs hold.

// Closure returns the attribute closure X⁺ of attrs under the given
// FDs: the largest set of attributes functionally determined by attrs.
// Runs the textbook fixpoint in O(|fds| · passes).
func Closure(attrs AttrSet, fds []FD) AttrSet {
	closure := attrs
	for changed := true; changed; {
		changed = false
		for _, f := range fds {
			if f.LHS.IsSubsetOf(closure) && !closure.Has(f.RHS) {
				closure = closure.Add(f.RHS)
				changed = true
			}
		}
	}
	return closure
}

// Implies reports whether the FD set logically implies f: whether f's
// RHS is in the closure of its LHS.
func Implies(fds []FD, f FD) bool {
	return Closure(f.LHS, fds).Has(f.RHS)
}

// MinimalCover returns a minimal cover of the FD set: every FD has a
// left-reduced LHS (no extraneous attributes) and no FD is implied by
// the others. The result is equivalent to the input and canonically
// sorted. Duplicates in the input are tolerated.
func MinimalCover(fds []FD) []FD {
	// Deduplicate first; the reduction below assumes set semantics.
	seen := make(map[FD]struct{}, len(fds))
	work := make([]FD, 0, len(fds))
	for _, f := range fds {
		if _, dup := seen[f]; !dup {
			seen[f] = struct{}{}
			work = append(work, f)
		}
	}

	// Left-reduce: drop LHS attributes whose removal keeps the FD
	// implied by the full set.
	for i := range work {
		f := work[i]
		for _, a := range f.LHS.Attrs() {
			reduced := f.LHS.Remove(a)
			if reduced.IsEmpty() {
				continue
			}
			if Closure(reduced, work).Has(f.RHS) {
				f = FD{LHS: reduced, RHS: f.RHS}
				work[i] = f
			}
		}
	}
	// Left reduction may have produced duplicates.
	seen = make(map[FD]struct{}, len(work))
	deduped := work[:0]
	for _, f := range work {
		if _, dup := seen[f]; !dup {
			seen[f] = struct{}{}
			deduped = append(deduped, f)
		}
	}
	work = deduped

	// Drop FDs implied by the rest. Iterating in canonical order keeps
	// the result deterministic regardless of input order.
	sortFDs(work)
	var out []FD
	for i := 0; i < len(work); i++ {
		rest := make([]FD, 0, len(work)-1+len(out))
		rest = append(rest, out...)
		rest = append(rest, work[i+1:]...)
		if !Implies(rest, work[i]) {
			out = append(out, work[i])
		}
	}
	sortFDs(out)
	return out
}

// sortFDs sorts canonically: by LHS size, then LHS bitmask, then RHS.
func sortFDs(fds []FD) {
	sort.Slice(fds, func(i, j int) bool {
		if fds[i].LHS.Count() != fds[j].LHS.Count() {
			return fds[i].LHS.Count() < fds[j].LHS.Count()
		}
		if fds[i].LHS != fds[j].LHS {
			return fds[i].LHS < fds[j].LHS
		}
		return fds[i].RHS < fds[j].RHS
	})
}
