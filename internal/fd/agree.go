package fd

import "exptrain/internal/dataset"

// AgreeSet returns the attributes on which pair p's two tuples carry
// equal dictionary codes. Every hypothesis' verdict on the pair is a
// function of this set alone (StatusOn), so pairs sharing an agree set
// form one class for scoring: a candidate pool of thousands of pairs
// typically spans only tens to a few thousand distinct agree sets.
func AgreeSet(rel *dataset.Relation, p dataset.Pair) AttrSet {
	var s AttrSet
	for j := 0; j < rel.Schema().Arity(); j++ {
		if rel.Code(p.A, j) == rel.Code(p.B, j) {
			s |= 1 << uint(j)
		}
	}
	return s
}

// StatusOn classifies a pair with agree set agree against f: Neutral
// unless the LHS is inside agree, then Compliant or Violating by
// whether agree holds the RHS. It is Status restated over the agree set,
// so StatusOn(f, AgreeSet(rel, p)) == Status(f, rel, p) for every pair.
func StatusOn(f FD, agree AttrSet) PairStatus {
	switch {
	case !f.LHS.IsSubsetOf(agree):
		return Neutral
	case agree.Has(f.RHS):
		return Compliant
	default:
		return Violating
	}
}

// MaskWords returns how many 64-bit words a hypothesis mask over the
// space spans: hypothesis i is bit i%64 of word i/64.
func (s *Space) MaskWords() int { return (len(s.fds) + 63) / 64 }

// AppendViolated appends to dst the MaskWords()-word mask of the
// hypotheses a pair with agree set agree violates. One layout serves
// every space size.
func (s *Space) AppendViolated(dst []uint64, agree AttrSet) []uint64 {
	base := len(dst)
	for w := s.MaskWords(); w > 0; w-- {
		dst = append(dst, 0)
	}
	for i, f := range s.fds {
		if StatusOn(f, agree) == Violating {
			dst[base+i/64] |= 1 << uint(i%64)
		}
	}
	return dst
}
