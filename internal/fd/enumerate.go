package fd

import (
	"fmt"
	"sort"
)

// SpaceConfig controls hypothesis-space enumeration.
type SpaceConfig struct {
	// Arity is the number of attributes in the schema.
	Arity int
	// MaxLHS bounds the LHS cardinality. The paper's evaluation uses FDs
	// with at most four attributes total (§C.1), i.e. MaxLHS = 3 with the
	// single RHS attribute.
	MaxLHS int
	// MaxFDs truncates the enumeration to the first MaxFDs hypotheses in
	// canonical order (0 means unlimited). §C.1 uses a 38-FD hypothesis
	// space per dataset.
	MaxFDs int
	// Attrs optionally restricts enumeration to a subset of attribute
	// positions; nil means all.
	Attrs []int
}

// Enumerate generates the hypothesis space: every nontrivial normalized
// FD over the configured attributes with |LHS| ≤ MaxLHS, in canonical
// order (by LHS size, then LHS bitmask, then RHS). Canonical order makes
// the space — and therefore every belief vector over it — deterministic
// across runs.
func Enumerate(cfg SpaceConfig) ([]FD, error) {
	if cfg.Arity <= 1 {
		return nil, fmt.Errorf("fd: need at least two attributes, got %d", cfg.Arity)
	}
	if cfg.MaxLHS <= 0 {
		return nil, fmt.Errorf("fd: MaxLHS must be positive, got %d", cfg.MaxLHS)
	}
	universe := cfg.Attrs
	if universe == nil {
		universe = make([]int, cfg.Arity)
		for i := range universe {
			universe[i] = i
		}
	}
	for _, a := range universe {
		if a < 0 || a >= cfg.Arity {
			return nil, fmt.Errorf("fd: attribute %d outside schema arity %d", a, cfg.Arity)
		}
	}
	sorted := append([]int(nil), universe...)
	sort.Ints(sorted)

	var out []FD
	maxLHS := cfg.MaxLHS
	if maxLHS > len(sorted)-1 {
		maxLHS = len(sorted) - 1
	}
	for size := 1; size <= maxLHS; size++ {
		for _, lhsIdx := range AllSubsetsOfSize(len(sorted), size) {
			var lhs AttrSet
			for _, i := range lhsIdx.Attrs() {
				lhs = lhs.Add(sorted[i])
			}
			for _, rhs := range sorted {
				if lhs.Has(rhs) {
					continue
				}
				out = append(out, FD{LHS: lhs, RHS: rhs})
				if cfg.MaxFDs > 0 && len(out) == cfg.MaxFDs {
					return out, nil
				}
			}
		}
	}
	return out, nil
}

// MustEnumerate is Enumerate that panics on error.
func MustEnumerate(cfg SpaceConfig) []FD {
	fds, err := Enumerate(cfg)
	if err != nil {
		panic(err)
	}
	return fds
}

// Space is an indexed hypothesis space: a canonical list of FDs, each
// identified by its position. Beliefs are vectors over a Space. Every
// resident session holds one, and only a few cold paths (user-specified
// priors, the user-study fit) look an FD up by value, so there is no
// FD→index map: Index scans.
type Space struct {
	fds []FD
}

// NewSpace builds a Space from an FD list, rejecting duplicates.
func NewSpace(fds []FD) (*Space, error) {
	seen := make(map[FD]struct{}, len(fds))
	for _, f := range fds {
		if _, dup := seen[f]; dup {
			return nil, fmt.Errorf("fd: duplicate FD %v in space", f)
		}
		seen[f] = struct{}{}
	}
	return &Space{fds: append([]FD(nil), fds...)}, nil
}

// MustNewSpace is NewSpace that panics on error.
func MustNewSpace(fds []FD) *Space {
	s, err := NewSpace(fds)
	if err != nil {
		panic(err)
	}
	return s
}

// Size returns the number of hypotheses.
func (s *Space) Size() int { return len(s.fds) }

// FD returns the hypothesis at index i.
func (s *Space) FD(i int) FD { return s.fds[i] }

// FDs returns a copy of the hypothesis list.
func (s *Space) FDs() []FD { return append([]FD(nil), s.fds...) }

// Index returns the position of f and whether it is in the space, in
// O(Size).
func (s *Space) Index(f FD) (int, bool) {
	for i, g := range s.fds {
		if g == f {
			return i, true
		}
	}
	return -1, false
}

// Contains reports whether f is in the space.
func (s *Space) Contains(f FD) bool {
	_, ok := s.Index(f)
	return ok
}

// Related returns the indices of hypotheses that are subset/superset
// related to f (excluding f itself), used for prior configuration and
// the "+" evaluation variants.
func (s *Space) Related(f FD) []int {
	var out []int
	for i, g := range s.fds {
		if g != f && g.Related(f) {
			out = append(out, i)
		}
	}
	return out
}
