package fd

import (
	"fmt"
	"strings"

	"exptrain/internal/dataset"
)

// FD is a normalized functional dependency X → A: a non-empty LHS
// attribute set determining a single RHS attribute not in the LHS.
type FD struct {
	LHS AttrSet
	RHS int
}

// New validates and constructs an FD. It enforces the paper's focus:
// nontrivial (RHS ∉ LHS) and normalized (single RHS attribute); the LHS
// must be non-empty.
func New(lhs AttrSet, rhs int) (FD, error) {
	if lhs.IsEmpty() {
		return FD{}, fmt.Errorf("fd: empty LHS")
	}
	if rhs < 0 || rhs >= MaxAttrs {
		return FD{}, fmt.Errorf("fd: RHS position %d out of range", rhs)
	}
	if lhs.Has(rhs) {
		return FD{}, fmt.Errorf("fd: trivial FD (RHS %d appears in LHS %v)", rhs, lhs)
	}
	return FD{LHS: lhs, RHS: rhs}, nil
}

// MustNew is New that panics on error.
//
//etlint:ignore unreachable test fixture helper shared by the tests of fd, agents, belief, errgen, game, repair, sampling, cmd/etrepair and the exptrain root
func MustNew(lhs AttrSet, rhs int) FD {
	f, err := New(lhs, rhs)
	if err != nil {
		panic(err)
	}
	return f
}

// Attrs returns all attributes mentioned by the FD (LHS ∪ {RHS}).
func (f FD) Attrs() AttrSet { return f.LHS.Add(f.RHS) }

// String renders positions, e.g. "{0,1}->2". Use Render for names.
func (f FD) String() string { return fmt.Sprintf("%v->%d", f.LHS, f.RHS) }

// Render renders the FD with attribute names, e.g. "Team->City".
func (f FD) Render(names []string) string {
	rhs := fmt.Sprintf("#%d", f.RHS)
	if f.RHS < len(names) {
		rhs = names[f.RHS]
	}
	return f.LHS.Render(names) + "->" + rhs
}

// IsSupersetOf reports whether f is a superset of g in the paper's sense
// (§A.2): f = X→Z is a superset of g = XY→Z, i.e. the same RHS with a
// strictly smaller LHS. A superset FD implies the subset FD.
func (f FD) IsSupersetOf(g FD) bool {
	return f.RHS == g.RHS && f.LHS.IsProperSubsetOf(g.LHS)
}

// IsSubsetOf reports the inverse relation: f = XY→Z is a subset of
// g = X→Z.
func (f FD) IsSubsetOf(g FD) bool { return g.IsSupersetOf(f) }

// Related reports whether two distinct FDs are subset/superset related
// in either direction, the "semantically close" notion used for prior
// configuration and the "+" evaluation variants.
func (f FD) Related(g FD) bool { return f.IsSupersetOf(g) || g.IsSupersetOf(f) }

// Parse parses an FD of the form "A,B->C" against the schema. Attribute
// names are trimmed of surrounding whitespace.
func Parse(s string, schema *dataset.Schema) (FD, error) {
	parts := strings.SplitN(s, "->", 2)
	if len(parts) != 2 {
		return FD{}, fmt.Errorf("fd: %q is not of the form LHS->RHS", s)
	}
	var lhs AttrSet
	for _, name := range strings.Split(parts[0], ",") {
		name = strings.TrimSpace(name)
		i, ok := schema.Index(name)
		if !ok {
			return FD{}, fmt.Errorf("fd: unknown LHS attribute %q", name)
		}
		lhs = lhs.Add(i)
	}
	rhsName := strings.TrimSpace(parts[1])
	rhs, ok := schema.Index(rhsName)
	if !ok {
		return FD{}, fmt.Errorf("fd: unknown RHS attribute %q", rhsName)
	}
	return New(lhs, rhs)
}

// MustParse is Parse that panics on error.
func MustParse(s string, schema *dataset.Schema) FD {
	f, err := Parse(s, schema)
	if err != nil {
		panic(err)
	}
	return f
}

// ParseAll parses a list of FD strings against the schema.
func ParseAll(specs []string, schema *dataset.Schema) ([]FD, error) {
	out := make([]FD, 0, len(specs))
	for _, s := range specs {
		f, err := Parse(s, schema)
		if err != nil {
			return nil, err
		}
		out = append(out, f)
	}
	return out, nil
}
