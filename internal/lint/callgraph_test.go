package lint

import (
	"fmt"
	"path/filepath"
	"sort"
	"testing"
)

// diamondModule loads the call-graph fixture once per test.
func diamondModule(t *testing.T) *Module {
	t.Helper()
	return NewModule([]*Package{loadFixture(t, filepath.Join("testdata", "callgraph", "diamond"), "internal/diamond")})
}

// edgesOf renders a node's outgoing edges as "kind→key" strings.
func edgesOf(t *testing.T, m *Module, key FuncKey) []string {
	t.Helper()
	n := m.Funcs[key]
	if n == nil {
		var have []string
		for k := range m.Funcs {
			have = append(have, string(k))
		}
		sort.Strings(have)
		t.Fatalf("no node %q; have %v", key, have)
	}
	var out []string
	for _, e := range n.Edges {
		out = append(out, fmt.Sprintf("%s→%s", e.Kind, e.To.Key))
	}
	sort.Strings(out)
	return out
}

// TestCallGraphDiamond pins the fixture's edges: the diamond itself,
// CHA resolution of the interface call to exactly the
// signature-compatible implementations, and go/defer edge kinds.
func TestCallGraphDiamond(t *testing.T) {
	m := diamondModule(t)
	cases := []struct {
		key  FuncKey
		want []string
	}{
		{"internal/diamond|top", []string{
			"call→internal/diamond|A.Put",
			"call→internal/diamond|B.Put",
			"call→internal/diamond|mid1",
			"call→internal/diamond|mid2",
		}},
		{"internal/diamond|mid1", []string{"call→internal/diamond|bottom"}},
		{"internal/diamond|mid2", []string{"call→internal/diamond|bottom"}},
		{"internal/diamond|bottom", nil},
		// spawn's only direct edge is the go-spawned literal; the
		// literal calls bottom synchronously on its own stack.
		{"internal/diamond|spawn", []string{"go→internal/diamond|spawn$0"}},
		{"internal/diamond|spawn$0", []string{"call→internal/diamond|bottom"}},
		{"internal/diamond|cleanup", []string{
			"call→internal/diamond|bottom",
			"defer→internal/diamond|bottom",
		}},
	}
	for _, tc := range cases {
		if got := edgesOf(t, m, tc.key); fmt.Sprint(got) != fmt.Sprint(tc.want) {
			t.Errorf("%s edges = %v, want %v", tc.key, got, tc.want)
		}
	}
	// narrower.Put has a different signature; CHA must not have linked
	// the interface call to it (checked above via top's edge set), but
	// the node itself exists.
	if m.Funcs["internal/diamond|narrower.Put"] == nil {
		t.Error("narrower.Put should still be a node")
	}
}

// TestCallGraphTransitive pins the transitive reachability the rules
// consume: top may reach bottom through either arm, but go edges do
// not propagate (a spawned stack blocks alone).
func TestCallGraphTransitive(t *testing.T) {
	m := diamondModule(t)
	reach := make(map[FuncKey]map[FuncKey]bool)
	var visit func(from FuncKey, n *FuncNode)
	visit = func(from FuncKey, n *FuncNode) {
		for _, e := range n.Edges {
			if e.Kind == EdgeGo {
				continue
			}
			if !reach[from][e.To.Key] {
				if reach[from] == nil {
					reach[from] = make(map[FuncKey]bool)
				}
				reach[from][e.To.Key] = true
				visit(from, e.To)
			}
		}
	}
	for k, n := range m.Funcs {
		visit(k, n)
	}
	if !reach["internal/diamond|top"]["internal/diamond|bottom"] {
		t.Error("top should reach bottom through the diamond")
	}
	if reach["internal/diamond|spawn"]["internal/diamond|bottom"] {
		t.Error("spawn must not reach bottom synchronously: the only path is a go edge")
	}
}
