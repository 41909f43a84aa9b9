package lint

import (
	"fmt"
	"io/fs"
	"path/filepath"
	"testing"
)

// TestUnreachableModule loads the multi-package fixture module and
// checks the rule's findings against its `// want unreachable` markers:
// main, init, the public package's API and the methods it re-exports by
// alias, interface-shaped methods, functions named in package-level
// declarations and method values are all reached; the dead function,
// the dead method, the function only dead code calls and the public
// package's unexported helper are not; the suppressed helper is audited.
// Without its main package the same code reports nothing.
func TestUnreachableModule(t *testing.T) {
	root := filepath.Join("testdata", "unreachable")
	pkgs, err := LoadModule(root)
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[string]int)
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		m, err := wantMarkers(path)
		for k, n := range m {
			want[k] += n
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	rules, err := RulesByID([]string{"unreachable"})
	if err != nil {
		t.Fatal(err)
	}
	findings, audit := RunAudit(pkgs, rules)
	got := make(map[string]int)
	for _, f := range findings {
		got[fmt.Sprintf("%s:%d %s", filepath.Base(f.File), f.Line, f.Rule)]++
	}
	for key, n := range want {
		if got[key] != n {
			t.Errorf("want %d finding(s) %q, got %d", n, key, got[key])
		}
	}
	for key, n := range got {
		if want[key] == 0 {
			t.Errorf("unexpected finding %q (x%d)", key, n)
		}
	}
	if len(audit) != 1 || !audit[0].Used || audit[0].Rule != "unreachable" {
		t.Errorf("want one used unreachable suppression, got %+v", audit)
	}

	var lib []*Package
	for _, p := range pkgs {
		if p.Pkg.Name() != "main" {
			lib = append(lib, p)
		}
	}
	if len(lib) == len(pkgs) {
		t.Fatal("fixture has no main package")
	}
	if fs := (unreachable{}).CheckModule(NewModule(lib)); len(fs) != 0 {
		t.Errorf("a load with no main package must report nothing, got %v", fs)
	}
}
