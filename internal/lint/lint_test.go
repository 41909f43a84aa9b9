package lint

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRuleFixtures drives every rule over its bad and good fixture
// packages. Expected findings are `// want <rule>` markers on the
// flagged line; a fixture with no markers must come back clean. The
// rel column pins each fixture into or out of a rule's scope (core
// package, cmd/, internal/).
func TestRuleFixtures(t *testing.T) {
	cases := []struct {
		dir string
		rel string
	}{
		{"detrand/bad", "internal/x"},
		{"detrand/good", "internal/x"},
		{"detrand/cmdexempt", "cmd/x"},
		{"detclock/bad", "internal/game"},
		{"detclock/good", "internal/game"},
		{"detclock/noncore", "internal/service"},
		{"maporder/bad", "internal/game"},
		{"maporder/good", "internal/game"},
		{"lockedfield/bad", "internal/x"},
		{"lockedfield/good", "internal/x"},
		{"printclean/bad", "internal/x"},
		{"printclean/good", "internal/x"},
		{"floatcmp/bad", "internal/belief"},
		{"floatcmp/good", "internal/belief"},
		{"scratchalias/bad", "internal/fd"},
		{"scratchalias/good", "internal/fd"},
		{"scratchalias/noncore", "internal/service"},
		{"lockorder/bad", "internal/service"},
		{"lockorder/good", "internal/service"},
		{"goroleak/bad", "internal/x"},
		{"goroleak/good", "internal/x"},
		{"goroleak/cmdexempt", "cmd/x"},
		{"chanlock/bad", "internal/x"},
		{"chanlock/good", "internal/x"},
		{"chanlock/exempt", "internal/service"},
		{"ctxflow/bad", "internal/x"},
		{"ctxflow/good", "internal/x"},
		{"ctxflow/cmdexempt", "cmd/x"},
		{"errkind/bad", "internal/x"},
		{"errkind/good", "internal/x"},
	}
	for _, tc := range cases {
		t.Run(tc.dir, func(t *testing.T) {
			dir := filepath.Join("testdata", tc.dir)
			p := loadFixture(t, dir, tc.rel)
			want, err := wantMarkers(dir)
			if err != nil {
				t.Fatal(err)
			}
			got := make(map[string]int)
			for _, f := range Run([]*Package{p}, AllRules()) {
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
		})
	}
}

// Run applies the rules to every package, drops suppressed findings,
// adds findings for malformed and stale suppressions, and returns
// everything sorted by position.
func Run(pkgs []*Package, rules []Rule) []Finding {
	fs, _ := RunAudit(pkgs, rules)
	return fs
}

// wantMarkers scans fixture files for `// want <rule>...` trailing
// comments and returns the expected multiset keyed "file:line rule".
func wantMarkers(dir string) (map[string]int, error) {
	want := make(map[string]int)
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := os.Open(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		sc := bufio.NewScanner(f)
		for line := 1; sc.Scan(); line++ {
			_, after, found := strings.Cut(sc.Text(), "// want ")
			if !found {
				continue
			}
			for _, rule := range strings.Fields(after) {
				want[fmt.Sprintf("%s:%d %s", e.Name(), line, rule)]++
			}
		}
		err = sc.Err()
		f.Close()
		if err != nil {
			return nil, err
		}
	}
	return want, nil
}

// countByRule folds findings into rule → count.
func countByRule(fs []Finding) map[string]int {
	out := make(map[string]int)
	for _, f := range fs {
		out[f.Rule]++
	}
	return out
}

// TestSuppressionHonored: a well-formed etlint:ignore (rule + reason)
// silences the finding on its line and the next, both leading and
// trailing.
func TestSuppressionHonored(t *testing.T) {
	p := loadFixture(t, filepath.Join("testdata", "suppress", "ok"), "internal/belief")
	if fs := Run([]*Package{p}, AllRules()); len(fs) != 0 {
		t.Errorf("suppressed fixture should be clean, got %v", fs)
	}
}

// TestSuppressionUnjustified: malformed directives — no reason, unknown
// rule, bare — are findings themselves and suppress nothing.
func TestSuppressionUnjustified(t *testing.T) {
	p := loadFixture(t, filepath.Join("testdata", "suppress", "bad"), "internal/belief")
	got := countByRule(Run([]*Package{p}, AllRules()))
	if got["suppress"] != 3 {
		t.Errorf("want 3 suppress findings (no reason, unknown rule, bare), got %d", got["suppress"])
	}
	if got["floatcmp"] != 3 {
		t.Errorf("malformed directives must not suppress: want 3 floatcmp findings, got %d", got["floatcmp"])
	}
}

// TestRulesByID resolves subsets and rejects unknown names.
func TestRulesByID(t *testing.T) {
	rules, err := RulesByID([]string{"detrand", " floatcmp"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) != 2 || rules[0].ID() != "detrand" || rules[1].ID() != "floatcmp" {
		t.Errorf("unexpected subset: %v", rules)
	}
	if _, err := RulesByID([]string{"nosuchrule"}); err == nil {
		t.Error("unknown rule should error")
	}
}

// TestRuleSubsetScoping: running only detrand over the floatcmp bad
// fixture reports nothing — subsets really do scope.
func TestRuleSubsetScoping(t *testing.T) {
	p := loadFixture(t, filepath.Join("testdata", "floatcmp", "bad"), "internal/belief")
	rules, err := RulesByID([]string{"detrand"})
	if err != nil {
		t.Fatal(err)
	}
	if fs := Run([]*Package{p}, rules); len(fs) != 0 {
		t.Errorf("detrand-only run over floatcmp fixture should be clean, got %v", fs)
	}
}

// TestFindingString pins the report format cmd/etlint prints.
func TestFindingString(t *testing.T) {
	f := Finding{Rule: "detrand", File: "a/b.go", Line: 7, Col: 3, Message: "boom"}
	if got, want := f.String(), "a/b.go:7:3: boom [detrand]"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

// TestDirectiveText pins the directive grammar's edges.
func TestDirectiveText(t *testing.T) {
	cases := []struct {
		comment string
		text    string
		ok      bool
	}{
		{"//etlint:ignore floatcmp why", "floatcmp why", true},
		{"//etlint:ignore", "", true},
		{"// etlint:ignore floatcmp why", "", false}, // leading space: prose, not a directive
		{"//etlint:ignoreX", "", false},
		{"/* etlint:ignore floatcmp */", "", false},
		{"// plain comment", "", false},
	}
	for _, tc := range cases {
		text, ok := directiveText(tc.comment)
		if text != tc.text || ok != tc.ok {
			t.Errorf("directiveText(%q) = (%q, %v), want (%q, %v)", tc.comment, text, ok, tc.text, tc.ok)
		}
	}
}
