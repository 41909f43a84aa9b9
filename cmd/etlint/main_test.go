package main

import (
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"

	"exptrain/internal/lint"
)

// TestListRules: -list prints every rule with its doc line, including
// the interprocedural ones.
func TestListRules(t *testing.T) {
	var sb strings.Builder
	code, err := run(&sb, options{list: true, dir: "."})
	if err != nil || code != 0 {
		t.Fatalf("run(-list) = %d, %v", code, err)
	}
	for _, id := range []string{"detrand", "detclock", "maporder", "lockedfield", "printclean", "floatcmp",
		"lockorder", "goroleak", "chanlock", "ctxflow", "errkind"} {
		if !strings.Contains(sb.String(), id) {
			t.Errorf("rule %s missing from -list output:\n%s", id, sb.String())
		}
	}
}

// TestListSubset: -rules narrows -list, and unknown rules error.
func TestListSubset(t *testing.T) {
	var sb strings.Builder
	code, err := run(&sb, options{rulesCSV: "detrand,floatcmp", list: true, dir: "."})
	if err != nil || code != 0 {
		t.Fatalf("run = %d, %v", code, err)
	}
	if strings.Contains(sb.String(), "maporder") {
		t.Errorf("-rules subset leaked other rules:\n%s", sb.String())
	}
	if code, err := run(&sb, options{rulesCSV: "nosuchrule", list: true, dir: "."}); err == nil || code != 2 {
		t.Errorf("unknown rule: want exit 2 with error, got %d, %v", code, err)
	}
}

// fixtureDir is a package directory inside testdata/mod, a two-package
// module with one chanlock finding and one justified suppression. Runs
// start there, so the walk up to go.mod stays covered.
var fixtureDir = filepath.Join("testdata", "mod", "internal", "relay")

// TestModuleClean: a rule subset that finds nothing prints nothing
// (text) or an empty array (-json), and exits zero. The fixture's
// chanlock directive is not stale here: its rule did not run.
func TestModuleClean(t *testing.T) {
	var sb strings.Builder
	code, err := run(&sb, options{rulesCSV: "detrand", dir: fixtureDir})
	if err != nil || code != 0 {
		t.Fatalf("run(-rules detrand) = %d, %v:\n%s", code, err, sb.String())
	}
	if sb.Len() != 0 {
		t.Errorf("clean run should print nothing, got:\n%s", sb.String())
	}

	sb.Reset()
	code, err = run(&sb, options{rulesCSV: "detrand", jsonOut: true, dir: fixtureDir})
	if err != nil || code != 0 {
		t.Fatalf("run(-rules detrand -json) = %d, %v", code, err)
	}
	if got := sb.String(); got != "[]\n" {
		t.Errorf("clean -json run: want an empty array, got %q", got)
	}
}

// TestModuleFindings: the unsuppressed chanlock violation is reported
// once, as a text line plus the summary or as a one-element -json
// array, and the exit status is 1 either way.
func TestModuleFindings(t *testing.T) {
	wantAt := filepath.Join("internal", "feed", "feed.go") + ":18:7: "

	var sb strings.Builder
	code, err := run(&sb, options{dir: fixtureDir})
	if err != nil || code != 1 {
		t.Fatalf("run = %d, %v; want exit 1", code, err)
	}
	lines := strings.Split(strings.TrimSuffix(sb.String(), "\n"), "\n")
	if len(lines) != 2 || !strings.Contains(lines[0], wantAt) || !strings.HasSuffix(lines[0], "[chanlock]") ||
		lines[1] != "etlint: 1 finding(s)" {
		t.Errorf("want one chanlock finding at %s plus the summary, got:\n%s", wantAt, sb.String())
	}

	sb.Reset()
	code, err = run(&sb, options{jsonOut: true, dir: fixtureDir})
	if err != nil || code != 1 {
		t.Fatalf("run(-json) = %d, %v; want exit 1", code, err)
	}
	var findings []lint.Finding
	if err := json.Unmarshal([]byte(sb.String()), &findings); err != nil {
		t.Fatalf("-json output is not a JSON array: %v\n%s", err, sb.String())
	}
	if len(findings) != 1 || findings[0].Rule != "chanlock" || !strings.Contains(findings[0].String(), wantAt) {
		t.Errorf("want one chanlock finding at %s, got %v", wantAt, findings)
	}
}

// TestAudit: -audit lists the fixture's one suppression as used, with
// its reason, and exits zero.
func TestAudit(t *testing.T) {
	var sb strings.Builder
	code, err := run(&sb, options{audit: true, dir: fixtureDir})
	if err != nil || code != 0 {
		t.Fatalf("audit run = %d, %v", code, err)
	}
	lines := strings.Split(strings.TrimSuffix(sb.String(), "\n"), "\n")
	wantAt := filepath.Join("internal", "relay", "relay.go") + ":21: chanlock — ordering needs the lock"
	if len(lines) != 2 || !strings.HasPrefix(lines[0], "used ") || !strings.Contains(lines[0], wantAt) ||
		lines[1] != "etlint: 1 suppression(s), 0 stale" {
		t.Errorf("want one used suppression at %s plus the summary, got:\n%s", wantAt, sb.String())
	}
}

// TestNoModuleRoot: starting outside any module errors cleanly.
func TestNoModuleRoot(t *testing.T) {
	var sb strings.Builder
	if code, err := run(&sb, options{dir: t.TempDir()}); err == nil || code != 2 {
		t.Errorf("want exit 2 with error outside a module, got %d, %v", code, err)
	}
}
