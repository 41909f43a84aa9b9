// Command etlint runs the project's determinism & concurrency lint
// rules (internal/lint) over the whole module and exits non-zero on
// findings. It is part of `make verify`:
//
//	etlint [-rules detrand,maporder] [-json] [-audit] [-list] [./...]
//
// Package patterns are accepted for muscle-memory compatibility with
// go vet, but the tool always lints the entire module containing the
// working directory — the invariants it checks are repo-wide.
//
// -audit prints every //etlint:ignore directive with its reason and
// whether it covered a finding (stale directives are marked and are
// also findings in their own right).
//
// Exit status: 0 clean, 1 findings, 2 usage or load error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"exptrain/internal/lint"
)

// options are the flag-derived settings run executes under.
type options struct {
	rulesCSV string
	jsonOut  bool
	audit    bool
	list     bool
	dir      string
}

func main() {
	var opt options
	flag.StringVar(&opt.rulesCSV, "rules", "", "comma-separated subset of rules to run (default: all)")
	flag.BoolVar(&opt.jsonOut, "json", false, "emit findings as a JSON array instead of text")
	flag.BoolVar(&opt.audit, "audit", false, "report every etlint:ignore directive with its reason and usage")
	flag.BoolVar(&opt.list, "list", false, "print the rule registry and exit")
	flag.Parse()
	opt.dir = "."
	code, err := run(os.Stdout, opt)
	if err != nil {
		fmt.Fprintln(os.Stderr, "etlint:", err)
		os.Exit(2)
	}
	os.Exit(code)
}

// run executes the lint pass rooted at the module containing opt.dir
// and reports the process exit code.
func run(w io.Writer, opt options) (int, error) {
	rules := lint.AllRules()
	if opt.rulesCSV != "" {
		var err error
		rules, err = lint.RulesByID(strings.Split(opt.rulesCSV, ","))
		if err != nil {
			return 2, err
		}
	}
	if opt.list {
		for _, r := range rules {
			fmt.Fprintf(w, "%-12s %s\n", r.ID(), r.Doc())
		}
		return 0, nil
	}
	root, err := findModuleRoot(opt.dir)
	if err != nil {
		return 2, err
	}
	pkgs, err := lint.LoadModule(root)
	if err != nil {
		return 2, err
	}
	findings, audit := lint.RunAudit(pkgs, rules)
	if findings == nil {
		findings = []lint.Finding{} // -json promises an array, not null
	}

	if opt.audit {
		printAudit(w, audit)
		return 0, nil
	}

	if opt.jsonOut {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(findings); err != nil {
			return 2, err
		}
	} else {
		for _, f := range findings {
			fmt.Fprintln(w, f)
		}
	}
	if len(findings) > 0 {
		if !opt.jsonOut {
			fmt.Fprintf(w, "etlint: %d finding(s)\n", len(findings))
		}
		return 1, nil
	}
	return 0, nil
}

// printAudit renders the suppression audit: one line per directive,
// stale ones marked. The audit is a report, not a gate — stale
// directives fail the normal lint run as "suppress" findings.
func printAudit(w io.Writer, audit []lint.AuditRecord) {
	if len(audit) == 0 {
		fmt.Fprintln(w, "etlint: no suppressions")
		return
	}
	used := 0
	for _, a := range audit {
		mark := "used "
		if !a.Used {
			mark = "STALE"
		} else {
			used++
		}
		fmt.Fprintf(w, "%s %s:%d: %s — %s\n", mark, a.File, a.Line, a.Rule, a.Reason)
	}
	fmt.Fprintf(w, "etlint: %d suppression(s), %d stale\n", len(audit), len(audit)-used)
}

// findModuleRoot walks up from dir to the directory holding go.mod.
func findModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above %s", dir)
		}
		dir = parent
	}
}
