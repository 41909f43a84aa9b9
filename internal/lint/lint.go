// Package lint is the project's own static-analysis framework: a small
// analyzer suite built on go/parser and go/types (stdlib only — the
// module stays offline-buildable) that enforces the determinism and
// concurrency invariants the reproduction depends on. Generic tools
// cannot know these rules: every stochastic choice must flow through a
// threaded, explicitly seeded generator, the deterministic core must
// never read the wall clock, map iteration must not leak ordering into
// results, and fields documented as lock-guarded must be accessed under
// their lock. One violation shows up only as a flaky golden test; the
// linter turns it into a file:line finding.
//
// Findings can be suppressed with a justification:
//
//	//etlint:ignore <rule> <reason>
//
// placed on the flagged line or the line directly above it. A
// suppression without a rule ID, with an unknown rule ID, or without a
// reason is itself reported (rule "suppress") — the justification is
// the audit trail.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"runtime"
	"sort"
	"strings"
	"sync"
)

// Finding is one rule violation at a source position.
type Finding struct {
	// Rule is the reporting rule's ID ("detrand", "maporder", ...).
	Rule string `json:"rule"`
	// File, Line and Col locate the violation.
	File string `json:"file"`
	Line int    `json:"line"`
	Col  int    `json:"col"`
	// Message says what is wrong and how to fix or justify it.
	Message string `json:"message"`
}

// String renders the finding in the conventional file:line:col form.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s [%s]", f.File, f.Line, f.Col, f.Message, f.Rule)
}

// Rule is one project-specific checker. Rules are stateless; Check is
// called once per loaded package.
type Rule interface {
	// ID is the short name used in reports and suppressions.
	ID() string
	// Doc is a one-line description of what the rule enforces.
	Doc() string
	// Check reports the rule's findings in the package.
	Check(p *Package) []Finding
}

// Package is one loaded, type-checked package as the rules see it.
// Test files are never loaded: the golden and race suites own test
// hygiene, and fixtures deliberately violate rules.
type Package struct {
	// Rel is the module-relative directory: "" for the module root,
	// "internal/game", "cmd/etlint", ... Rules use it to scope
	// themselves (deterministic core, cmd, internal).
	Rel string
	// Path is the import path the package was type-checked under; the
	// call graph uses it to map cross-package objects back to Rel.
	Path string
	// Dir is the directory the files were read from.
	Dir string
	// Fset positions every node in Files.
	Fset *token.FileSet
	// Files are the parsed non-test Go files, in filename order.
	Files []*ast.File
	// Pkg and Info carry go/types results for the files.
	Pkg  *types.Package
	Info *types.Info
}

// corePaths is the deterministic core: the packages whose output must
// be bit-identical for a fixed seed. detclock, maporder and floatcmp
// scope to these.
var corePaths = map[string]bool{
	"internal/game":        true,
	"internal/belief":      true,
	"internal/agents":      true,
	"internal/sampling":    true,
	"internal/fd":          true,
	"internal/experiments": true,
	"internal/errgen":      true,
	"internal/datagen":     true,
}

// Core reports whether the package is part of the deterministic core.
func (p *Package) Core() bool { return corePaths[p.Rel] }

// Internal reports whether the package lives under internal/.
func (p *Package) Internal() bool {
	return p.Rel == "internal" || strings.HasPrefix(p.Rel, "internal/")
}

// Cmd reports whether the package is a command under cmd/.
func (p *Package) Cmd() bool { return strings.HasPrefix(p.Rel, "cmd/") }

// pkgSel resolves e as a selection on an imported package identifier
// (e.g. rand.Intn with "math/rand" imported) and returns the imported
// package's path and the selected name. Aliased imports resolve to the
// real path; shadowed identifiers do not resolve at all.
func (p *Package) pkgSel(e ast.Expr) (path, name string, ok bool) {
	sel, isSel := e.(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	id, isIdent := sel.X.(*ast.Ident)
	if !isIdent {
		return "", "", false
	}
	pn, isPkg := p.Info.Uses[id].(*types.PkgName)
	if !isPkg {
		return "", "", false
	}
	return pn.Imported().Path(), sel.Sel.Name, true
}

// posOf converts a node position to a Finding location.
func (p *Package) posOf(n ast.Node) (string, int, int) {
	pos := p.Fset.Position(n.Pos())
	return pos.Filename, pos.Line, pos.Column
}

// finding builds a Finding at n.
func (p *Package) finding(rule string, n ast.Node, format string, args ...any) Finding {
	file, line, col := p.posOf(n)
	return Finding{Rule: rule, File: file, Line: line, Col: col, Message: fmt.Sprintf(format, args...)}
}

// ModuleRule is a rule that needs the interprocedural Module view —
// call graph and per-function summaries — instead of one package at a
// time. Its Check method returns nil; RunAudit calls CheckModule once
// over the whole loaded set.
type ModuleRule interface {
	Rule
	CheckModule(m *Module) []Finding
}

// AllRules returns the full registry in reporting order: the
// per-function AST rules first, then the interprocedural rules.
func AllRules() []Rule {
	return []Rule{
		detRand{},
		detClock{},
		mapOrder{},
		lockedField{},
		printClean{},
		floatCmp{},
		scratchAlias{},
		lockOrder{},
		goroLeak{},
		chanLock{},
		ctxFlow{},
		errKind{},
		unreachable{},
	}
}

// RulesByID resolves a subset of rule IDs, erroring on unknown names.
func RulesByID(ids []string) ([]Rule, error) {
	byID := make(map[string]Rule)
	for _, r := range AllRules() {
		byID[r.ID()] = r
	}
	out := make([]Rule, 0, len(ids))
	for _, id := range ids {
		r, ok := byID[strings.TrimSpace(id)]
		if !ok {
			return nil, fmt.Errorf("lint: unknown rule %q", id)
		}
		out = append(out, r)
	}
	return out, nil
}

// AuditRecord is one etlint:ignore directive as `etlint -audit`
// reports it: where it sits, what it suppresses, the written reason,
// and whether it actually covered a finding in this run.
type AuditRecord struct {
	File   string `json:"file"`
	Line   int    `json:"line"`
	Rule   string `json:"rule"`
	Reason string `json:"reason"`
	Used   bool   `json:"used"`
}

// RunAudit applies the rules to every package, drops suppressed
// findings, adds findings for malformed and stale suppressions, and
// returns everything sorted by position, plus the suppression audit
// trail. Per-package rules fan out across GOMAXPROCS workers (rules are
// stateless and the type-checked packages are read-only here); the
// interprocedural rules run once over a Module built from the full
// set. A well-formed directive whose rule ran but covered nothing is
// reported as stale — dead suppressions hide future regressions.
func RunAudit(pkgs []*Package, rules []Rule) ([]Finding, []AuditRecord) {
	sup := &suppressions{}
	var out []Finding
	for _, p := range pkgs {
		out = append(out, sup.scan(p)...)
	}

	var perPkg []Rule
	var modRules []ModuleRule
	for _, r := range rules {
		if mr, ok := r.(ModuleRule); ok {
			modRules = append(modRules, mr)
		} else {
			perPkg = append(perPkg, r)
		}
	}

	results := make([][]Finding, len(pkgs))
	var wg sync.WaitGroup
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	for i := range pkgs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			for _, r := range perPkg {
				results[i] = append(results[i], r.Check(pkgs[i])...)
			}
		}(i)
	}
	wg.Wait()
	for _, fs := range results {
		for _, f := range fs {
			if !sup.covers(f) {
				out = append(out, f)
			}
		}
	}

	if len(modRules) > 0 {
		m := NewModule(pkgs)
		for _, r := range modRules {
			for _, f := range r.CheckModule(m) {
				if !sup.covers(f) {
					out = append(out, f)
				}
			}
		}
	}

	ran := make(map[string]bool, len(rules))
	for _, r := range rules {
		ran[r.ID()] = true
	}
	for _, d := range sup.all {
		if ran[d.rule] && !d.used {
			out = append(out, Finding{
				Rule: "suppress", File: d.file, Line: d.line, Col: d.col,
				Message: "etlint:ignore " + d.rule + " suppresses nothing; delete the stale directive",
			})
		}
	}

	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Rule < b.Rule
	})

	audit := make([]AuditRecord, 0, len(sup.all))
	for _, d := range sup.all {
		audit = append(audit, AuditRecord{File: d.file, Line: d.line, Rule: d.rule, Reason: d.reason, Used: d.used})
	}
	sort.Slice(audit, func(i, j int) bool {
		a, b := audit[i], audit[j]
		if a.File != b.File {
			return a.File < b.File
		}
		return a.Line < b.Line
	})
	return out, audit
}
