package exptrain

import (
	"testing"

	"exptrain/internal/lint"
)

// TestLintClean asserts the whole tree satisfies the project's
// determinism & concurrency rules (internal/lint) forever: no global
// randomness, no wall-clock reads in the deterministic core, no map
// iteration order leaking into results, documented lock guards
// respected, library code print-clean, no exact float comparisons in
// the core — and every //etlint:ignore carrying a written reason. This
// is `go run ./cmd/etlint ./...` as a test, so plain `go test ./...`
// enforces it even where make verify is not used.
func TestLintClean(t *testing.T) {
	pkgs, err := lint.LoadModule(".")
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	if len(pkgs) < 20 {
		t.Fatalf("loaded only %d packages; the module walk looks broken", len(pkgs))
	}
	findings, _ := lint.RunAudit(pkgs, lint.AllRules())
	for _, f := range findings {
		t.Errorf("%s", f)
	}
}
