package lint

import "testing"

// BenchmarkLintModule times the production analysis of the real module
// this package lives in: one LoadModule plus RunAudit with every rule.
// `make lintbench` records it into BENCH_Lint.json with -benchmem, and
// `make benchcheck` gates its allocs/op.
func BenchmarkLintModule(b *testing.B) {
	rules := AllRules()
	for i := 0; i < b.N; i++ {
		pkgs, err := LoadModule("../..")
		if err != nil {
			b.Fatal(err)
		}
		RunAudit(pkgs, rules)
	}
}
