package lint

import (
	"go/importer"
	"go/token"
	"path/filepath"
	"strings"
	"testing"
)

// Fixture packages all parse into one FileSet and import the standard
// library through one source importer, so the library is type-checked
// once per test binary instead of once per fixture. Fixture tests run
// sequentially, which the source importer requires.
var (
	fixtureFset = token.NewFileSet()
	fixtureImp  = importer.ForCompiler(fixtureFset, "source", nil)
)

// loadFixture parses and type-checks the package in dir under the
// module-relative path rel, through LoadModule's parse and check steps.
// rel pins the fixture into ("internal/game") or out of
// ("internal/service") a rule's scope and doubles as its import path.
func loadFixture(t testing.TB, dir, rel string) *Package {
	t.Helper()
	files, err := parseDir(fixtureFset, dir)
	if err != nil {
		t.Fatalf("parsing fixture: %v", err)
	}
	if len(files) == 0 {
		t.Fatalf("no Go files in %s", dir)
	}
	p, err := checkPackage(fixtureFset, fixtureImp, dir, rel, rel, files)
	if err != nil {
		t.Fatalf("type-checking fixture: %v", err)
	}
	return p
}

// TestLoadModuleErrors: a load that cannot succeed returns an error
// naming what is wrong — and returns at all: an import cycle leaves no
// package ready to check, which must not strand the workers.
func TestLoadModuleErrors(t *testing.T) {
	cases := []struct {
		module string
		want   []string
	}{
		{"nomod", []string{"go.mod"}},
		{"typeerr", []string{filepath.Join("leaf", "leaf.go"), "cannot use"}},
		{"cycle", []string{"import cycle", "loopmod/a", "loopmod/b"}},
	}
	for _, tc := range cases {
		t.Run(tc.module, func(t *testing.T) {
			pkgs, err := LoadModule(filepath.Join("testdata", "modules", tc.module))
			if err == nil {
				t.Fatalf("want an error, got %d package(s)", len(pkgs))
			}
			if pkgs != nil {
				t.Errorf("want no packages alongside the error, got %d", len(pkgs))
			}
			for _, w := range tc.want {
				if !strings.Contains(err.Error(), w) {
					t.Errorf("error %q does not mention %q", err, w)
				}
			}
		})
	}
}
