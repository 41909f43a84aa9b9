package exptrain

import (
	"bytes"
	"go/format"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestGofmt asserts every Go file in the tree is gofmt-formatted: it
// runs go/format over each .go file outside testdata (lint fixtures are
// inputs, formatted or not) and dot-directories, and lists the files
// whose bytes would change. This is `gofmt -l .` as a test, so plain
// `go test ./...` enforces it.
func TestGofmt(t *testing.T) {
	var checked int
	var unformatted []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		out, err := format.Source(src)
		if err != nil {
			t.Errorf("%s: %v", path, err)
			return nil
		}
		checked++
		if !bytes.Equal(src, out) {
			unformatted = append(unformatted, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if checked < 100 {
		t.Fatalf("checked only %d files; the tree walk looks broken", checked)
	}
	if len(unformatted) > 0 {
		t.Errorf("not gofmt-formatted (run gofmt -w on them):\n%s", strings.Join(unformatted, "\n"))
	}
}
