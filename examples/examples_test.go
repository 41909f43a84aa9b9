// Package examples_test pins what the example programs print: they are
// seeded, so their stdout is part of the determinism contract
// (DESIGN §5).
package examples_test

import (
	"bytes"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from the current output")

// TestExampleOutputs runs every example program and compares its stdout
// byte for byte with testdata/<example>.golden. Only a change meant to
// move an example's output re-pins it, with
// `go test ./examples -update`.
func TestExampleOutputs(t *testing.T) {
	entries, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !e.IsDir() || e.Name() == "testdata" {
			continue
		}
		name := e.Name()
		t.Run(name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			// go test puts its own toolchain first on PATH.
			cmd := exec.Command("go", "run", "./"+name)
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			if err := cmd.Run(); err != nil {
				t.Fatalf("go run ./%s: %v\n%s", name, err, stderr.String())
			}
			path := filepath.Join("testdata", name+".golden")
			if *update {
				if err := os.WriteFile(path, stdout.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(stdout.Bytes(), want) {
				t.Fatalf("stdout differs from %s (re-pin with -update only if the change is meant to move it):\n%s", path, stdout.String())
			}
		})
	}
}
