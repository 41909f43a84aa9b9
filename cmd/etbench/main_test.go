package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from the current output")

// TestEtbenchGoldens pins the determinism contract (DESIGN §5): each
// command's output is byte-identical to its checked-in golden, and only
// a change meant to move the numbers re-pins them, with
// `go test ./cmd/etbench -run Goldens -update`.
func TestEtbenchGoldens(t *testing.T) {
	cases := []struct {
		golden string
		figure string
		runs   int
		seed   uint64
		format string
	}{
		{"summary", "all", 5, 1, "summary"}, // etbench -summary -runs 5 -seed 1
		{"figure3", "3", 2, 11, "series"},   // etbench -figure 3 -runs 2 -seed 11
		{"figure5", "5", 2, 11, "series"},
		{"figure7", "7", 2, 11, "series"},
	}
	for _, tc := range cases {
		t.Run(tc.golden, func(t *testing.T) {
			var out bytes.Buffer
			// 20 participants and 200 rows are the flag defaults.
			if err := run(&out, tc.figure, tc.runs, tc.seed, 20, 200, tc.format); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", tc.golden+".golden")
			if *update {
				if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(out.Bytes(), want) {
				t.Fatalf("output differs from %s (re-pin with -update only if the change is meant to move it):\n%s", path, out.String())
			}
		})
	}
}

func TestEtbenchTable3(t *testing.T) {
	var sb strings.Builder
	if err := run(&sb, "table3", 1, 1, 3, 80, "summary"); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "Table 3") || !strings.Contains(out, "Scenario#") {
		t.Errorf("Table 3 output wrong:\n%s", out)
	}
}

func TestEtbenchFigure2(t *testing.T) {
	var sb strings.Builder
	if err := run(&sb, "2", 1, 1, 3, 80, "summary"); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"Figure 2", "FP", "HypothesisTesting", "overall"} {
		if !strings.Contains(out, want) {
			t.Errorf("Figure 2 output missing %q:\n%s", want, out)
		}
	}
}

func TestEtbenchUnknownFigure(t *testing.T) {
	var sb strings.Builder
	if err := run(&sb, "99", 1, 1, 3, 80, "summary"); err == nil {
		t.Fatal("unknown figure should error")
	}
}

func TestEtbenchFormats(t *testing.T) {
	// Unknown format errors when a figure condition actually renders.
	var sb strings.Builder
	if err := run(&sb, "bogusfigure", 1, 1, 2, 80, "nope"); err == nil {
		t.Error("unknown figure should error before format matters")
	}
}
