package main

import (
	"strconv"
	"strings"
	"testing"
)

// TestEtloadSmoke plays both submission paths against the in-process
// server and checks the three result lines benchjson parses into
// BENCH_Labelpool.json.
func TestEtloadSmoke(t *testing.T) {
	cfg := config{sessions: 2, rounds: 2, window: 2, dataset: "OMDB", rows: 24, k: 2, seed: 1}
	var out strings.Builder
	if err := run(&out, cfg); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n")
	want := []struct {
		name       string
		iterations int
		unit       string // the last metric's unit
	}{
		{"BenchmarkLabelpoolBaseline", cfg.sessions * cfg.rounds, "p99-req-ns"},
		{"BenchmarkLabelpoolPool", cfg.sessions * cfg.rounds, "p99-req-ns"},
		{"BenchmarkLabelpoolSpeedup", 1, "x-vs-baseline"},
	}
	if len(lines) != len(want) {
		t.Fatalf("got %d lines, want %d:\n%s", len(lines), len(want), out.String())
	}
	for i, w := range want {
		f := strings.Fields(lines[i])
		if len(f) < 4 || f[0] != w.name || f[len(f)-1] != w.unit {
			t.Fatalf("line %d = %q, want %s ... %s", i, lines[i], w.name, w.unit)
		}
		if n, err := strconv.Atoi(f[1]); err != nil || n != w.iterations {
			t.Fatalf("line %d iterations %q, want %d", i, f[1], w.iterations)
		}
		if v, err := strconv.ParseFloat(f[len(f)-2], 64); err != nil || v <= 0 {
			t.Fatalf("line %d: %s = %q, want a positive number", i, w.unit, f[len(f)-2])
		}
	}
}
