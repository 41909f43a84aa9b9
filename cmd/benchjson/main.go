// Command benchjson converts `go test -bench` output into a
// machine-readable JSON baseline. It reads the benchmark text from
// stdin and writes one JSON document to stdout:
//
//	go test -run '^$' -bench '^BenchmarkFullGame$' -benchmem . | benchjson > BENCH_baseline.json
//
// Every metric pair of a benchmark line (ns/op, B/op, allocs/op and
// custom b.ReportMetric units alike) becomes an entry in the
// benchmark's metric map, so baselines can be diffed or asserted
// against by scripts (`make bench` uses it to emit BENCH_*.json).
//
// With -check, benchjson instead compares the stdin stream against a
// checked-in baseline and exits non-zero on an allocation regression:
//
//	go test -run '^$' -bench '^BenchmarkFullGame$' -benchtime 1x -benchmem . |
//	    benchjson -check BENCH_FullGame.json
//
// Two metric families are asserted. allocs/op is gated because it is
// deterministic for a fixed code path, unlike ns/op which varies with
// machine load, so the gate never flakes on timing noise. Ratio
// metrics — any custom unit starting "x-vs-", e.g. the class
// samplers' "x-vs-perpair" speedup — are gated with a generous floor
// (the current ratio may fall to 60% of the baseline's) because a
// ratio of two runs on the same machine cancels most load noise while
// still catching a scaling property that collapsed. All other units are
// recorded, never asserted. A benchmark missing from the baseline is
// skipped with a note (new benchmarks need `make bench` to record them).
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Allocation regression tolerance: current allocs/op may exceed the
// baseline by 50% plus an absolute floor of 64 objects. The factor
// absorbs deliberate small additions without a baseline refresh; the
// floor keeps near-zero baselines (the whole point of the hot-path
// work) from turning single-object changes into failures.
const (
	allocSlackFactor = 1.5
	allocSlackFloor  = 64
)

// Ratio regression tolerance: a current "x-vs-*" ratio metric may fall
// to this fraction of its baseline before the gate fails. Ratios
// divide out absolute machine speed, but scheduling noise on a loaded
// box still moves them; 0.6 passes that noise and fails a collapse
// (a 5x scaling win degrading to parity).
const ratioSlackFactor = 0.6

// Benchmark is one benchmark's result. A `-count>1` run emits the same
// benchmark name several times; those lines are aggregated into one
// entry whose metrics are the arithmetic means across runs, with
// Samples recording how many lines were folded in.
type Benchmark struct {
	// Name is the benchmark name with the -N GOMAXPROCS suffix trimmed.
	Name string `json:"name"`
	// Iterations is the total b.N across the aggregated lines.
	Iterations int64 `json:"iterations"`
	// Samples is the number of result lines aggregated; omitted when 1.
	Samples int `json:"samples,omitempty"`
	// Metrics maps unit → mean value across samples, e.g.
	// "ns/op": 22844256.
	Metrics map[string]float64 `json:"metrics"`
}

// Baseline is the full document emitted on stdout.
type Baseline struct {
	Goos       string      `json:"goos,omitempty"`
	Goarch     string      `json:"goarch,omitempty"`
	Pkg        string      `json:"pkg,omitempty"`
	CPU        string      `json:"cpu,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

func main() {
	checkPath := flag.String("check", "",
		"compare stdin against this BENCH_*.json baseline's allocs/op instead of emitting JSON")
	flag.Parse()
	base, err := parse(bufio.NewScanner(os.Stdin))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if *checkPath != "" {
		if err := check(base, *checkPath, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		return
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(base); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

// check compares cur against the baseline at path and errors when any
// benchmark's allocs/op exceeds baseline*allocSlackFactor +
// allocSlackFloor, or any "x-vs-*" ratio metric falls below
// baseline*ratioSlackFactor. Benchmarks absent from the baseline, or
// without a gated metric on either side, are reported and skipped.
func check(cur *Baseline, path string, w io.Writer) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var ref Baseline
	if err := json.Unmarshal(data, &ref); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	refByName := make(map[string]Benchmark, len(ref.Benchmarks))
	for _, b := range ref.Benchmarks {
		refByName[b.Name] = b
	}
	compared := 0
	var regressions []string
	for _, b := range cur.Benchmarks {
		rb, ok := refByName[b.Name]
		if !ok {
			fmt.Fprintf(w, "skip %s: not in %s (run `make bench` to record it)\n", b.Name, path)
			continue
		}
		gated := 0
		if refAllocs, refOK := rb.Metrics["allocs/op"]; refOK {
			if curAllocs, curOK := b.Metrics["allocs/op"]; curOK {
				gated++
				limit := refAllocs*allocSlackFactor + allocSlackFloor
				if curAllocs > limit {
					regressions = append(regressions, fmt.Sprintf(
						"%s: %.0f allocs/op, baseline %.0f (limit %.0f)", b.Name, curAllocs, refAllocs, limit))
					fmt.Fprintf(w, "FAIL %s: %.0f allocs/op exceeds limit %.0f (baseline %.0f)\n",
						b.Name, curAllocs, limit, refAllocs)
				} else {
					fmt.Fprintf(w, "ok   %s: %.0f allocs/op (baseline %.0f, limit %.0f)\n",
						b.Name, curAllocs, refAllocs, limit)
				}
			}
		}
		for _, unit := range ratioUnits(rb) {
			refRatio := rb.Metrics[unit]
			curRatio, curOK := b.Metrics[unit]
			if !curOK {
				continue
			}
			gated++
			floor := refRatio * ratioSlackFactor
			if curRatio < floor {
				regressions = append(regressions, fmt.Sprintf(
					"%s: %.2f %s, baseline %.2f (floor %.2f)", b.Name, curRatio, unit, refRatio, floor))
				fmt.Fprintf(w, "FAIL %s: %.2f %s below floor %.2f (baseline %.2f)\n",
					b.Name, curRatio, unit, floor, refRatio)
			} else {
				fmt.Fprintf(w, "ok   %s: %.2f %s (baseline %.2f, floor %.2f)\n",
					b.Name, curRatio, unit, refRatio, floor)
			}
		}
		if gated == 0 {
			fmt.Fprintf(w, "skip %s: no gated metric on both sides (allocs/op or x-vs-*)\n", b.Name)
			continue
		}
		compared += gated
	}
	if compared == 0 {
		return fmt.Errorf("no benchmark on stdin matched %s", path)
	}
	if len(regressions) > 0 {
		return fmt.Errorf("%d benchmark regression(s):\n\t%s",
			len(regressions), strings.Join(regressions, "\n\t"))
	}
	return nil
}

// ratioUnits lists a benchmark's gated ratio metrics ("x-vs-*" units)
// in sorted order, so the check's report lines are deterministic.
func ratioUnits(b Benchmark) []string {
	var units []string
	for unit := range b.Metrics {
		if strings.HasPrefix(unit, "x-vs-") {
			units = append(units, unit)
		}
	}
	sort.Strings(units)
	return units
}

func parse(sc *bufio.Scanner) (*Baseline, error) {
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	base := &Baseline{}
	// sums accumulates repeated lines per name (a -count>1 run) in
	// first-seen order; entries are finalized into means afterwards.
	sums := make(map[string]*benchSum)
	var order []string
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			base.Goos = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			base.Goarch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "pkg:"):
			base.Pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
		case strings.HasPrefix(line, "cpu:"):
			base.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		case strings.HasPrefix(line, "Benchmark"):
			b, ok := parseLine(line)
			if !ok {
				continue
			}
			s := sums[b.Name]
			if s == nil {
				s = &benchSum{metrics: make(map[string]float64)}
				sums[b.Name] = s
				order = append(order, b.Name)
			}
			s.samples++
			s.iterations += b.Iterations
			for unit, v := range b.Metrics {
				s.metrics[unit] += v
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(order) == 0 {
		return nil, fmt.Errorf("no benchmark lines found on stdin")
	}
	for _, name := range order {
		base.Benchmarks = append(base.Benchmarks, sums[name].finalize(name))
	}
	return base, nil
}

// benchSum accumulates one benchmark's repeated result lines.
type benchSum struct {
	samples    int
	iterations int64
	metrics    map[string]float64
}

// finalize turns accumulated sums into the mean-valued Benchmark.
func (s *benchSum) finalize(name string) Benchmark {
	b := Benchmark{Name: name, Iterations: s.iterations, Metrics: make(map[string]float64, len(s.metrics))}
	for unit, total := range s.metrics {
		b.Metrics[unit] = total / float64(s.samples)
	}
	if s.samples > 1 {
		b.Samples = s.samples
	}
	return b
}

// parseLine parses "BenchmarkName-8  3  123 ns/op  456 B/op ..." into a
// Benchmark. Malformed lines are skipped rather than fatal so stray
// test output interleaved with the bench stream cannot break the
// conversion.
func parseLine(line string) (Benchmark, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return Benchmark{}, false
	}
	name := fields[0]
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Benchmark{}, false
	}
	b := Benchmark{Name: name, Iterations: iters, Metrics: make(map[string]float64)}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Benchmark{}, false
		}
		b.Metrics[fields[i+1]] = v
	}
	return b, len(b.Metrics) > 0
}
