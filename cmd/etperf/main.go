// Command etperf is the repository benchmark. It measures the two kinds
// of user the paper's system has: an annotator waiting on rounds of
// pairs from the HTTP service, and a researcher replaying the §C.1
// sweeps. Four workloads exercise different layers:
//
//	interactive  HTTP /next+/submit, in-memory store, selection-bound
//	durable      HTTP /next+/submit on a write-ahead log on the real disk,
//	             with every session evicted and unparked halfway
//	batched      pipelined POST /submissions windows and one SSE stream
//	             per session, write-ahead log on the real disk
//	paper_sweep  experiments.RunContext over the paper's datasets and
//	             learner priors
//
// Usage (from the repository root):
//
//	bash cmd/etperf/run.sh --workload interactive --seed 1 --seconds 20 --trace 0
//	go -C cmd/etperf run . -seed 1                # every workload
//	go -C cmd/etperf run . -workload durable -trace 1 -trace-out /tmp/spans.jsonl
//
// Every run checks its outputs: a replay of sampled sessions through
// the engine must reproduce the served per-round series bit for bit,
// and the sweep's mirror must reproduce experiments.RunContext. The
// last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; with -trace 0 the metrics are
// the bounded end-to-end ones, with -trace 1 the per-layer ones. README.md
// defines every metric.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"hash"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"syscall"
)

// options is etperf's flag surface.
type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    int
	traceOut string
	scale    float64
	workdir  string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "all", "interactive, durable, batched, paper_sweep or all")
	flag.Uint64Var(&o.seed, "seed", 1, "seed of every generated input; session i of a pass uses seed+i")
	flag.IntVar(&o.seconds, "seconds", 20, "how long each workload measures, in seconds (0: only the work the checks need)")
	flag.IntVar(&o.trace, "trace", 0, "1 adds a traced pass and reports the per-layer metrics")
	flag.StringVar(&o.traceOut, "trace-out", "", "write the traced spans to this file as JSON lines")
	flag.Float64Var(&o.scale, "scale", 1, "multiplies sessions per pass and games per condition")
	flag.StringVar(&o.workdir, "workdir", os.TempDir(), "directory for the write-ahead logs and snapshots of a run (run.sh keeps it in the checkout)")
	flag.Parse()
	if err := run(context.Background(), os.Stdout, o); err != nil {
		fmt.Fprintln(os.Stderr, "etperf:", err)
		os.Exit(1)
	}
}

// endToEnd lists the metrics the JSON line of a run without tracing
// carries, and perLayer the ones a traced run's carries, in
// BENCHMARK.json order. Every workload reports every one of them. The
// end-to-end timings — first pairs, rounds, rounds and games per
// second — are printed on their own lines only: on the shared machine
// the benchmark was defined on they drift by ±15% over minutes, so they
// cannot hold a 10% bound (README.md).
var (
	endToEnd = []string{"setup_s", "heap_mb"}
	perLayer = []string{
		"game.select_ms.p50", "game.select_ms.p99", "game.first_select_ms.p50", "game.update_ms.p50",
		"game.score_ms.p50", "datagen.generate_ms.p50", "fd.space_ms.p50", "belief.prior_ms.p50",
		"runtime.alloc_bytes_per_op", "runtime.gc_cycles", "runtime.gc_pause_ms.total",
		"runtime.core_utilization", "trace.unattributed_share", "trace.overhead",
	}
)

// workloads maps each workload name to the function that runs it, in
// run order.
var workloads = []struct {
	name string
	run  func(ctx context.Context, o options, tr *tracer) (*result, error)
}{
	{"interactive", interactiveSpec.run},
	{"durable", durableSpec.run},
	{"batched", batchedSpec.run},
	{"paper_sweep", runSweep},
}

func run(ctx context.Context, w io.Writer, o options) error {
	if o.trace != 0 && o.trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1, got %d", o.trace)
	}
	if o.seconds < 0 || o.scale <= 0 {
		return fmt.Errorf("-seconds must not be negative and -scale must be positive")
	}
	var picked []int
	for i, wl := range workloads {
		if o.workload == "all" || o.workload == wl.name {
			picked = append(picked, i)
		}
	}
	if len(picked) == 0 {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	fmt.Fprintf(w, "# etperf nproc=%d GOMAXPROCS=%d cpu=%q workdir_fs=%s seed=%d seconds=%d trace=%d scale=%g\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), cpuModel(), fsType(o.workdir), o.seed, o.seconds, o.trace, o.scale)
	var spans []span
	for _, i := range picked {
		wl := workloads[i]
		var tr *tracer
		if o.trace == 1 {
			tr = newTracer()
		}
		res, err := wl.run(ctx, o, tr)
		if err != nil {
			return fmt.Errorf("%s: %w", wl.name, err)
		}
		res.printLines(w, wl.name)
		if !res.correct {
			return fmt.Errorf("%s: outputs incorrect: %s", wl.name, res.why)
		}
		if err := res.printSummary(w, wl.name, o.trace == 1); err != nil {
			return err
		}
		offset := len(spans) // parents index the combined list
		for _, s := range res.spans {
			if s.Parent >= 0 {
				s.Parent += offset
			}
			spans = append(spans, s)
		}
	}
	if o.traceOut != "" {
		return writeSpans(o.traceOut, spans)
	}
	return nil
}

// metric is one reported measurement; n is its sample count where it
// is a percentile.
type metric struct {
	name  string
	value float64
	unit  string
	n     int
}

// result is what one workload run reports.
type result struct {
	correct           bool
	why               string // first reason correct is false
	attempted, failed int64
	digest            string
	metrics           []metric
	spans             []span // linked spans of a traced run
}

// add records a metric.
func (r *result) add(name string, value float64, unit string, n int) {
	r.metrics = append(r.metrics, metric{name: name, value: value, unit: unit, n: n})
}

// fail marks the outputs incorrect, keeping the first reason.
func (r *result) fail(format string, args ...any) {
	if r.correct {
		r.why = fmt.Sprintf(format, args...)
	}
	r.correct = false
}

// printLines writes one line per metric, the error rate and the
// oracle's verdict.
func (r *result) printLines(w io.Writer, workload string) {
	for _, m := range r.metrics {
		fmt.Fprintf(w, "%s %-34s %14.6g %-6s", workload, m.name, m.value, m.unit)
		if m.n > 0 {
			fmt.Fprintf(w, " (n=%d)", m.n)
		}
		fmt.Fprintln(w)
	}
	errRate := 0.0
	if r.attempted > 0 {
		errRate = float64(r.failed) / float64(r.attempted)
	}
	fmt.Fprintf(w, "%s %-34s %14.6g %-6s (%d of %d operations)\n", workload, "error_rate", errRate, "ratio", r.failed, r.attempted)
	verdict := "ok"
	if !r.correct {
		verdict = "FAILED: " + r.why
	}
	fmt.Fprintf(w, "%s oracle %s digest=%s\n", workload, verdict, r.digest)
}

// printSummary writes the JSON summary line, which carries exactly the
// metrics of the run's mode.
func (r *result) printSummary(w io.Writer, workload string, traced bool) error {
	byName := make(map[string]metric, len(r.metrics))
	for _, m := range r.metrics {
		byName[m.name] = m
	}
	names := endToEnd
	if traced {
		names = perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct, max(r.attempted, 1), r.failed, make(map[string]value, len(names))}
	for _, n := range names {
		m, ok := byName[n]
		if !ok {
			return fmt.Errorf("%s did not measure %s", workload, n)
		}
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return fmt.Errorf("%s measured %s as %v", workload, n, m.value)
		}
		out.Metrics[n] = value{m.value, m.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// digest fingerprints a run's output series; every run of one seed
// prints the same digest.
type digest struct{ hash.Hash }

func newDigest() digest { return digest{sha256.New()} }

func (d digest) series(xs []float64) {
	for _, x := range xs {
		fmt.Fprintf(d, "%x ", math.Float64bits(x))
	}
	fmt.Fprintln(d)
}

func (d digest) sum() string { return hex.EncodeToString(d.Sum(nil)[:8]) }

// percentile returns the q-quantile (0 < q <= 1) of xs by nearest rank,
// or 0 for no samples.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

// cpuModel reads the processor name from /proc/cpuinfo.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// fsType names the filesystem holding dir: the durable workloads' fsync
// numbers mean nothing on tmpfs.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x794C7630:
		return "overlayfs"
	}
	return fmt.Sprintf("0x%x", uint32(st.Type))
}
