package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"exptrain/internal/persist"
	"exptrain/internal/persist/wal"
	"exptrain/internal/service"
)

// benchmarkMetrics reads the metric names BENCHMARK.json promises.
func benchmarkMetrics(t *testing.T) (endToEnd, perLayer []string) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Fatalf("BENCHMARK.json workloads %v, etperf runs %v", names, want)
	}
	for _, m := range b.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range b.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	return endToEnd, perLayer
}

// TestSmoke plays the first pass of every workload at a tiny scale,
// untraced and traced: every metric BENCHMARK.json names is reported
// for every workload, nothing fails, and the oracle passes.
func TestSmoke(t *testing.T) {
	e2e, layer := benchmarkMetrics(t)
	for trace, want := range [][]string{e2e, layer} {
		var out bytes.Buffer
		o := options{workload: "all", seed: 3, seconds: 0, trace: trace, scale: 0.05, workdir: t.TempDir()}
		if err := run(context.Background(), &out, o); err != nil {
			t.Fatalf("trace=%d: %v\n%s", trace, err, out.String())
		}
		lines := 0
		sc := bufio.NewScanner(&out)
		for sc.Scan() {
			if !strings.HasPrefix(sc.Text(), "{") {
				continue
			}
			lines++
			var got struct {
				Correct   bool
				Attempted int64
				Failed    int64
				Metrics   map[string]struct {
					Value float64
					Unit  string
				}
			}
			if err := json.Unmarshal(sc.Bytes(), &got); err != nil {
				t.Fatal(err)
			}
			if !got.Correct || got.Failed != 0 || got.Attempted < 1 {
				t.Errorf("trace=%d: correct=%v failed=%d attempted=%d", trace, got.Correct, got.Failed, got.Attempted)
			}
			if len(got.Metrics) != len(want) {
				t.Errorf("trace=%d: %d metrics, BENCHMARK.json lists %d", trace, len(got.Metrics), len(want))
			}
			for _, name := range want {
				if m, ok := got.Metrics[name]; !ok || m.Unit == "" {
					t.Errorf("trace=%d: metric %s missing", trace, name)
				}
			}
		}
		if lines != len(workloads) {
			t.Errorf("trace=%d: %d result lines, want %d:\n%s", trace, lines, len(workloads), out.String())
		}
	}
}

// TestTimedStoreKeepsCapabilities: wrapping the write-ahead store must
// not hide its append capability — without it the manager silently
// falls back to snapshot-only durability — and a created session's
// genesis snapshot must reach the inner directory store.
func TestTimedStoreKeepsCapabilities(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	ds, err := persist.NewDirStore(filepath.Join(dir, "snapshots"))
	if err != nil {
		t.Fatal(err)
	}
	ws, _, err := wal.OpenStore(ds, filepath.Join(dir, "wal"), wal.StoreConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer ws.Close()
	store := &timedStore{inner: ws, layer: "wal", tr: newTracer()}
	if persist.AppenderOf(store) == nil {
		t.Fatal("AppenderOf(timedStore(wal.Store)) = nil")
	}
	if _, ok := store.WalStats(); !ok {
		t.Error("timedStore hides WalStats")
	}
	if persist.AppenderOf(&timedStore{inner: persist.NewMemStore()}) != nil {
		t.Error("a wrapped MemStore claims to take round appends")
	}

	mgr := service.NewManager(service.Options{Store: store})
	info, err := mgr.Create(ctx, service.Spec{Source: service.Source{Dataset: "OMDB", Rows: 24, Seed: 1}, K: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ds.Get(ctx, info.ID); err != nil {
		t.Fatalf("genesis snapshot missing from the inner store: %v", err)
	}
	if _, err := mgr.Next(ctx, info.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.Submit(ctx, info.ID, 0, nil); err != nil {
		t.Fatal(err)
	}
	if st, _ := store.WalStats(); st.Appended != 1 {
		t.Errorf("a submitted round appended %d records, want 1", st.Appended)
	}
	if err := mgr.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
}
