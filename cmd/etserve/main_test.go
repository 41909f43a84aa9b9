package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestServeSmoke boots the server on an ephemeral port with a disk
// store, plays one round over HTTP, snapshots, and shuts down —
// verifying the checkpoint landed on disk.
func TestServeSmoke(t *testing.T) {
	dir := t.TempDir()
	app, err := start(config{
		addr:        "127.0.0.1:0",
		storeDir:    dir,
		maxSessions: 8,
		idleTTL:     time.Hour,
		sweepEvery:  time.Hour,
		timeout:     10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + app.addr.String()

	post := func(path string, body, out any) {
		t.Helper()
		buf, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(base+path, "application/json", bytes.NewReader(buf))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode >= 300 {
			t.Fatalf("POST %s: status %d", path, resp.StatusCode)
		}
		if out != nil {
			if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
				t.Fatal(err)
			}
		}
	}

	resp, err := http.Get(base + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: status %d", resp.StatusCode)
	}

	var info struct {
		ID string `json:"id"`
	}
	post("/v1/sessions", map[string]any{
		"dataset": "OMDB", "rows": 60, "method": "StochasticUS", "k": 4, "seed": 1,
	}, &info)

	var next struct {
		Pairs []struct {
			A int `json:"a"`
			B int `json:"b"`
		} `json:"pairs"`
	}
	post(fmt.Sprintf("/v1/sessions/%s/next", info.ID), nil, &next)
	if len(next.Pairs) != 4 {
		t.Fatalf("next returned %d pairs", len(next.Pairs))
	}
	labels := make([]map[string]any, len(next.Pairs))
	for i, p := range next.Pairs {
		labels[i] = map[string]any{"pair": [2]int{p.A, p.B}}
	}
	var after struct {
		Rounds int `json:"rounds"`
	}
	post(fmt.Sprintf("/v1/sessions/%s/submit", info.ID), map[string]any{"round": 0, "labels": labels}, &after)
	if after.Rounds != 1 {
		t.Fatalf("rounds = %d after submit", after.Rounds)
	}
	post(fmt.Sprintf("/v1/sessions/%s/snapshot", info.ID), nil, nil)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := app.shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	// The snapshot (and the shutdown checkpoint) are on disk.
	matches, err := filepath.Glob(filepath.Join(dir, info.ID+"*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) == 0 {
		entries, _ := os.ReadDir(dir)
		t.Fatalf("no snapshot for %s in %s (dir has %d entries)", info.ID, dir, len(entries))
	}
}

// TestStartupRecoveryScan boots against a store holding one intact
// snapshot, one corrupted snapshot, and an orphaned temp file from a
// "crashed writer". Startup must quarantine the corrupt file, remove
// the orphan, and still serve — one rotten checkpoint must not take the
// process down. The intact snapshot stays resumable.
func TestStartupRecoveryScan(t *testing.T) {
	dir := t.TempDir()

	// First boot: create a session, snapshot it, shut down cleanly.
	app, err := start(config{
		addr: "127.0.0.1:0", storeDir: dir, maxSessions: 8,
		idleTTL: time.Hour, sweepEvery: time.Hour, timeout: 10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + app.addr.String()
	body, _ := json.Marshal(map[string]any{"dataset": "OMDB", "rows": 60, "k": 4, "seed": 7})
	resp, err := http.Post(base+"/v1/sessions", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var info struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := app.shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	// Rot a copy of the good snapshot under another id, and leave an
	// orphaned temp file behind.
	good := filepath.Join(dir, info.ID+".snapshot.json")
	raw, err := os.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/3] ^= 0x20
	if err := os.WriteFile(filepath.Join(dir, "rotten.snapshot.json"), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, ".rotten.tmp-42"), []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}

	// Second boot runs the recovery scan.
	app, err = start(config{
		addr: "127.0.0.1:0", storeDir: dir, maxSessions: 8,
		idleTTL: time.Hour, sweepEvery: time.Hour, timeout: 10 * time.Second,
	})
	if err != nil {
		t.Fatalf("start over a store with a corrupt snapshot: %v", err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = app.shutdown(ctx)
	}()
	if _, err := os.Stat(filepath.Join(dir, "rotten.corrupt")); err != nil {
		t.Fatalf("corrupt snapshot not quarantined: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "rotten.snapshot.json")); !os.IsNotExist(err) {
		t.Fatalf("corrupt snapshot still live: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, ".rotten.tmp-42")); !os.IsNotExist(err) {
		t.Fatalf("orphaned temp not removed: %v", err)
	}

	// The intact snapshot still resumes over HTTP.
	base = "http://" + app.addr.String()
	body, _ = json.Marshal(map[string]any{"resume": info.ID, "dataset": "OMDB", "rows": 60, "k": 4, "seed": 7})
	resp, err = http.Post(base+"/v1/sessions", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("resume after recovery: status %d", resp.StatusCode)
	}
}

// TestWalServe boots with -store, plays two rounds over HTTP (each
// submit acks off a group-committed WAL append, not a full snapshot),
// then kills the process without a graceful drain — no shutdown
// checkpoints land. The next boot must replay the log onto the base
// snapshot and resume the session with both rounds intact.
func TestWalServe(t *testing.T) {
	dir := t.TempDir()
	cfg := config{
		addr: "127.0.0.1:0", storeDir: dir,
		maxSessions: 8, idleTTL: time.Hour, sweepEvery: time.Hour, timeout: 10 * time.Second,
	}
	app, err := start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + app.addr.String()

	post := func(path string, body, out any) {
		t.Helper()
		buf, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(base+path, "application/json", bytes.NewReader(buf))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode >= 300 {
			t.Fatalf("POST %s: status %d", path, resp.StatusCode)
		}
		if out != nil {
			if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
				t.Fatal(err)
			}
		}
	}
	playRound := func(id string, round int) int {
		t.Helper()
		var next struct {
			Pairs []struct {
				A int `json:"a"`
				B int `json:"b"`
			} `json:"pairs"`
		}
		post(fmt.Sprintf("/v1/sessions/%s/next", id), nil, &next)
		labels := make([]map[string]any, len(next.Pairs))
		for i, p := range next.Pairs {
			labels[i] = map[string]any{"pair": [2]int{p.A, p.B}}
		}
		var after struct {
			Rounds int `json:"rounds"`
		}
		post(fmt.Sprintf("/v1/sessions/%s/submit", id), map[string]any{"round": round, "labels": labels}, &after)
		return after.Rounds
	}

	var info struct {
		ID string `json:"id"`
	}
	post("/v1/sessions", map[string]any{
		"dataset": "OMDB", "rows": 60, "method": "StochasticUS", "k": 4, "seed": 9,
	}, &info)
	playRound(info.ID, 0)
	if got := playRound(info.ID, 1); got != 2 {
		t.Fatalf("rounds = %d after two submits", got)
	}

	// Healthz carries the log-level WAL counters.
	resp, err := http.Get(base + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Wal *struct {
			Appended uint64 `json:"appended_records"`
			Fsyncs   uint64 `json:"fsyncs"`
		} `json:"wal"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if health.Wal == nil || health.Wal.Appended < 2 || health.Wal.Fsyncs == 0 {
		t.Fatalf("healthz wal counters missing or stale: %+v", health.Wal)
	}

	// Crash: tear the server down without draining the manager, so no
	// session checkpoint lands — the two rounds exist only as the base
	// snapshot + WAL records.
	app.stopSweeper()
	_ = app.srv.Close()
	<-app.serveErr
	for _, ws := range app.walStores {
		_ = ws.Close()
	}

	app, err = start(cfg)
	if err != nil {
		t.Fatalf("start after crash: %v", err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = app.shutdown(ctx)
	}()
	base = "http://" + app.addr.String()
	var resumed struct {
		ID string `json:"id"`
	}
	post("/v1/sessions", map[string]any{
		"resume": info.ID, "dataset": "OMDB", "rows": 60, "method": "StochasticUS", "k": 4, "seed": 9,
	}, &resumed)
	if resumed.ID == info.ID {
		t.Fatalf("resumed session reuses the stored id %s", info.ID)
	}
	var series struct {
		Rounds []json.RawMessage `json:"rounds"`
	}
	resp, err = http.Get(base + fmt.Sprintf("/v1/sessions/%s/rounds", resumed.ID))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&series); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(series.Rounds) != 2 {
		t.Fatalf("recovered %d rounds from the WAL, want 2", len(series.Rounds))
	}
	if got := playRound(resumed.ID, 2); got != 3 {
		t.Fatalf("rounds = %d after post-recovery submit, want 3", got)
	}
}

// TestReplicatedServe boots a server over a 3-replica quorum store,
// creates a session, shuts down, deletes one entire replica directory,
// and boots again: the startup reconcile must re-replicate the lost
// checkpoints and the session must resume over HTTP.
func TestReplicatedServe(t *testing.T) {
	dir := t.TempDir()
	cfg := config{
		addr: "127.0.0.1:0", storeDir: dir, replicas: 3,
		maxSessions: 8, idleTTL: time.Hour, sweepEvery: time.Hour, timeout: 10 * time.Second,
	}
	app, err := start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + app.addr.String()
	body, _ := json.Marshal(map[string]any{"dataset": "OMDB", "rows": 60, "k": 4, "seed": 5})
	resp, err := http.Post(base+"/v1/sessions", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var info struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	// Healthz carries the session counts and replica counters.
	resp, err = http.Get(base + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Live     int `json:"live"`
		Replicas []struct {
			Ops uint64 `json:"ops"`
		} `json:"replicas"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if health.Live != 1 || len(health.Replicas) != 3 {
		t.Fatalf("healthz live=%d replicas=%d, want 1 and 3", health.Live, len(health.Replicas))
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := app.shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		p := filepath.Join(dir, fmt.Sprintf("replica-%d", i), info.ID+".snapshot.json")
		if _, err := os.Stat(p); err != nil {
			t.Fatalf("replica %d missing checkpoint after shutdown: %v", i, err)
		}
	}

	// Lose a whole replica; the next boot's reconcile restores it.
	if err := os.RemoveAll(filepath.Join(dir, "replica-1")); err != nil {
		t.Fatal(err)
	}
	app, err = start(cfg)
	if err != nil {
		t.Fatalf("start after losing a replica: %v", err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = app.shutdown(ctx)
	}()
	if _, err := os.Stat(filepath.Join(dir, "replica-1", info.ID+".snapshot.json")); err != nil {
		t.Fatalf("lost replica not re-replicated on startup: %v", err)
	}
	base = "http://" + app.addr.String()
	body, _ = json.Marshal(map[string]any{"resume": info.ID, "dataset": "OMDB", "rows": 60, "k": 4, "seed": 5})
	resp, err = http.Post(base+"/v1/sessions", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("resume after replica loss: status %d", resp.StatusCode)
	}
}
