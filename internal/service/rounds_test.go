package service

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"exptrain/internal/belief"
	"exptrain/internal/dataset"
	"exptrain/internal/game"
	"exptrain/internal/persist"
	"exptrain/internal/persist/wal"
	"exptrain/internal/sampling"
)

func evalSpec(seed uint64) Spec {
	s := datasetSpec(seed)
	s.Eval = true
	return s
}

func TestManagerRoundsWithEval(t *testing.T) {
	m := NewManager(Options{})
	ctx := context.Background()
	info, err := m.Create(ctx, evalSpec(31))
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		playRound(t, m, info.ID)
	}
	views, err := m.Rounds(ctx, info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(views) != 3 {
		t.Fatalf("Rounds = %d views", len(views))
	}
	for i, v := range views {
		if v.Round != i {
			t.Fatalf("view %d has round %d", i, v.Round)
		}
		if v.Labeled == 0 {
			t.Fatalf("round %d has no labelings", i)
		}
		if v.Detection == nil {
			t.Fatalf("eval session round %d missing detection score", i)
		}
		if v.Detection.F1 < 0 || v.Detection.F1 > 1 {
			t.Fatalf("round %d F1 = %v", i, v.Detection.F1)
		}
		if v.MAE < 0 || v.MAE > 1 {
			t.Fatalf("round %d MAE = %v", i, v.MAE)
		}
	}

	// Non-eval sessions serve the same series without detection scores.
	plain, err := m.Create(ctx, datasetSpec(31))
	if err != nil {
		t.Fatal(err)
	}
	playRound(t, m, plain.ID)
	pviews, err := m.Rounds(ctx, plain.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(pviews) != 1 || pviews[0].Detection != nil {
		t.Fatalf("non-eval rounds = %+v, want one view without detection", pviews)
	}

	// CSV sources have no ground truth to evaluate against.
	bad := testSpec()
	bad.Eval = true
	if _, err := m.Create(ctx, bad); err == nil {
		t.Fatal("eval over a CSV source should error")
	}
}

func TestManagerRoundsSurviveEviction(t *testing.T) {
	m := NewManager(Options{})
	ctx := context.Background()
	info, err := m.Create(ctx, evalSpec(32))
	if err != nil {
		t.Fatal(err)
	}
	playRound(t, m, info.ID)
	playRound(t, m, info.ID)
	before, err := m.Rounds(ctx, info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Evict(ctx, info.ID); err != nil {
		t.Fatal(err)
	}
	// Rounds transparently unparks; the series is rebuilt from the
	// snapshot's per-round records.
	after, err := m.Rounds(ctx, info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != len(before) {
		t.Fatalf("rounds after unpark = %d, want %d", len(after), len(before))
	}
	for i := range before {
		b, a := before[i], after[i]
		if a.Round != b.Round || a.Labeled != b.Labeled || a.Revised != b.Revised ||
			a.MAE != b.MAE || a.Payoff != b.Payoff {
			t.Fatalf("round %d changed across eviction: %+v vs %+v", i, a, b)
		}
		if a.Detection == nil || *a.Detection != *b.Detection {
			t.Fatalf("round %d detection changed across eviction: %+v vs %+v", i, a.Detection, b.Detection)
		}
	}
	// The unparked session keeps playing and extends the series.
	playRound(t, m, info.ID)
	extended, err := m.Rounds(ctx, info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(extended) != len(before)+1 {
		t.Fatalf("rounds after resume+play = %d, want %d", len(extended), len(before)+1)
	}
}

func TestManagerRevisionThroughService(t *testing.T) {
	m := NewManager(Options{})
	ctx := context.Background()
	info, err := m.Create(ctx, datasetSpec(33))
	if err != nil {
		t.Fatal(err)
	}
	first := playRound(t, m, info.ID)

	pairs, err := m.Next(ctx, info.ID)
	if err != nil {
		t.Fatal(err)
	}
	// Second round: label the fresh pairs and also correct one round-0
	// labeling to an abstention.
	labeled := []belief.Labeling{{Pair: dataset.NewPair(first[0].A, first[0].B), Abstained: true}}
	for _, p := range pairs {
		labeled = append(labeled, belief.Labeling{Pair: dataset.NewPair(p.A, p.B)})
	}
	if _, err := m.Submit(ctx, info.ID, 1, labeled); err != nil {
		t.Fatalf("submit with revision: %v", err)
	}
	views, err := m.Rounds(ctx, info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(views) != 2 || views[1].Revised != 1 {
		t.Fatalf("rounds = %+v, want round 1 with one revision", views)
	}
	if views[1].Labeled != len(pairs) {
		t.Fatalf("round 1 labeled %d fresh pairs, want %d", views[1].Labeled, len(pairs))
	}
}

func TestServerRoundsEndpoint(t *testing.T) {
	_, c, _ := newTestServer(t, Options{})
	var info Info
	c.expect(http.StatusCreated, "POST", "/v1/sessions",
		CreateRequest{Dataset: "OMDB", Rows: 60, Method: sampling.MethodStochasticUS, K: 4, Seed: 31, Eval: true}, &info)
	c.playHTTPRound(info.ID)
	c.playHTTPRound(info.ID)

	var rounds struct {
		Rounds []RoundView `json:"rounds"`
	}
	c.expect(http.StatusOK, "GET", "/v1/sessions/"+info.ID+"/rounds", nil, &rounds)
	if len(rounds.Rounds) != 2 {
		t.Fatalf("rounds over HTTP = %+v", rounds)
	}
	for i, v := range rounds.Rounds {
		if v.Round != i || v.Detection == nil {
			t.Fatalf("round view %d = %+v", i, v)
		}
	}

	// Without eval the detection field stays off the wire entirely.
	var plain Info
	c.expect(http.StatusCreated, "POST", "/v1/sessions",
		CreateRequest{CSV: testCSV, Method: sampling.MethodRandom, K: 3, Seed: 7}, &plain)
	c.playHTTPRound(plain.ID)
	raw := c.expect(http.StatusOK, "GET", "/v1/sessions/"+plain.ID+"/rounds", nil, nil)
	if len(raw) == 0 || bytes.Contains(raw, []byte(`"detection"`)) {
		t.Fatalf("non-eval rounds body leaked detection: %s", raw)
	}

	// Unknown session maps to 404.
	status, _ := c.do("GET", "/v1/sessions/sess-404/rounds", nil, nil)
	if status != http.StatusNotFound {
		t.Fatalf("rounds of unknown session: status %d", status)
	}
}

// TestObserverOrderedUnderConcurrentAccess hammers one session from
// many goroutines over a write-ahead log on disk and then checks what
// the service records: the engine contract says events arrive in strict
// protocol order with round indices increasing and never repeated, no
// matter how requests interleave. The WAL recorder, the one observer the
// service installs, turns those events into round deltas, so a dropped,
// duplicated or reordered event shows as a store snapshot whose history
// or learner differs from the live session's (the fold rejects a gap),
// and the rendered views must read 0..n-1 in order. Under -race this
// also proves the entry-lock serialization is what protects the
// observer.
func TestObserverOrderedUnderConcurrentAccess(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	snaps, err := persist.NewDirStore(filepath.Join(dir, "snapshots"))
	if err != nil {
		t.Fatal(err)
	}
	ws, _, err := wal.OpenStore(snaps, filepath.Join(dir, "wal"), wal.StoreConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { ws.Close() }()
	m := NewManager(Options{Store: ws})
	info, err := m.Create(ctx, datasetSpec(34))
	if err != nil {
		t.Fatal(err)
	}
	// round reads the round being played. Another goroutine may submit
	// it first, so a submit naming it can also meet round_mismatch (its
	// labels differ from what the round recorded) or no_round_pending.
	round := func() int {
		got, err := m.Get(ctx, info.ID)
		if err != nil {
			t.Errorf("get: %v", err)
		}
		return got.Rounds
	}
	stolen := func(err error) bool {
		return errors.Is(err, game.ErrNoRoundPending) || errors.Is(err, ErrRoundMismatch)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				pairs, err := m.Next(ctx, info.ID)
				if errors.Is(err, game.ErrPoolExhausted) {
					return
				}
				if errors.Is(err, game.ErrRoundPending) {
					// Another goroutine owns the round; steal the submit
					// with a full abstain. (Abstentions enter the label
					// history, so a late Submit for those pairs would be a
					// valid revision — here it just gets ErrNoRoundPending.)
					if _, err := m.Submit(ctx, info.ID, round(), nil); err != nil && !stolen(err) {
						t.Errorf("steal submit: %v", err)
						return
					}
					continue
				}
				if err != nil {
					t.Errorf("next: %v", err)
					return
				}
				labeled := make([]belief.Labeling, len(pairs))
				for j, p := range pairs {
					labeled[j] = belief.Labeling{Pair: dataset.NewPair(p.A, p.B)}
				}
				if _, err := m.Submit(ctx, info.ID, round(), labeled); err != nil && !stolen(err) {
					t.Errorf("submit: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()

	m.mu.Lock()
	e := m.live[info.ID]
	m.mu.Unlock()
	e.mu.Lock()
	rounds := e.sess.Rounds()
	learner := persist.BeliefToJSON(e.sess.Belief())
	e.mu.Unlock()

	if rounds == 0 {
		t.Fatal("concurrent drivers completed no rounds")
	}
	// Every submit acked after its round's append, so the store holds
	// exactly the live session's rounds and its post-round belief once
	// a reopen replays the log.
	if err := ws.Close(); err != nil {
		t.Fatal(err)
	}
	snaps, err = persist.NewDirStore(filepath.Join(dir, "snapshots"))
	if err != nil {
		t.Fatal(err)
	}
	ws, _, err = wal.OpenStore(snaps, filepath.Join(dir, "wal"), wal.StoreConfig{})
	if err != nil {
		t.Fatal(err)
	}
	snap, err := ws.Get(ctx, info.ID)
	if err != nil {
		t.Fatalf("store get: %v", err)
	}
	if len(snap.History) != rounds {
		t.Fatalf("store holds %d rounds, live session %d", len(snap.History), rounds)
	}
	if !reflect.DeepEqual(snap.Learner, learner) {
		t.Fatal("stored learner differs from the live session's belief")
	}
	views, err := m.Rounds(ctx, info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(views) != rounds {
		t.Fatalf("Rounds = %d views for %d rounds", len(views), rounds)
	}
	for i, v := range views {
		if v.Round != i {
			t.Fatalf("view %d has round %d (duplicated or reordered)", i, v.Round)
		}
	}
}
