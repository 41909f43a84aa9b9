package service

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"exptrain/internal/belief"
	"exptrain/internal/dataset"
	"exptrain/internal/game"
	"exptrain/internal/persist"
	"exptrain/internal/sampling"
)

// testCSV is a small relation with a near-FD (team→city).
const testCSV = `player,team,city
carter,lakers,la
jordan,lakers,la
smith,bulls,chicago
black,bulls,chicago
jones,bulls,detroit
wade,heat,miami
nash,suns,phoenix
kidd,nets,newark
`

func testSpec() Spec {
	return Spec{
		Source: Source{CSV: []byte(testCSV)},
		Method: sampling.MethodRandom,
		K:      3,
		Seed:   11,
	}
}

func datasetSpec(seed uint64) Spec {
	return Spec{
		Source: Source{Dataset: "OMDB", Rows: 60, Seed: seed},
		Method: sampling.MethodStochasticUS,
		K:      4,
		Seed:   seed,
	}
}

// playRound drives one create-owned session through next+submit.
func playRound(t *testing.T, m *Manager, id string) []PairView {
	t.Helper()
	ctx := context.Background()
	pairs, err := m.Next(ctx, id)
	if err != nil {
		t.Fatalf("Next(%s): %v", id, err)
	}
	labels := make([]LabelingWire, len(pairs))
	for i, p := range pairs {
		labels[i] = LabelingWire{Pair: [2]int{p.A, p.B}}
	}
	labeled := make([]belief.Labeling, len(labels))
	for i, lw := range labels {
		l, err := lw.ToLabeling()
		if err != nil {
			t.Fatal(err)
		}
		labeled[i] = l
	}
	if _, err := m.Submit(ctx, id, UncheckedRound, labeled); err != nil {
		t.Fatalf("Submit(%s): %v", id, err)
	}
	return pairs
}

func TestManagerLifecycle(t *testing.T) {
	m := NewManager(Options{})
	ctx := context.Background()
	info, err := m.Create(ctx, testSpec())
	if err != nil {
		t.Fatal(err)
	}
	if info.Rows != 8 || info.Space == 0 {
		t.Fatalf("Info = %+v", info)
	}
	playRound(t, m, info.ID)

	got, err := m.Get(ctx, info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.Rounds != 1 || got.Pending != 0 {
		t.Fatalf("after one round: %+v", got)
	}

	hyps, err := m.TopBelief(ctx, info.ID, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(hyps) != 5 {
		t.Fatalf("TopBelief returned %d hypotheses", len(hyps))
	}
	if _, err := m.Repairs(ctx, info.ID, 0.5); err != nil {
		t.Fatalf("Repairs: %v", err)
	}

	snapID, err := m.Snapshot(ctx, info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Store().Get(ctx, snapID); err != nil {
		t.Fatalf("snapshot not in store: %v", err)
	}

	if _, err := m.Get(ctx, "sess-404"); !errors.Is(err, ErrSessionNotFound) {
		t.Fatalf("unknown id: err = %v, want ErrSessionNotFound", err)
	}
}

func TestManagerProtocolSentinelsOverManager(t *testing.T) {
	m := NewManager(Options{})
	ctx := context.Background()
	info, err := m.Create(ctx, testSpec())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Submit(ctx, info.ID, UncheckedRound, nil); !errors.Is(err, game.ErrNoRoundPending) {
		t.Fatalf("Submit first: err = %v, want ErrNoRoundPending", err)
	}
	if _, err := m.Next(ctx, info.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Next(ctx, info.ID); !errors.Is(err, game.ErrRoundPending) {
		t.Fatalf("double Next: err = %v, want ErrRoundPending", err)
	}
}

func TestManagerEvictAndTransparentResume(t *testing.T) {
	m := NewManager(Options{})
	ctx := context.Background()
	info, err := m.Create(ctx, testSpec())
	if err != nil {
		t.Fatal(err)
	}
	presented := playRound(t, m, info.ID)
	if err := m.Evict(ctx, info.ID); err != nil {
		t.Fatal(err)
	}
	live, parked := m.Counts()
	if live != 0 || parked != 1 {
		t.Fatalf("after evict: live=%d parked=%d", live, parked)
	}
	// The checkpoint is recoverable straight from the store.
	snap, err := m.Store().Get(ctx, info.ID)
	if err != nil {
		t.Fatalf("evicted snapshot missing from store: %v", err)
	}
	if len(snap.History) != 1 {
		t.Fatalf("snapshot history has %d rounds, want 1", len(snap.History))
	}
	// Parked sessions still list and report state.
	got, err := m.Get(ctx, info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Parked {
		t.Fatalf("Get after evict: %+v", got)
	}
	// Accessing the session resumes it transparently with history and
	// freshness preserved.
	pairs, err := m.Next(ctx, info.ID)
	if err != nil {
		t.Fatalf("Next after evict: %v", err)
	}
	seen := map[dataset.Pair]bool{}
	for _, p := range presented {
		seen[dataset.NewPair(p.A, p.B)] = true
	}
	for _, p := range pairs {
		if seen[dataset.NewPair(p.A, p.B)] {
			t.Fatalf("resumed session re-presented pair (%d,%d)", p.A, p.B)
		}
	}
	got, err = m.Get(ctx, info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.Parked || got.Rounds != 1 || got.Pending == 0 {
		t.Fatalf("after resume: %+v", got)
	}
}

func TestManagerTTLSweep(t *testing.T) {
	m := NewManager(Options{IdleTTL: time.Minute})
	ctx := context.Background()
	clock := time.Unix(1000, 0)
	m.setNow(func() time.Time { return clock })

	a, err := m.Create(ctx, testSpec())
	if err != nil {
		t.Fatal(err)
	}
	clock = clock.Add(30 * time.Second)
	b, err := m.Create(ctx, datasetSpec(3))
	if err != nil {
		t.Fatal(err)
	}
	clock = clock.Add(45 * time.Second)
	// a is now 75s idle (over the TTL), b 45s (under).
	swept, err := m.Sweep(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(swept) != 1 || swept[0] != a.ID {
		t.Fatalf("Sweep = %v, want [%s]", swept, a.ID)
	}
	live, parked := m.Counts()
	if live != 1 || parked != 1 {
		t.Fatalf("after sweep: live=%d parked=%d", live, parked)
	}
	if _, err := m.Store().Get(ctx, a.ID); err != nil {
		t.Fatalf("swept session has no recoverable snapshot: %v", err)
	}
	if _, err := m.Get(ctx, b.ID); err != nil {
		t.Fatal(err)
	}
}

func TestManagerBackpressureAndLRUCapacityEviction(t *testing.T) {
	m := NewManager(Options{MaxSessions: 2})
	ctx := context.Background()
	clock := time.Unix(2000, 0)
	m.setNow(func() time.Time { return clock })

	a, err := m.Create(ctx, testSpec())
	if err != nil {
		t.Fatal(err)
	}
	clock = clock.Add(time.Second)
	if _, err := m.Create(ctx, datasetSpec(4)); err != nil {
		t.Fatal(err)
	}
	clock = clock.Add(time.Second)
	// Third create evicts the LRU session (a) rather than failing.
	c, err := m.Create(ctx, datasetSpec(5))
	if err != nil {
		t.Fatalf("create at capacity should evict LRU: %v", err)
	}
	live, parked := m.Counts()
	if live != 2 || parked != 1 {
		t.Fatalf("after LRU eviction: live=%d parked=%d", live, parked)
	}
	if _, err := m.Store().Get(ctx, a.ID); err != nil {
		t.Fatalf("LRU-evicted session not checkpointed: %v", err)
	}
	_ = c

	// When every resident session is mid-request, nothing is evictable
	// and create fails with the backpressure sentinel.
	m2 := NewManager(Options{MaxSessions: 1})
	d, err := m2.Create(ctx, testSpec())
	if err != nil {
		t.Fatal(err)
	}
	sh := m2.shardFor(d.ID)
	sh.mu.Lock()
	e := sh.live[d.ID]
	sh.mu.Unlock()
	e.mu.Lock() // simulate an in-flight request
	_, err = m2.Create(ctx, datasetSpec(6))
	e.mu.Unlock()
	if !errors.Is(err, ErrTooManySessions) {
		t.Fatalf("create with all sessions busy: err = %v, want ErrTooManySessions", err)
	}
}

func TestManagerShutdownCheckpointsEverything(t *testing.T) {
	store := persist.NewMemStore()
	m := NewManager(Options{Store: store})
	ctx := context.Background()
	var ids []string
	for i := 0; i < 5; i++ {
		info, err := m.Create(ctx, datasetSpec(uint64(i)))
		if err != nil {
			t.Fatal(err)
		}
		playRound(t, m, info.ID)
		ids = append(ids, info.ID)
	}
	// One session has a pending (unsubmitted) round at shutdown; its
	// submitted history must still be checkpointed.
	if _, err := m.Next(ctx, ids[0]); err != nil {
		t.Fatal(err)
	}
	if err := m.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		snap, err := store.Get(ctx, id)
		if err != nil {
			t.Fatalf("session %s not checkpointed: %v", id, err)
		}
		if len(snap.History) != 1 {
			t.Fatalf("session %s lost its submitted round: %d in history", id, len(snap.History))
		}
	}
	if _, err := m.Create(ctx, testSpec()); !errors.Is(err, ErrShuttingDown) {
		t.Fatalf("create after shutdown: err = %v, want ErrShuttingDown", err)
	}
	if _, err := m.Next(ctx, ids[1]); !errors.Is(err, ErrShuttingDown) {
		t.Fatalf("next after shutdown: err = %v, want ErrShuttingDown", err)
	}
}

// TestManagerConcurrentSessions hammers one manager from many
// goroutines — the test that must pass under -race. Sessions are
// created, played, evicted and resumed concurrently while a sweeper
// runs, with capacity forcing LRU churn.
func TestManagerConcurrentSessions(t *testing.T) {
	m := NewManager(Options{MaxSessions: 8, IdleTTL: time.Millisecond})
	ctx := context.Background()
	const workers = 24
	var workersWG, sweeperWG sync.WaitGroup
	errCh := make(chan error, workers+1)

	stop := make(chan struct{})
	sweeperWG.Add(1)
	go func() { // background sweeper, as cmd/etserve runs
		defer sweeperWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
				if _, err := m.Sweep(ctx); err != nil {
					errCh <- fmt.Errorf("sweep: %w", err)
					return
				}
				time.Sleep(100 * time.Microsecond)
			}
		}
	}()

	// With 24 workers against 8 slots, ErrTooManySessions is the
	// designed outcome whenever every resident session is mid-request;
	// clients are expected to retry, so the workers do too.
	retry := func(op func() error) error {
		for tries := 0; ; tries++ {
			err := op()
			if !errors.Is(err, ErrTooManySessions) || tries > 5000 {
				return err
			}
			time.Sleep(200 * time.Microsecond)
		}
	}

	for w := 0; w < workers; w++ {
		workersWG.Add(1)
		go func(w int) {
			defer workersWG.Done()
			var info Info
			err := retry(func() (err error) {
				info, err = m.Create(ctx, datasetSpec(uint64(w)))
				return err
			})
			if err != nil {
				errCh <- fmt.Errorf("worker %d create: %w", w, err)
				return
			}
			for round := 0; round < 3; round++ {
				for {
					var pairs []PairView
					err := retry(func() (err error) {
						pairs, err = m.Next(ctx, info.ID)
						return err
					})
					if err != nil {
						errCh <- fmt.Errorf("worker %d next: %w", w, err)
						return
					}
					labeled := make([]belief.Labeling, len(pairs))
					for i, p := range pairs {
						labeled[i] = belief.Labeling{Pair: dataset.NewPair(p.A, p.B)}
					}
					err = retry(func() (err error) {
						_, err = m.Submit(ctx, info.ID, UncheckedRound, labeled)
						return err
					})
					if errors.Is(err, game.ErrNoRoundPending) {
						// The aggressive 1ms-TTL sweeper parked the session
						// between Next and Submit, discarding the pending
						// (evidence-free) round; present it again.
						continue
					}
					if err != nil {
						errCh <- fmt.Errorf("worker %d submit: %w", w, err)
						return
					}
					break
				}
			}
			if w%3 == 0 {
				if err := m.Evict(ctx, info.ID); err != nil {
					errCh <- fmt.Errorf("worker %d evict: %w", w, err)
					return
				}
			}
			got, err := m.Get(ctx, info.ID)
			if err != nil {
				errCh <- fmt.Errorf("worker %d get: %w", w, err)
				return
			}
			if !got.Parked && got.Rounds != 3 {
				errCh <- fmt.Errorf("worker %d: rounds = %d, want 3", w, got.Rounds)
			}
		}(w)
	}
	workersWG.Wait()
	close(stop)
	sweeperWG.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
}

// TestEvictPendingRoundIsDrawExact: evicting a session with a
// presented-but-unsubmitted round parks it at the round's start, so
// Next → Evict → (unpark) Next presents the same pairs, and the whole
// trajectory — pairs and /rounds series — equals an uninterrupted
// session's (DESIGN §12 "Draw-exact resume").
func TestEvictPendingRoundIsDrawExact(t *testing.T) {
	ctx := context.Background()
	m := NewManager(Options{Store: persist.NewMemStore()})
	const rounds = 4
	play := func(evictAt int) (trail, series []string) {
		info, err := m.Create(ctx, datasetSpec(5))
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < rounds; r++ {
			pairs, err := m.Next(ctx, info.ID)
			if err != nil {
				t.Fatal(err)
			}
			if r == evictAt {
				if err := m.Evict(ctx, info.ID); err != nil {
					t.Fatal(err)
				}
				again, err := m.Next(ctx, info.ID)
				if err != nil {
					t.Fatalf("Next after evict: %v", err)
				}
				if fmt.Sprint(again) != fmt.Sprint(pairs) {
					t.Fatalf("round %d re-presented %v after evict, first presentation %v", r, again, pairs)
				}
			}
			labeled := make([]belief.Labeling, len(pairs))
			for i, p := range pairs {
				labeled[i] = belief.Labeling{Pair: dataset.NewPair(p.A, p.B)}
				if i == 0 {
					labeled[i].Marked = labeled[i].Marked.Add(1)
				}
			}
			if _, err := m.Submit(ctx, info.ID, r, labeled); err != nil {
				t.Fatal(err)
			}
			trail = append(trail, fmt.Sprint(pairs))
		}
		rvs, err := m.Rounds(ctx, info.ID)
		if err != nil {
			t.Fatal(err)
		}
		for _, rv := range rvs {
			series = append(series, fmt.Sprintf("round %d: labeled=%d revised=%d mae=%x payoff=%x",
				rv.Round, rv.Labeled, rv.Revised, rv.MAE, rv.Payoff))
		}
		return trail, series
	}
	wantPairs, wantSeries := play(-1)
	gotPairs, gotSeries := play(2)
	for r := range wantPairs {
		if gotPairs[r] != wantPairs[r] {
			t.Fatalf("round %d: evicted session presented %s, uninterrupted %s", r, gotPairs[r], wantPairs[r])
		}
	}
	if fmt.Sprint(gotSeries) != fmt.Sprint(wantSeries) {
		t.Fatalf("/rounds series diverged:\n got %v\nwant %v", gotSeries, wantSeries)
	}
}
