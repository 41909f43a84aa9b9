package service

import (
	"context"
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"exptrain/internal/belief"
	"exptrain/internal/dataset"
	"exptrain/internal/game"
	"exptrain/internal/persist"
	"exptrain/internal/persist/faulty"
)

// TestChaosFlakyStoreWorkload is the acceptance chaos test: a manager
// whose store fails 30% of all operations (seeded) must complete a
// 64-session concurrent workload — constant park/unpark churn through
// 16 resident slots — with zero lost submitted rounds, and every
// session degraded along the way must recover once the faults clear.
// Run under -race (make chaos); ET_CHAOS=1 deepens the workload.
func TestChaosFlakyStoreWorkload(t *testing.T) {
	const workers = 64
	rounds := 2
	if os.Getenv("ET_CHAOS") != "" {
		rounds = 4
	}
	const chaosSeed = 2026
	ctx := context.Background()
	fs := faulty.Wrap(persist.NewMemStore(), faulty.Config{Seed: chaosSeed, FailRate: 0.3})
	m := NewManager(Options{
		MaxSessions: 16,
		IdleTTL:     time.Minute, // churn comes from capacity + explicit evicts, not TTL
		Store:       fs,
		Retry:       fastRetry(),
		RetrySeed:   chaosSeed,
	})

	// Transient outcomes are the designed behavior under a flaky store:
	// clients retry 503s and 429s, so the workers do too.
	transient := func(err error) bool {
		return errors.Is(err, ErrStoreUnavailable) || errors.Is(err, ErrTooManySessions)
	}
	retry := func(op func() error) error {
		for tries := 0; ; tries++ {
			err := op()
			if err == nil || !transient(err) || tries > 5000 {
				return err
			}
			time.Sleep(200 * time.Microsecond)
		}
	}

	ids := make([]string, workers)
	errCh := make(chan error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var info Info
			if err := retry(func() (err error) {
				info, err = m.Create(ctx, testSpec())
				return err
			}); err != nil {
				errCh <- fmt.Errorf("worker %d create: %w", w, err)
				return
			}
			ids[w] = info.ID
			for round := 0; round < rounds; round++ {
				var pairs []PairView
				for {
					err := retry(func() (err error) {
						pairs, err = m.Next(ctx, info.ID)
						return err
					})
					if err != nil {
						errCh <- fmt.Errorf("worker %d round %d next: %w", w, round, err)
						return
					}
					labeled := make([]belief.Labeling, len(pairs))
					for i, p := range pairs {
						labeled[i] = belief.Labeling{Pair: dataset.NewPair(p.A, p.B)}
					}
					err = retry(func() (err error) {
						_, err = m.Submit(ctx, info.ID, round, labeled)
						return err
					})
					if errors.Is(err, game.ErrNoRoundPending) {
						// An eviction between Next and Submit discarded the
						// pending (evidence-free) round; present it again.
						continue
					}
					if err != nil {
						errCh <- fmt.Errorf("worker %d round %d submit: %w", w, round, err)
						return
					}
					break
				}
				// Half the workers force eviction churn through the flaky
				// store. Failure is fine — the session goes degraded and
				// keeps serving; that is the mode under test.
				if w%2 == 0 {
					_ = m.Evict(ctx, info.ID)
				}
			}
		}(w)
	}
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}

	if ops, injected := fs.Stats(); injected == 0 {
		t.Fatalf("no faults injected over %d store ops; chaos exercised nothing (seed %d)", ops, fs.Seed())
	}

	// Faults clear: every degraded session must checkpoint cleanly on
	// the final drain, and nothing submitted may be missing.
	fs.ClearFaults()
	if err := m.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown after faults cleared: %v", err)
	}
	h := m.Health()
	if h.Live != 0 || h.Degraded != 0 || h.Parked != workers {
		t.Fatalf("Health after drain = %+v, want all %d sessions parked and none degraded", h, workers)
	}
	for w, id := range ids {
		snap, err := fs.Get(ctx, id)
		if err != nil {
			t.Fatalf("worker %d: snapshot %s unreadable after drain: %v", w, id, err)
		}
		if got := len(snap.History); got != rounds {
			t.Fatalf("worker %d: snapshot %s has %d submitted rounds, want %d — a submitted round was lost", w, id, got, rounds)
		}
	}
}

// TestChaosReplicaLoss is the replicated acceptance chaos test: a
// manager holding half its sessions resident and checkpointing through
// a 3-replica quorum store (W=2) must survive losing an entire replica
// mid-run — every store operation flaky at 5% besides — with zero lost
// submitted rounds, and every session's trajectory fingerprint
// bit-identical to a clean reference run of the same spec. Run under
// -race (make chaos); ET_CHAOS=1 scales to 1024 sessions.
func TestChaosReplicaLoss(t *testing.T) {
	sessions, workers := 96, 32
	const rounds, specSeeds = 2, 8
	if os.Getenv("ET_CHAOS") != "" {
		sessions = 1024
	}
	const chaosSeed = 2026
	ctx := context.Background()

	replicas := make([]*faulty.Store, 3)
	stores := make([]persist.Store, 3)
	for i := range replicas {
		replicas[i] = faulty.Wrap(persist.NewMemStore(), faulty.Config{
			Seed: chaosSeed + uint64(i), FailRate: 0.05,
		})
		stores[i] = replicas[i]
	}
	ms, err := persist.NewMultiStore(stores, 2)
	if err != nil {
		t.Fatal(err)
	}
	m := NewManager(Options{
		MaxSessions: sessions / 2, // half-resident: constant park/unpark churn
		IdleTTL:     time.Minute,
		Store:       ms,
		Retry:       fastRetry(),
		RetrySeed:   chaosSeed,
	})

	transient := func(err error) bool {
		return errors.Is(err, ErrStoreUnavailable) || errors.Is(err, ErrTooManySessions)
	}
	retry := func(op func() error) error {
		for tries := 0; ; tries++ {
			err := op()
			if err == nil || !transient(err) || tries > 5000 {
				return err
			}
			time.Sleep(200 * time.Microsecond)
		}
	}
	// fingerprint captures a session's full trajectory — per-round
	// measurements plus final belief, all floats in %x — without
	// depending on the session id, so chaotic runs compare against a
	// clean reference keyed only by spec seed.
	fingerprint := func(m *Manager, id string) (out []string, err error) {
		rvs, err := m.Rounds(ctx, id)
		if err != nil {
			return nil, err
		}
		for _, rv := range rvs {
			out = append(out, fmt.Sprintf("round %d: labeled=%d revised=%d mae=%x payoff=%x",
				rv.Round, rv.Labeled, rv.Revised, rv.MAE, rv.Payoff))
		}
		hyps, err := m.TopBelief(ctx, id, 16)
		if err != nil {
			return nil, err
		}
		for _, h := range hyps {
			out = append(out, fmt.Sprintf("%s conf=%x ci=[%x,%x]", h.FD, h.Confidence, h.CILow, h.CIHigh))
		}
		return out, nil
	}

	// Replica 0 dies for good once half the workload has been
	// submitted: from then on the fleet runs on a bare quorum.
	var submitted atomic.Int64
	var killOnce sync.Once
	kill := int64(sessions*rounds) / 2

	ids := make([]string, sessions)
	prints := make([][]string, sessions)
	errCh := make(chan error, workers)
	var wg sync.WaitGroup
	perWorker := sessions / workers
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; k < perWorker; k++ {
				sess := w*perWorker + k
				var info Info
				if err := retry(func() (err error) {
					info, err = m.Create(ctx, datasetSpec(uint64(sess%specSeeds)))
					return err
				}); err != nil {
					errCh <- fmt.Errorf("session %d create: %w", sess, err)
					return
				}
				ids[sess] = info.ID
				for round := 0; round < rounds; round++ {
					var pairs []PairView
					for {
						err := retry(func() (err error) {
							pairs, err = m.Next(ctx, info.ID)
							return err
						})
						if err != nil {
							errCh <- fmt.Errorf("session %d round %d next: %w", sess, round, err)
							return
						}
						labeled := make([]belief.Labeling, len(pairs))
						for i, p := range pairs {
							labeled[i] = belief.Labeling{Pair: dataset.NewPair(p.A, p.B)}
						}
						err = retry(func() (err error) {
							_, err = m.Submit(ctx, info.ID, round, labeled)
							return err
						})
						if errors.Is(err, game.ErrNoRoundPending) {
							continue // eviction discarded the pending round; re-present
						}
						if err != nil {
							errCh <- fmt.Errorf("session %d round %d submit: %w", sess, round, err)
							return
						}
						break
					}
					if submitted.Add(1) == kill {
						killOnce.Do(func() { replicas[0].SetFailRate(1) })
					}
					if sess%2 == 0 {
						_ = m.Evict(ctx, info.ID)
					}
				}
				err := retry(func() (err error) {
					prints[sess], err = fingerprint(m, info.ID)
					return err
				})
				if err != nil {
					errCh <- fmt.Errorf("session %d fingerprint: %w", sess, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
	for i, r := range replicas {
		if ops, injected := r.Stats(); injected == 0 {
			t.Fatalf("replica %d: no faults injected over %d ops; chaos exercised nothing", i, ops)
		}
	}

	// The surviving replicas heal; replica 0 stays dead. The final
	// drain must still checkpoint every session through the quorum.
	replicas[1].ClearFaults()
	replicas[2].ClearFaults()
	if err := m.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown on a bare quorum: %v", err)
	}
	h := m.Health()
	if h.Live != 0 || h.Degraded != 0 || h.Parked != sessions {
		t.Fatalf("Health after drain = %+v, want all %d sessions parked and none degraded", h, sessions)
	}
	for sess, id := range ids {
		snap, err := ms.Get(ctx, id)
		if err != nil {
			t.Fatalf("session %d: snapshot %s unreadable with replica 0 dead: %v", sess, id, err)
		}
		if got := len(snap.History); got != rounds {
			t.Fatalf("session %d: snapshot %s has %d submitted rounds, want %d — a submitted round was lost", sess, id, got, rounds)
		}
	}

	// Golden parity: a clean, fully resident, single-store run of each
	// spec seed must produce the exact trajectory every chaotic session
	// recorded.
	ref := NewManager(Options{})
	for seed := 0; seed < specSeeds; seed++ {
		info, err := ref.Create(ctx, datasetSpec(uint64(seed)))
		if err != nil {
			t.Fatal(err)
		}
		for round := 0; round < rounds; round++ {
			pairs, err := ref.Next(ctx, info.ID)
			if err != nil {
				t.Fatal(err)
			}
			labeled := make([]belief.Labeling, len(pairs))
			for i, p := range pairs {
				labeled[i] = belief.Labeling{Pair: dataset.NewPair(p.A, p.B)}
			}
			if _, err := ref.Submit(ctx, info.ID, round, labeled); err != nil {
				t.Fatal(err)
			}
		}
		want, err := fingerprint(ref, info.ID)
		if err != nil {
			t.Fatal(err)
		}
		for sess := seed; sess < sessions; sess += specSeeds {
			got := prints[sess]
			if len(got) != len(want) {
				t.Fatalf("session %d (seed %d): fingerprint length %d, reference %d", sess, seed, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("session %d (seed %d) diverges from the clean reference at line %d:\nchaotic:   %s\nreference: %s",
						sess, seed, i, got[i], want[i])
				}
			}
		}
	}
}
