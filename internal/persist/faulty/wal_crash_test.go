package faulty_test

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"exptrain/internal/persist"
	"exptrain/internal/persist/faulty"
	"exptrain/internal/persist/wal"
)

// walDelta builds one distinguishable round delta; the MAE fingerprints
// the (session, round) so a recovered prefix can be matched exactly.
func walDelta(session string, round int) *persist.RoundDelta {
	return &persist.RoundDelta{
		Session: session,
		Round:   round,
		Interaction: persist.FromRound(persist.Round{
			MAE:    float64(round) + 0.125,
			Payoff: float64(round),
		}),
	}
}

// checkWalPrefix asserts the recovered session is exactly the genesis
// snapshot plus a gapless prefix of the appended rounds — the WAL's
// old-or-new contract at its commit unit, the record — and returns how
// many appended rounds survived.
func checkWalPrefix(t *testing.T, snap *persist.Snapshot, genesisRounds, appended int) int {
	t.Helper()
	got := len(snap.History)
	if got < genesisRounds || got > genesisRounds+appended {
		t.Fatalf("recovered %d rounds, want between %d (old) and %d (new)", got, genesisRounds, genesisRounds+appended)
	}
	for r := genesisRounds; r < got; r++ {
		want := walDelta("s", r).Interaction.MAE
		if snap.History[r].MAE != want {
			t.Fatalf("recovered round %d has MAE %v, want %v — not the appended record", r, snap.History[r].MAE, want)
		}
	}
	return got - genesisRounds
}

// TestCrashPointPropertyWalAppend is the WAL's crash-safety property
// test: a crash simulated at EVERY step of the group-commit protocol —
// with the segment's unsynced suffix torn to several different prefixes
// at the fsync step — must leave the reopened store serving exactly the
// genesis snapshot plus a gapless prefix of the appended rounds. Every
// round committed before the crash survives; a round acked durable is
// never lost (the ack-step crash leaves all records recoverable); and
// recovery never reports corruption — torn tails truncate silently.
func TestCrashPointPropertyWalAppend(t *testing.T) {
	ctx := context.Background()
	genesis, _ := snapshotPair(t) // one recorded round

	for _, step := range wal.AppendSteps() {
		for _, keep := range []float64{0, 0.33, 0.66, 1} {
			t.Run(fmt.Sprintf("%s/keep=%.2f", step, keep), func(t *testing.T) {
				storeDir, walDir := t.TempDir(), t.TempDir()
				dir, err := persist.NewDirStore(storeDir)
				if err != nil {
					t.Fatal(err)
				}
				ws, _, err := wal.OpenStore(dir, walDir, wal.StoreConfig{})
				if err != nil {
					t.Fatal(err)
				}
				if err := ws.Put(ctx, "s", genesis); err != nil {
					t.Fatal(err)
				}
				// Rounds 1-2 commit cleanly; the crash hits rounds 3-4.
				if err := ws.AppendRounds(ctx, []*persist.RoundDelta{walDelta("s", 1), walDelta("s", 2)}); err != nil {
					t.Fatal(err)
				}
				err = faulty.CrashAppend(ctx, ws, []*persist.RoundDelta{walDelta("s", 3), walDelta("s", 4)}, step, keep)
				if !errors.Is(err, faulty.ErrInjected) {
					t.Fatalf("CrashAppend error = %v, want ErrInjected", err)
				}
				// The log is as dead as the process; appends fail until reopen.
				if err := ws.AppendRounds(ctx, []*persist.RoundDelta{walDelta("s", 5)}); err == nil {
					t.Fatal("append on a crashed log succeeded")
				}
				if err := ws.Close(); err != nil {
					t.Fatal(err)
				}

				// The restart: fresh store handles over the same directories.
				dir2, err := persist.NewDirStore(storeDir)
				if err != nil {
					t.Fatal(err)
				}
				ws2, rec, err := wal.OpenStore(dir2, walDir, wal.StoreConfig{})
				if err != nil {
					t.Fatalf("reopen after crash at %s: %v", step, err)
				}
				defer ws2.Close()
				snap, err := ws2.Get(ctx, "s")
				if err != nil {
					t.Fatalf("Get after crash at %s: %v", step, err)
				}
				// Genesis holds 1 round; rounds 1-2 committed, 3-4 crashed:
				// old is 2 appended rounds, new is 4, anything between is a
				// torn-tail prefix.
				survived := checkWalPrefix(t, snap, len(genesis.History), 4)
				if survived < 2 {
					t.Fatalf("%d appended rounds survived; the 2 committed before the crash must", survived)
				}
				switch step {
				case wal.StepAppendWrite:
					if survived != 2 {
						t.Fatalf("crash before the write left %d appended rounds, want exactly the 2 committed", survived)
					}
				case wal.StepAppendAck:
					// fsync completed: durable even though every caller saw failure.
					if survived != 4 {
						t.Fatalf("crash after fsync left %d appended rounds, want all 4", survived)
					}
				}
				// The reopened log takes appends again, continuing from the
				// recovered frontier.
				next := len(snap.History)
				if err := ws2.AppendRounds(ctx, []*persist.RoundDelta{walDelta("s", next)}); err != nil {
					t.Fatalf("append after recovery: %v", err)
				}
				_ = rec
			})
		}
	}
}

// TestCrashPointPropertyWalReplicated lifts the WAL crash property to
// the quorum store: three WAL-backed replicas, the crash interrupting
// one replica's group commit after any prefix of its peers already
// committed the same rounds. The reopened MultiStore's Get must serve
// genesis + a gapless prefix — with any fully-committed replica making
// the full run win — and a reconciling Scan must converge every replica
// onto that answer.
func TestCrashPointPropertyWalReplicated(t *testing.T) {
	ctx := context.Background()
	genesis, _ := snapshotPair(t)
	const replicas = 3
	appendBatch := func() []*persist.RoundDelta {
		return []*persist.RoundDelta{walDelta("s", 1), walDelta("s", 2)}
	}

	for crashed := 0; crashed < replicas; crashed++ {
		for _, step := range wal.AppendSteps() {
			for _, keep := range []float64{0, 0.5, 1} {
				t.Run(fmt.Sprintf("replica=%d/%s/keep=%.1f", crashed, step, keep), func(t *testing.T) {
					storeDirs := make([]string, replicas)
					walDirs := make([]string, replicas)
					stores := make([]*wal.Store, replicas)
					for i := range stores {
						storeDirs[i], walDirs[i] = t.TempDir(), t.TempDir()
						dir, err := persist.NewDirStore(storeDirs[i])
						if err != nil {
							t.Fatal(err)
						}
						ws, _, err := wal.OpenStore(dir, walDirs[i], wal.StoreConfig{})
						if err != nil {
							t.Fatal(err)
						}
						if err := ws.Put(ctx, "s", genesis); err != nil {
							t.Fatal(err)
						}
						stores[i] = ws
					}
					// Replicas 0..crashed-1 committed the append in full before
					// the crash caught replica `crashed` mid-commit; the rest
					// were never reached.
					for i := 0; i < crashed; i++ {
						if err := stores[i].AppendRounds(ctx, appendBatch()); err != nil {
							t.Fatal(err)
						}
					}
					err := faulty.CrashAppend(ctx, stores[crashed], appendBatch(), step, keep)
					if !errors.Is(err, faulty.ErrInjected) {
						t.Fatalf("CrashAppend error = %v, want ErrInjected", err)
					}
					for _, ws := range stores {
						if err := ws.Close(); err != nil {
							t.Fatal(err)
						}
					}

					// Restart: reopen every replica, rebuild the quorum store.
					reopened := make([]persist.Store, replicas)
					walStores := make([]*wal.Store, replicas)
					for i := range reopened {
						dir, err := persist.NewDirStore(storeDirs[i])
						if err != nil {
							t.Fatal(err)
						}
						ws, _, err := wal.OpenStore(dir, walDirs[i], wal.StoreConfig{})
						if err != nil {
							t.Fatalf("replica %d reopen: %v", i, err)
						}
						defer ws.Close()
						reopened[i] = ws
						walStores[i] = ws
					}
					ms, err := persist.NewMultiStore(reopened, 2)
					if err != nil {
						t.Fatal(err)
					}
					if persist.AppenderOf(ms) == nil {
						t.Fatal("a quorum of WAL replicas must advertise round appends")
					}
					snap, err := ms.Get(ctx, "s")
					if err != nil {
						t.Fatalf("quorum Get after crash: %v", err)
					}
					survived := checkWalPrefix(t, snap, len(genesis.History), 2)
					if crashed > 0 && survived != 2 {
						t.Fatalf("a fully-committed replica exists but the quorum read has %d of 2 appended rounds", survived)
					}
					if step == wal.StepAppendAck && survived != 2 {
						t.Fatalf("crash after fsync: quorum read has %d of 2 durable rounds", survived)
					}
					want := len(snap.History)

					// Scan reconciles: every replica converges on the winner.
					if _, err := ms.Scan(ctx); err != nil {
						t.Fatalf("Scan: %v", err)
					}
					for i, ws := range walStores {
						got, err := ws.Get(ctx, "s")
						if err != nil {
							t.Fatalf("replica %d after scan: %v", i, err)
						}
						if len(got.History) != want {
							t.Fatalf("replica %d has %d rounds after scan, winner has %d", i, len(got.History), want)
						}
					}
				})
			}
		}
	}
}

// TestFaultWalTornAppendInjection exercises the faulty wrapper's
// TornAppends mode end-to-end: an injected append failure becomes a
// simulated crash that poisons the log — dead until the directory is
// reopened, exactly like the process dying — while plain (transient)
// injection leaves the log healthy for the caller's retry.
func TestFaultWalTornAppendInjection(t *testing.T) {
	ctx := context.Background()
	genesis, _ := snapshotPair(t)

	t.Run("torn", func(t *testing.T) {
		walDir := t.TempDir()
		ws, _, err := wal.OpenStore(persist.NewMemStore(), walDir, wal.StoreConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if err := ws.Put(ctx, "s", genesis); err != nil {
			t.Fatal(err)
		}
		fs := faulty.Wrap(ws, faulty.Config{Seed: 7, FailRate: 1, TornAppends: true})
		if persist.AppenderOf(fs) == nil {
			t.Fatal("faulty over a WAL store must forward the append capability")
		}
		err = fs.AppendRounds(ctx, []*persist.RoundDelta{walDelta("s", 1)})
		if !errors.Is(err, faulty.ErrInjected) {
			t.Fatalf("AppendRounds under TornAppends = %v, want ErrInjected", err)
		}
		if ws.Log().Broken() == nil {
			t.Fatal("a torn append must poison the log")
		}
		// Clearing faults does not resurrect a crashed log — only a reopen
		// models the restart.
		fs.ClearFaults()
		if err := fs.AppendRounds(ctx, []*persist.RoundDelta{walDelta("s", 1)}); err == nil {
			t.Fatal("append on a poisoned log succeeded")
		}
		if err := ws.Close(); err != nil {
			t.Fatal(err)
		}
		ws2, rec, err := wal.OpenStore(persist.NewMemStore(), walDir, wal.StoreConfig{})
		if err != nil {
			t.Fatalf("reopen after torn append: %v", err)
		}
		defer ws2.Close()
		if rec.TruncatedBytes < 0 {
			t.Fatalf("TruncatedBytes = %d", rec.TruncatedBytes)
		}
	})

	t.Run("transient", func(t *testing.T) {
		ws, _, err := wal.OpenStore(persist.NewMemStore(), t.TempDir(), wal.StoreConfig{})
		if err != nil {
			t.Fatal(err)
		}
		defer ws.Close()
		if err := ws.Put(ctx, "s", genesis); err != nil {
			t.Fatal(err)
		}
		fs := faulty.Wrap(ws, faulty.Config{Seed: 7, FailRate: 1})
		err = fs.AppendRounds(ctx, []*persist.RoundDelta{walDelta("s", 1)})
		if !errors.Is(err, faulty.ErrInjected) {
			t.Fatalf("AppendRounds = %v, want ErrInjected", err)
		}
		if ws.Log().Broken() != nil {
			t.Fatal("a plain injected failure must not poison the log")
		}
		if ops, injected := fs.Stats(); ops == 0 || injected == 0 {
			t.Fatalf("Stats = (%d ops, %d injected), want the append counted", ops, injected)
		}
		fs.SetFailRate(0)
		if err := fs.AppendRounds(ctx, []*persist.RoundDelta{walDelta("s", 1)}); err != nil {
			t.Fatalf("retry after faults cleared: %v", err)
		}
	})
}
