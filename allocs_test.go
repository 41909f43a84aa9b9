package exptrain

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"testing"

	"exptrain/internal/belief"
	"exptrain/internal/datagen"
	"exptrain/internal/dataset"
	"exptrain/internal/fd"
	"exptrain/internal/game"
	"exptrain/internal/persist"
	"exptrain/internal/persist/wal"
	"exptrain/internal/sampling"
	"exptrain/internal/service"
)

// maxAllocsPerRound is the regression ceiling for one warm session
// round (Next + Submit) at the service's default shape. The measured
// steady state is ~15 allocations (labeling slices retained in records,
// plus map growth amortization); before the incremental-PLI and
// scratch-reuse work it was ~2900. The ceiling is deliberately loose —
// it exists to catch a return to per-round partition rebuilding or
// per-call scoring-buffer churn, not to pin the exact count.
const maxAllocsPerRound = 200

// maxResidentSessionBytes caps the live heap one resident
// OMDB-240 session holds after 48 rounds over the service-default
// 147-hypothesis space — relation, pool and its agree-set class table,
// beliefs and trajectory (~229 KB measured). A per-pair violation memo
// held ~2.2 MiB, a pool paying 28 bytes per position (a dataset.Pair, a
// position list, a class id per position) ~433 KiB, and second copies
// of the session's facts — the learner's per-pair label map and the
// relation's string tuples beside its codes — ~306 KB.
const maxResidentSessionBytes = 272 << 10

// maxResidentWalSessionBytes caps the live heap one resident session
// of etperf's durable shape holds when its store is a write-ahead log:
// OMDB-24, K = 2 and the service's 147-hypothesis space after 40 rounds
// — the session and its manager entry, the only in-memory copy of its
// rounds (~32 KB measured). The store's second copy of the rounds since
// the last checkpoint, a tail of round deltas holding the newest
// learner's belief, held ~46 KB; a second per-round copy of the
// rendered round views and a five-event trace per round ~68 KB, every
// delta in that tail keeping its own 147-Beta copy ~181 KB, and the
// learner's per-pair label map with the relation's string tuples
// ~55 KB.
const maxResidentWalSessionBytes = 40 << 10

// serviceSpace is the hypothesis space the session service builds by
// default: every FD with at most two LHS attributes (147 over OMDB's
// seven attributes).
func serviceSpace(tb testing.TB, ds *datagen.Dataset) *fd.Space {
	tb.Helper()
	fds, err := fd.Enumerate(fd.SpaceConfig{Arity: ds.Rel.Schema().Arity(), MaxLHS: 2})
	if err != nil {
		tb.Fatal(err)
	}
	space, err := fd.NewSpace(fds)
	if err != nil {
		tb.Fatal(err)
	}
	return space
}

// liveHeap is the live heap after collections.
func liveHeap() uint64 {
	var ms runtime.MemStats
	// Two collections: the first moves sync.Pool contents (such as
	// encoding/json's encoder buffers) to the victim cache, the second
	// frees them, so the reading does not depend on when a GC last ran.
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// playRound presents one round and submits it labeled clean.
func playRound(sess *game.Session) error {
	pairs, err := sess.Next()
	if err != nil {
		return err
	}
	labeled := make([]belief.Labeling, len(pairs))
	for j, p := range pairs {
		labeled[j] = belief.Labeling{Pair: p}
	}
	return sess.Submit(labeled)
}

// TestSessionRoundAllocations pins the steady-state allocation count of
// the interactive round hot path, over the paper's 38-FD space and the
// service's 147-FD one (masks of more than one word).
func TestSessionRoundAllocations(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement is not meaningful with -short races")
	}
	ds := datagen.OMDB(240, 1)
	for _, space := range []*fd.Space{ds.Space(3, 38), serviceSpace(t, ds)} {
		t.Run(fmt.Sprintf("space=%d", space.Size()), func(t *testing.T) {
			sess, err := game.NewSession(game.SessionConfig{
				Relation: ds.Rel,
				Space:    space,
				Sampler:  sampling.StochasticUS{},
				K:        10,
				Seed:     1,
			})
			if err != nil {
				t.Fatal(err)
			}
			// Warm the caches: the first rounds pay one-time pool and
			// scratch growth that the steady state never repeats.
			for i := 0; i < 5; i++ {
				if err := playRound(sess); err != nil {
					t.Fatal(err)
				}
			}
			var roundErr error
			avg := testing.AllocsPerRun(20, func() {
				if err := playRound(sess); err != nil && roundErr == nil {
					roundErr = err
				}
			})
			if roundErr != nil {
				t.Fatal(roundErr)
			}
			if avg > maxAllocsPerRound {
				t.Fatalf("steady-state session round allocates %.0f objects/round, ceiling %d — the hot path regressed",
					avg, maxAllocsPerRound)
			}
			t.Logf("steady-state allocations per round: %.1f (ceiling %d)", avg, maxAllocsPerRound)
		})
	}
}

// TestResidentSessionHeap pins the memory a resident session holds at
// the service shape: 8 OMDB-240 sessions over the 147-hypothesis space
// play 48 rounds each, and the collected live heap they add, per
// session, must stay under maxResidentSessionBytes.
func TestResidentSessionHeap(t *testing.T) {
	if testing.Short() {
		t.Skip("heap measurement is not meaningful with -short races")
	}
	const sessions, rounds = 8, 48
	before := liveHeap()
	resident := make([]*game.Session, sessions)
	for i := range resident {
		ds := datagen.OMDB(240, uint64(i+1))
		sess, err := game.NewSession(game.SessionConfig{
			Relation: ds.Rel,
			Space:    serviceSpace(t, ds),
			Sampler:  sampling.StochasticUS{},
			K:        10,
			Seed:     uint64(i + 1),
		})
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < rounds; r++ {
			if err := playRound(sess); err != nil {
				t.Fatal(err)
			}
		}
		resident[i] = sess
	}
	after := liveHeap()
	runtime.KeepAlive(resident)
	per := (float64(after) - float64(before)) / sessions
	if per > maxResidentSessionBytes {
		t.Fatalf("a resident session holds %.0f bytes of live heap, ceiling %d", per, maxResidentSessionBytes)
	}
	t.Logf("live heap per resident session: %.0f bytes (ceiling %d)", per, maxResidentSessionBytes)
}

// TestResidentWalSessionHeap pins the memory a resident session holds
// on the durability path every configured store runs: 8 sessions of
// etperf's durable shape play 40 rounds each through a Manager over a
// write-ahead log on disk, and the collected live heap they add, per
// session, must stay under maxResidentWalSessionBytes. No session
// reaches its next checkpoint (every 64 rounds), so every round it
// played is in the log and in the session alone.
func TestResidentWalSessionHeap(t *testing.T) {
	if testing.Short() {
		t.Skip("heap measurement is not meaningful with -short races")
	}
	const sessions, rounds = 8, 40
	ctx := context.Background()
	dir := t.TempDir()
	snaps, err := persist.NewDirStore(filepath.Join(dir, "snapshots"))
	if err != nil {
		t.Fatal(err)
	}
	store, _, err := wal.OpenStore(snaps, filepath.Join(dir, "wal"), wal.StoreConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	m := service.NewManager(service.Options{Store: store})
	play := func(seed uint64, rounds int) string {
		info, err := m.Create(ctx, service.Spec{
			Source: service.Source{Dataset: "OMDB", Rows: 24, Seed: seed},
			Method: sampling.MethodStochasticUS,
			K:      2,
			Seed:   seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		if info.Space != 147 {
			t.Fatalf("session space has %d hypotheses, want the service's 147", info.Space)
		}
		for r := 0; r < rounds; r++ {
			pairs, err := m.Next(ctx, info.ID)
			if err != nil {
				t.Fatal(err)
			}
			labeled := make([]belief.Labeling, len(pairs))
			for j, p := range pairs {
				labeled[j] = belief.Labeling{Pair: dataset.NewPair(p.A, p.B)}
			}
			if _, err := m.Submit(ctx, info.ID, r, labeled); err != nil {
				t.Fatal(err)
			}
		}
		return info.ID
	}
	// The first session in the process builds state every later one
	// shares: encoding/json's per-type encoder cache for snapshots and
	// log records, and the crc32 slicing table their checksums use. A
	// throwaway session, played and parked, builds it before the
	// baseline read.
	if err := m.Evict(ctx, play(sessions+1, 2)); err != nil {
		t.Fatal(err)
	}
	before := liveHeap()
	for i := 0; i < sessions; i++ {
		play(uint64(i+1), rounds)
	}
	after := liveHeap()
	runtime.KeepAlive(m)
	if st, _ := store.WalStats(); st.CompactionLag != sessions*rounds {
		t.Fatalf("the log holds %d rounds past the sessions' checkpoints, want all %d", st.CompactionLag, sessions*rounds)
	}
	per := (float64(after) - float64(before)) / sessions
	if per > maxResidentWalSessionBytes {
		t.Fatalf("a resident WAL-backed session holds %.0f bytes of live heap, ceiling %d", per, maxResidentWalSessionBytes)
	}
	t.Logf("live heap per resident WAL-backed session: %.0f bytes (ceiling %d)", per, maxResidentWalSessionBytes)
	if err := m.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
}
