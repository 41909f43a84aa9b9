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
	"exptrain/internal/persist/wal"
)

// walFingerprint captures a session's full trajectory — per-round
// measurements plus the learner's top beliefs, floats in %x — for
// bit-exact parity checks between recovered and uninterrupted runs.
func walFingerprint(ctx context.Context, m *Manager, id string) (out []string, err error) {
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

// walPlayRound advances one session by a full next+submit round,
// labeling every presented pair.
func walPlayRound(ctx context.Context, m *Manager, id string) error {
	pairs, err := m.Next(ctx, id)
	if err != nil {
		return err
	}
	labeled := make([]belief.Labeling, len(pairs))
	for i, p := range pairs {
		labeled[i] = belief.Labeling{Pair: dataset.NewPair(p.A, p.B)}
	}
	info, err := m.Get(ctx, id) // Rounds is the round being played, live or parked
	if err != nil {
		return err
	}
	_, err = m.Submit(ctx, id, info.Rounds, labeled)
	return err
}

// TestManagerWalSubmitDurability is the service-level WAL contract: a
// submit that acked is durable via genesis snapshot + appended round
// deltas alone — no per-round snapshots — and a session recovered from
// the reopened store resumes draw-exact: its continued trajectory is
// bit-identical to a run that never crashed.
func TestManagerWalSubmitDurability(t *testing.T) {
	ctx := context.Background()
	storeDir, walDir := t.TempDir(), t.TempDir()
	const rounds = 3

	dir, err := persist.NewDirStore(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	ws, _, err := wal.OpenStore(dir, walDir, wal.StoreConfig{})
	if err != nil {
		t.Fatal(err)
	}
	m := NewManager(Options{Store: ws})
	info, err := m.Create(ctx, datasetSpec(5))
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < rounds; r++ {
		if err := walPlayRound(ctx, m, info.ID); err != nil {
			t.Fatalf("round %d: %v", r, err)
		}
	}
	h := m.Health()
	if h.Wal == nil {
		t.Fatal("Health over a WAL store must report wal counters")
	}
	if h.Wal.Appended != rounds {
		t.Fatalf("wal.Appended = %d, want %d", h.Wal.Appended, rounds)
	}
	if h.WalPending != 0 {
		t.Fatalf("%d pending wal rounds after acked submits", h.WalPending)
	}
	if h.WalAppended != rounds {
		t.Fatalf("WalAppended = %d, want %d", h.WalAppended, rounds)
	}
	// The inner snapshot is still the genesis: submits never paid a
	// snapshot rewrite.
	base, err := dir.Get(ctx, info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(base.History) != 0 {
		t.Fatalf("genesis snapshot has %d rounds; submits rewrote it", len(base.History))
	}

	// The crash: the process dies without Shutdown — no parting
	// checkpoints. Only the genesis snapshot and the log survive.
	if err := ws.Close(); err != nil {
		t.Fatal(err)
	}

	dir2, err := persist.NewDirStore(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	ws2, rec, err := wal.OpenStore(dir2, walDir, wal.StoreConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer ws2.Close()
	if len(rec.Deltas) != rounds {
		t.Fatalf("recovery replayed %d deltas, want %d", len(rec.Deltas), rounds)
	}
	snap, err := ws2.Get(ctx, info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.History) != rounds {
		t.Fatalf("recovered session has %d rounds, want %d — an acked submit was lost", len(snap.History), rounds)
	}

	// Draw-exactness: resume the recovered session, play one more round,
	// and demand bit-identical parity with an uninterrupted reference.
	m2 := NewManager(Options{Store: ws2})
	resumed, err := m2.Resume(ctx, info.ID, datasetSpec(5))
	if err != nil {
		t.Fatal(err)
	}
	if err := walPlayRound(ctx, m2, resumed.ID); err != nil {
		t.Fatal(err)
	}
	got, err := walFingerprint(ctx, m2, resumed.ID)
	if err != nil {
		t.Fatal(err)
	}

	ref := NewManager(Options{})
	refInfo, err := ref.Create(ctx, datasetSpec(5))
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < rounds+1; r++ {
		if err := walPlayRound(ctx, ref, refInfo.ID); err != nil {
			t.Fatal(err)
		}
	}
	want, err := walFingerprint(ctx, ref, refInfo.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("fingerprint length %d, reference %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("recovered session diverges from the uninterrupted reference at line %d:\nrecovered: %s\nreference: %s",
				i, got[i], want[i])
		}
	}
}

// TestManagerWalCheckpointEvery: a session's rounds are appended until
// it is checkpointEvery rounds past its last checkpoint; the flush that
// gets there lands a full snapshot instead of an append, and the log
// then drops every sealed segment behind it. The store reads only the
// snapshots: between checkpoints it answers the base.
func TestManagerWalCheckpointEvery(t *testing.T) {
	ctx := context.Background()
	dir, err := persist.NewDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ws, _, err := wal.OpenStore(dir, t.TempDir(), wal.StoreConfig{Wal: wal.Config{MaxSegmentBytes: 4 << 10}})
	if err != nil {
		t.Fatal(err)
	}
	defer ws.Close()
	m := NewManager(Options{Store: ws})
	info, err := m.Create(ctx, datasetSpec(7))
	if err != nil {
		t.Fatal(err)
	}
	for r := 1; r <= checkpointEvery+1; r++ {
		if err := walPlayRound(ctx, m, info.ID); err != nil {
			t.Fatalf("round %d: %v", r, err)
		}
		snap, err := ws.Get(ctx, info.ID)
		if err != nil {
			t.Fatal(err)
		}
		st, _ := ws.WalStats()
		stored, lag, appended := 0, r, r
		if r >= checkpointEvery {
			stored, lag, appended = checkpointEvery, r-checkpointEvery, r-1
		}
		if len(snap.History) != stored || st.CompactionLag != lag || st.Appended != uint64(appended) {
			t.Fatalf("after round %d: stored %d rounds, lag %d, %d appended; want %d, %d and %d",
				r, len(snap.History), st.CompactionLag, st.Appended, stored, lag, appended)
		}
		if r == checkpointEvery-1 && st.Segments < 2 {
			t.Fatalf("before the checkpoint: %d segments, want sealed ones for it to drop", st.Segments)
		}
		if r == checkpointEvery && st.Segments != 1 {
			t.Fatalf("after the checkpoint: %d segments, want the active one only", st.Segments)
		}
	}
}

// TestManagerWalGroupCommit is the group-commit claim on the stack
// `etserve -store` serves from — a Manager over a WAL store over a
// directory store, default configuration: submits that queue while an
// fsync is in flight share the next one. The first submit's commit is
// held at its fsync until every other session's submit has queued
// behind it, so the n submits cost exactly two fsyncs, the second one
// carrying n−1 round records. A committer that fsyncs each request on
// its own takes n.
func TestManagerWalGroupCommit(t *testing.T) {
	const n = 8
	ctx := context.Background()
	dir, err := persist.NewDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ws, _, err := wal.OpenStore(dir, t.TempDir(), wal.StoreConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer ws.Close()
	m := NewManager(Options{Store: ws})
	ids := make([]string, n)
	for i := range ids {
		info, err := m.Create(ctx, datasetSpec(uint64(i+1)))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Next(ctx, info.ID); err != nil {
			t.Fatal(err)
		}
		ids[i] = info.ID
	}

	// Hold the first commit between its write and its fsync.
	held, release := make(chan struct{}), make(chan struct{})
	var first sync.Once
	ws.Log().SetCrashHook(func(step wal.AppendStep, _ string, _, _ int64) error {
		if step == wal.StepAppendSync {
			first.Do(func() {
				close(held)
				<-release
			})
		}
		return nil
	})
	before := ws.Log().Stats().Fsyncs

	var wg sync.WaitGroup
	errs := make(chan error, n)
	submit := func(id string) {
		defer wg.Done()
		if _, err := m.Submit(ctx, id, 0, nil); err != nil {
			errs <- fmt.Errorf("submit %s: %w", id, err)
		}
	}
	wg.Add(1)
	go submit(ids[0])
	<-held
	for _, id := range ids[1:] {
		wg.Add(1)
		go submit(id)
	}
	deadline := time.Now().Add(10 * time.Second)
	for ws.Log().Stats().Unflushed < n-1 {
		select {
		case err := <-errs:
			close(release)
			t.Fatal(err)
		default:
		}
		if time.Now().After(deadline) {
			close(release)
			t.Fatalf("%d of %d submits queued behind the held fsync after 10s", ws.Log().Stats().Unflushed, n-1)
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	st := ws.Log().Stats()
	if got := st.Fsyncs - before; got != 2 {
		t.Fatalf("%d submits took %d fsyncs, want 2: the queued submits did not share one", n, got)
	}
	if st.BatchRecords != n-1 {
		t.Fatalf("last batch held %d records, want %d", st.BatchRecords, n-1)
	}
}

// TestManagerRestartNeverReusesID: a process that reopens the store
// mints ids past every stored one. A second process's new session must
// neither overwrite the first process's session of the same id nor
// append rounds below that session's WAL watermark, where a store read
// never finds them.
func TestManagerRestartNeverReusesID(t *testing.T) {
	ctx := context.Background()
	storeDir, walDir := t.TempDir(), t.TempDir()
	open := func() *wal.Store {
		t.Helper()
		dir, err := persist.NewDirStore(storeDir)
		if err != nil {
			t.Fatal(err)
		}
		ws, _, err := wal.OpenStore(dir, walDir, wal.StoreConfig{})
		if err != nil {
			t.Fatal(err)
		}
		return ws
	}

	ws := open()
	m := NewManager(Options{Store: ws})
	old, err := m.Create(ctx, datasetSpec(5))
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 3; r++ {
		if err := walPlayRound(ctx, m, old.ID); err != nil {
			t.Fatalf("round %d: %v", r, err)
		}
	}
	if err := m.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if err := ws.Close(); err != nil {
		t.Fatal(err)
	}

	ws = open()
	m = NewManager(Options{Store: ws})
	fresh, err := m.Create(ctx, datasetSpec(6))
	if err != nil {
		t.Fatal(err)
	}
	if fresh.ID == old.ID {
		t.Fatalf("new session reuses the stored id %s", old.ID)
	}
	for r := 0; r < 2; r++ {
		if err := walPlayRound(ctx, m, fresh.ID); err != nil {
			t.Fatalf("round %d: %v", r, err)
		}
	}
	resumed, err := m.Resume(ctx, old.ID, datasetSpec(5))
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Rounds != 3 {
		t.Fatalf("resumed %s with %d rounds, want 3", old.ID, resumed.Rounds)
	}
	// The crash: the acked rounds are in the log, which a reopen replays.
	if err := ws.Close(); err != nil {
		t.Fatal(err)
	}
	ws = open()
	defer ws.Close()
	snap, err := ws.Get(ctx, fresh.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.History) != 2 {
		t.Fatalf("store reads %d rounds of %s, want the 2 it acked", len(snap.History), fresh.ID)
	}
}

// TestManagerNoAppendBeforeBase: while a session's base snapshot has not
// landed, its rounds must not reach the log — a delta with no snapshot
// under it is unreadable after a crash and pins compaction lag forever.
// They wait in memory, the session degraded, until a flush lands a full
// snapshot carrying all of them.
func TestManagerNoAppendBeforeBase(t *testing.T) {
	ctx := context.Background()
	storeDir, walDir := t.TempDir(), t.TempDir()
	dir, err := persist.NewDirStore(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	ws, _, err := wal.OpenStore(dir, walDir, wal.StoreConfig{})
	if err != nil {
		t.Fatal(err)
	}
	fs := faulty.Wrap(ws, faulty.Config{Seed: 3, FailRate: 1, Ops: []faulty.Op{faulty.OpPut}})
	m := NewManager(Options{Store: fs, Retry: RetryPolicy{MaxAttempts: 1}})
	info, err := m.Create(ctx, testSpec())
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 2; r++ {
		if err := walPlayRound(ctx, m, info.ID); err != nil {
			t.Fatalf("round %d: %v", r, err)
		}
	}
	h := m.Health()
	if h.Wal == nil || h.Wal.Appended != 0 {
		t.Fatalf("Health.Wal = %+v, want 0 appended records before the base snapshot", h.Wal)
	}
	if got := h.WalPending; got != 2 {
		t.Fatalf("WalPending = %d, want 2 rounds held in memory", got)
	}
	if got, err := m.Get(ctx, info.ID); err != nil || !got.Degraded {
		t.Fatalf("Get = %+v, %v; want a degraded session", got, err)
	}

	fs.ClearFaults()
	if err := walPlayRound(ctx, m, info.ID); err != nil {
		t.Fatal(err)
	}
	base, err := dir.Get(ctx, info.ID)
	if err != nil {
		t.Fatalf("base snapshot missing after the store healed: %v", err)
	}
	if len(base.History) != 3 {
		t.Fatalf("base snapshot has %d rounds, want 3", len(base.History))
	}
	if got, err := m.Get(ctx, info.ID); err != nil || got.Degraded {
		t.Fatalf("Get = %+v, %v; want the degraded mark cleared", got, err)
	}

	// Crash and reopen: the log holds nothing the snapshot lacks.
	if err := ws.Close(); err != nil {
		t.Fatal(err)
	}
	dir2, err := persist.NewDirStore(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	ws2, _, err := wal.OpenStore(dir2, walDir, wal.StoreConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer ws2.Close()
	snap, err := ws2.Get(ctx, info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.History) != 3 {
		t.Fatalf("recovered %d rounds, want 3", len(snap.History))
	}
	if st, _ := ws2.WalStats(); st.CompactionLag != 0 {
		t.Fatalf("CompactionLag = %d after reopen, want 0", st.CompactionLag)
	}
}

// TestChaosWalReplicaLoss is the WAL acceptance chaos test: a manager
// whose durability runs through a 3-replica quorum of WAL-backed
// stores — every operation flaky at 30%, one replica killed for good
// mid-run — must serve a 64-session concurrent workload and lose zero
// submitted rounds across a simulated process crash: the final phase's
// rounds are covered by group-committed appends only (no snapshots),
// and recovery is genesis + replay through the reopened quorum. Run
// under -race (make chaos); ET_CHAOS=1 deepens the workload.
func TestChaosWalReplicaLoss(t *testing.T) {
	sessions, workers := 64, 32
	phase1, phase2 := 2, 2
	if os.Getenv("ET_CHAOS") != "" {
		// Deepen by fleet size, not rounds: the tiny CSV fixture's
		// candidate pool supports exactly phase1+phase2 rounds.
		sessions = 128
	}
	const chaosSeed = 2027
	ctx := context.Background()

	storeDirs := make([]string, 3)
	walDirs := make([]string, 3)
	walStores := make([]*wal.Store, 3)
	replicas := make([]*faulty.Store, 3)
	stores := make([]persist.Store, 3)
	for i := range replicas {
		storeDirs[i], walDirs[i] = t.TempDir(), t.TempDir()
		dir, err := persist.NewDirStore(storeDirs[i])
		if err != nil {
			t.Fatal(err)
		}
		ws, _, err := wal.OpenStore(dir, walDirs[i], wal.StoreConfig{})
		if err != nil {
			t.Fatal(err)
		}
		walStores[i] = ws
		replicas[i] = faulty.Wrap(ws, faulty.Config{Seed: chaosSeed + uint64(i), FailRate: 0.3})
		stores[i] = replicas[i]
	}
	ms, err := persist.NewMultiStore(stores, 2)
	if err != nil {
		t.Fatal(err)
	}
	if persist.AppenderOf(ms) == nil {
		t.Fatal("a quorum of WAL replicas must advertise round appends")
	}
	m := NewManager(Options{
		MaxSessions: 16, // constant park/unpark churn across 64 sessions
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

	// Replica 0 dies for good halfway through phase 1.
	var submitted atomic.Int64
	var killOnce sync.Once
	kill := int64(sessions*phase1) / 2

	ids := make([]string, sessions)
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
					info, err = m.Create(ctx, testSpec())
					return err
				}); err != nil {
					errCh <- fmt.Errorf("session %d create: %w", sess, err)
					return
				}
				ids[sess] = info.ID
				for round := 0; round < phase1; round++ {
					for {
						err := retry(func() error { return walPlayRound(ctx, m, info.ID) })
						if errors.Is(err, game.ErrNoRoundPending) {
							continue // eviction discarded the pending round; re-present
						}
						if err != nil {
							errCh <- fmt.Errorf("session %d round %d: %w", sess, round, err)
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

	// The surviving replicas heal; replica 0 stays dead. Every session
	// checkpoints once through the bare quorum — healing any degraded
	// mark and setting the compaction watermark — and then phase 2 rides
	// the WAL alone: the rounds below are durable only as appends.
	replicas[1].ClearFaults()
	replicas[2].ClearFaults()
	for sess, id := range ids {
		if err := retry(func() (err error) {
			_, err = m.Snapshot(ctx, id)
			return err
		}); err != nil {
			t.Fatalf("session %d heal checkpoint: %v", sess, err)
		}
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; k < perWorker; k++ {
				sess := w*perWorker + k
				for round := 0; round < phase2; round++ {
					for {
						err := retry(func() error { return walPlayRound(ctx, m, ids[sess]) })
						if errors.Is(err, game.ErrNoRoundPending) {
							continue
						}
						if err != nil {
							errCh <- fmt.Errorf("session %d phase-2 round %d: %w", sess, round, err)
							return
						}
						break
					}
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
	h := m.Health()
	if h.Degraded != 0 {
		t.Fatalf("Health after faults cleared = %+v, want no degraded sessions", h)
	}
	if h.Wal == nil || h.Wal.Appended == 0 {
		t.Fatalf("Health.Wal = %+v, want non-zero appended records across the quorum", h.Wal)
	}

	// The crash: no Shutdown, no parting checkpoints — the logs and the
	// last snapshots are all that survive the process.
	for _, ws := range walStores {
		if err := ws.Close(); err != nil {
			t.Fatal(err)
		}
	}

	// Recovery: reopen every replica, reconcile the quorum, and demand
	// every submitted round back — phase 2's exist nowhere but the WAL,
	// and replica 0 has been dead since mid-phase-1.
	reopened := make([]persist.Store, 3)
	walReopened := make([]*wal.Store, 3)
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
		walReopened[i] = ws
	}
	ms2, err := persist.NewMultiStore(reopened, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ms2.Scan(ctx); err != nil {
		t.Fatalf("reconciling scan: %v", err)
	}
	total := phase1 + phase2
	for sess, id := range ids {
		snap, err := ms2.Get(ctx, id)
		if err != nil {
			t.Fatalf("session %d: %s unreadable after crash recovery: %v", sess, id, err)
		}
		if got := len(snap.History); got != total {
			t.Fatalf("session %d: recovered %d rounds, want %d — a submitted round was lost", sess, got, total)
		}
	}
	// And the reconciling scan converged the dead replica too: after
	// repair, every replica alone carries every session in full.
	for i, ws := range walReopened {
		for sess, id := range ids {
			snap, err := ws.Get(ctx, id)
			if err != nil {
				t.Fatalf("replica %d session %d after scan: %v", i, sess, err)
			}
			if got := len(snap.History); got != total {
				t.Fatalf("replica %d session %d has %d rounds after scan, want %d", i, sess, got, total)
			}
		}
	}
}
