package service

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"exptrain/internal/belief"
	"exptrain/internal/dataset"
	"exptrain/internal/fd"
	"exptrain/internal/persist"
	"exptrain/internal/persist/faulty"
	"exptrain/internal/persist/wal"
)

// waitTicket polls a ticket until it leaves the queued state.
func waitTicket(t *testing.T, m *Manager, id, ticketID string) Ticket {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		tk, err := m.Ticket(context.Background(), id, ticketID)
		if err != nil {
			t.Fatalf("Ticket(%s, %s): %v", id, ticketID, err)
		}
		if tk.State != TicketQueued {
			return tk
		}
		if time.Now().After(deadline) {
			t.Fatalf("ticket %s still queued after 10s", ticketID)
		}
		time.Sleep(time.Millisecond)
	}
}

// abstainWindow builds label-free submissions for rounds [from, to).
func abstainWindow(from, to int) []Submission {
	subs := make([]Submission, 0, to-from)
	for r := from; r < to; r++ {
		subs = append(subs, Submission{Round: r})
	}
	return subs
}

func TestLabelpoolEnqueueLifecycle(t *testing.T) {
	m := NewManager(Options{})
	ctx := context.Background()
	info, err := m.Create(ctx, testSpec())
	if err != nil {
		t.Fatal(err)
	}

	tickets, err := m.EnqueueSubmissions(ctx, info.ID, abstainWindow(0, 4))
	if err != nil {
		t.Fatal(err)
	}
	if len(tickets) != 4 {
		t.Fatalf("got %d tickets, want 4", len(tickets))
	}
	for i, tk := range tickets {
		if tk.Round != i {
			t.Fatalf("ticket %d targets round %d", i, tk.Round)
		}
		if got := waitTicket(t, m, info.ID, tk.ID); got.State != TicketApplied {
			t.Fatalf("ticket %s: state %q error %q, want applied", tk.ID, got.State, got.Error)
		}
	}
	got, err := m.Get(ctx, info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.Rounds != 4 {
		t.Fatalf("session played %d rounds, want 4", got.Rounds)
	}
	if n := m.QueuedSubmissions(info.ID); n != 0 {
		t.Fatalf("%d submissions still queued", n)
	}

	// An identical replay of an applied round resolves applied (the
	// idempotency contract carried into the pool).
	replay, err := m.EnqueueSubmissions(ctx, info.ID, []Submission{{Round: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if got := waitTicket(t, m, info.ID, replay[0].ID); got.State != TicketApplied {
		t.Fatalf("replay ticket: state %q error %q, want applied", got.State, got.Error)
	}
	if got, _ := m.Get(ctx, info.ID); got.Rounds != 4 {
		t.Fatalf("replay advanced the session to %d rounds", got.Rounds)
	}

	if _, err := m.Ticket(ctx, info.ID, "t999"); !errors.Is(err, ErrTicketNotFound) {
		t.Fatalf("unknown ticket: %v", err)
	}
	if _, err := m.Ticket(ctx, "sess-none", "t1"); !errors.Is(err, ErrTicketNotFound) {
		t.Fatalf("unknown session's ticket: %v", err)
	}
}

func TestLabelpoolEnqueueValidation(t *testing.T) {
	m := NewManager(Options{MaxQueuedSubmissions: 3})
	ctx := context.Background()
	info, err := m.Create(ctx, testSpec())
	if err != nil {
		t.Fatal(err)
	}
	id := info.ID

	cases := []struct {
		name string
		subs []Submission
		want error
	}{
		{"empty batch", nil, ErrBadRequest},
		{"duplicate round in batch", abstainWindow(0, 1)[0:1:1], nil}, // placeholder, replaced below
		{"row out of range", []Submission{{Round: 0, Labels: []belief.Labeling{{Pair: dataset.NewPair(0, 99)}}}}, ErrBadRequest},
		{"self pair", []Submission{{Round: 0, Labels: []belief.Labeling{{Pair: dataset.Pair{A: 3, B: 3}}}}}, ErrBadRequest},
		{"attribute out of range", []Submission{{Round: 0, Labels: []belief.Labeling{{Pair: dataset.NewPair(0, 1), Marked: fd.NewAttrSet(7)}}}}, ErrBadRequest},
		{"duplicate pair", []Submission{{Round: 0, Labels: []belief.Labeling{
			{Pair: dataset.NewPair(0, 1)}, {Pair: dataset.NewPair(0, 1), Abstained: true},
		}}}, ErrBadRequest},
		{"over capacity", abstainWindow(0, 4), ErrSubmissionBacklog},
	}
	cases[1].subs = []Submission{{Round: 1}, {Round: 1}}
	cases[1].want = ErrDuplicateRound
	for _, tc := range cases {
		if _, err := m.EnqueueSubmissions(ctx, id, tc.subs); !errors.Is(err, tc.want) {
			t.Errorf("%s: err %v, want %v", tc.name, err, tc.want)
		}
		if n := m.QueuedSubmissions(id); n != 0 {
			t.Errorf("%s: %d submissions queued after all-or-nothing rejection", tc.name, n)
		}
	}

	// A stale round that is not an identical replay fails its ticket
	// with a round-mismatch reason (admission accepts it: only the drain
	// can compare digests against the record).
	playRound(t, m, id) // round 0, fresh non-abstained labels
	stale, err := m.EnqueueSubmissions(ctx, id, abstainWindow(0, 1))
	if err != nil {
		t.Fatalf("stale enqueue: %v", err)
	}
	if got := waitTicket(t, m, id, stale[0].ID); got.State != TicketFailed || !strings.Contains(got.Error, "round") {
		t.Fatalf("stale non-replay ticket: %+v, want failed with round mismatch", got)
	}
	if _, err := m.EnqueueSubmissions(ctx, "sess-none", abstainWindow(1, 2)); !errors.Is(err, ErrSessionNotFound) {
		t.Fatalf("unknown session: %v", err)
	}
}

// markPolicy deterministically labels presented pairs: mark attribute 1
// when the tuples agree on attribute 0 but differ on attribute 1 (the
// planted team→city violations of testCSV-like data), abstain every
// fifth pair.
func markPolicy(rel *dataset.Relation, pairs []PairView) []belief.Labeling {
	labeled := make([]belief.Labeling, len(pairs))
	for i, p := range pairs {
		labeled[i] = belief.Labeling{Pair: dataset.NewPair(p.A, p.B)}
		if i%5 == 4 {
			labeled[i].Abstained = true
			continue
		}
		if rel.Row(p.A)[0] == rel.Row(p.B)[0] && rel.Row(p.A)[1] != rel.Row(p.B)[1] {
			labeled[i].Marked = fd.NewAttrSet(1)
		}
	}
	return labeled
}

// roundsFingerprint pins a session's served round series bit-for-bit
// (floats rendered in hex, so no float comparison).
func roundsFingerprint(t *testing.T, m *Manager, id string) []string {
	t.Helper()
	ctx := context.Background()
	rounds, err := m.Rounds(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, rv := range rounds {
		out = append(out, fmt.Sprintf("round %d: labeled=%d revised=%d mae=%x payoff=%x",
			rv.Round, rv.Labeled, rv.Revised, rv.MAE, rv.Payoff))
	}
	hyps, err := m.TopBelief(ctx, id, 16)
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range hyps {
		out = append(out, fmt.Sprintf("%s conf=%x ci=[%x,%x]", h.FD, h.Confidence, h.CILow, h.CIHigh))
	}
	return out
}

// TestLabelpoolGoldenDrainParity is the batched-drain acceptance test
// at the service level: a session driven through the labelpool (whole
// window enqueued at once, drained in batches) must be bit-identical —
// round measurements and final belief — to the same session driven
// through the sequential next/submit protocol.
func TestLabelpoolGoldenDrainParity(t *testing.T) {
	const seed, rounds = 41, 8
	ctx := context.Background()

	// Sequential reference, recording what each round was labeled.
	seqM := NewManager(Options{})
	seqInfo, err := seqM.Create(ctx, datasetSpec(seed))
	if err != nil {
		t.Fatal(err)
	}
	rel, err := (Source{Dataset: "OMDB", Rows: 60, Seed: seed}).build()
	if err != nil {
		t.Fatal(err)
	}
	perRound := make([]Submission, 0, rounds)
	for r := 0; r < rounds; r++ {
		pairs, err := seqM.Next(ctx, seqInfo.ID)
		if err != nil {
			t.Fatal(err)
		}
		labeled := markPolicy(rel, pairs)
		if _, err := seqM.Submit(ctx, seqInfo.ID, r, labeled); err != nil {
			t.Fatal(err)
		}
		perRound = append(perRound, Submission{Round: r, Labels: labeled})
	}

	// Pool run: identical spec, the whole window in one enqueue, small
	// DrainBatch so the drain must take several lock acquisitions.
	poolM := NewManager(Options{DrainBatch: 3})
	poolInfo, err := poolM.Create(ctx, datasetSpec(seed))
	if err != nil {
		t.Fatal(err)
	}
	tickets, err := poolM.EnqueueSubmissions(ctx, poolInfo.ID, perRound)
	if err != nil {
		t.Fatal(err)
	}
	for _, tk := range tickets {
		if got := waitTicket(t, poolM, poolInfo.ID, tk.ID); got.State != TicketApplied {
			t.Fatalf("round %d ticket: state %q error %q", tk.Round, got.State, got.Error)
		}
	}

	want := roundsFingerprint(t, seqM, seqInfo.ID)
	got := roundsFingerprint(t, poolM, poolInfo.ID)
	if len(want) != len(got) {
		t.Fatalf("fingerprint length: sequential %d, pooled %d", len(want), len(got))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("trajectory diverges at line %d:\nsequential: %s\npooled:     %s", i, want[i], got[i])
		}
	}
}

// TestLabelpoolDrainFailureIsolation pins the failure contract: a
// submission whose labels the engine rejects fails its own ticket; the
// consecutive rounds after it stay queued and apply once the round is
// resubmitted correctly.
func TestLabelpoolDrainFailureIsolation(t *testing.T) {
	m := NewManager(Options{})
	ctx := context.Background()
	info, err := m.Create(ctx, testSpec())
	if err != nil {
		t.Fatal(err)
	}
	id := info.ID

	// Round 0's submission duplicates a labeling (passes cheap admission
	// for distinct pairs? no — use two labelings of the same pair, which
	// admission catches; instead trip the engine with a labeling for a
	// pair that was never presented nor labeled... that becomes a
	// revision of an unlabeled pair, which the engine rejects).
	bad := []Submission{
		{Round: 0, Labels: []belief.Labeling{{Pair: dataset.NewPair(0, 1), Marked: fd.NewAttrSet(0)}, {Pair: dataset.NewPair(2, 3)}}},
		{Round: 1},
	}
	tickets, err := m.EnqueueSubmissions(ctx, id, bad)
	if err != nil {
		t.Fatal(err)
	}
	tk0 := waitTicket(t, m, id, tickets[0].ID)
	if tk0.State == TicketApplied {
		// The engine accepted it (both pairs happened to be presented);
		// nothing to isolate — skip rather than encode pool internals.
		t.Skipf("round 0 labels were all presented; cannot trip the engine with seed %d", 11)
	}
	if tk0.State != TicketFailed || tk0.Error == "" {
		t.Fatalf("round 0 ticket: %+v, want failed with a reason", tk0)
	}
	// Round 1 stays queued behind the gap.
	if n := m.QueuedSubmissions(id); n != 1 {
		t.Fatalf("%d queued, want 1 (round 1 waiting)", n)
	}
	tk1, err := m.Ticket(ctx, id, tickets[1].ID)
	if err != nil || tk1.State != TicketQueued {
		t.Fatalf("round 1 ticket: %+v err %v", tk1, err)
	}

	// Resubmitting round 0 (abstain-all is always valid) unblocks it.
	fixed, err := m.EnqueueSubmissions(ctx, id, []Submission{{Round: 0}})
	if err != nil {
		t.Fatal(err)
	}
	if got := waitTicket(t, m, id, fixed[0].ID); got.State != TicketApplied {
		t.Fatalf("fixed round 0: %+v", got)
	}
	if got := waitTicket(t, m, id, tickets[1].ID); got.State != TicketApplied {
		t.Fatalf("queued round 1 after fix: %+v", got)
	}
}

// TestLabelpoolShutdownFlush: Shutdown must apply every ticketed
// submission before checkpointing — the snapshot taken on drain
// carries the queued rounds.
func TestLabelpoolShutdownFlush(t *testing.T) {
	m := NewManager(Options{})
	ctx := context.Background()
	info, err := m.Create(ctx, testSpec())
	if err != nil {
		t.Fatal(err)
	}
	// testCSV sessions exhaust their candidate pool after 4 rounds at
	// K=3; queue exactly that window.
	tickets, err := m.EnqueueSubmissions(ctx, info.ID, abstainWindow(0, 4))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	for _, tk := range tickets {
		got, err := m.Ticket(ctx, info.ID, tk.ID)
		if err != nil {
			t.Fatal(err)
		}
		if got.State != TicketApplied {
			t.Fatalf("after shutdown, ticket for round %d is %q (%s)", tk.Round, got.State, got.Error)
		}
	}
	snap, err := m.Store().Get(ctx, info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.History) != 4 {
		t.Fatalf("snapshot has %d rounds, want 4 — a ticketed submission was dropped", len(snap.History))
	}
	// New enqueues are rejected while drained.
	if _, err := m.EnqueueSubmissions(ctx, info.ID, abstainWindow(4, 5)); !errors.Is(err, ErrShuttingDown) {
		t.Fatalf("enqueue after shutdown: %v", err)
	}
}

// TestLabelpoolWalCrashLosesNothing drives the drain's group commit
// through a crash: windows enqueued into a manager over a write-ahead
// log must be durable once their tickets read applied, so closing the
// log without Shutdown — no parting checkpoints — and reopening it
// still yields every applied round.
func TestLabelpoolWalCrashLosesNothing(t *testing.T) {
	const sessions, rounds, window = 4, 4, 2
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
	m := NewManager(Options{Store: ws, DrainBatch: window})
	ids := make([]string, sessions)
	type queued struct{ session, ticket string }
	var tickets []queued
	for s := range ids {
		info, err := m.Create(ctx, testSpec())
		if err != nil {
			t.Fatal(err)
		}
		ids[s] = info.ID
		for base := 0; base < rounds; base += window {
			tks, err := m.EnqueueSubmissions(ctx, info.ID, abstainWindow(base, base+window))
			if err != nil {
				t.Fatal(err)
			}
			for _, tk := range tks {
				tickets = append(tickets, queued{info.ID, tk.ID})
			}
		}
	}
	for _, q := range tickets {
		if got := waitTicket(t, m, q.session, q.ticket); got.State != TicketApplied {
			t.Fatalf("ticket %s: state %q error %q, want applied", q.ticket, got.State, got.Error)
		}
	}
	// A ticket turns applied before its drain's group commit returns;
	// the drain is idle, and every round appended, once nothing is
	// pending or draining.
	deadline := time.Now().Add(10 * time.Second)
	for {
		h := m.Health()
		if h.WalPending == 0 && h.BusyPools == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("drain never settled: %+v", h)
		}
		time.Sleep(time.Millisecond)
	}

	// The crash: the log closes under the manager; no Shutdown runs.
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
	for _, id := range ids {
		snap, err := ws2.Get(ctx, id)
		if err != nil {
			t.Fatalf("%s unreadable after the crash: %v", id, err)
		}
		if got := len(snap.History); got != rounds {
			t.Fatalf("%s recovered %d rounds, want %d — an applied round was lost", id, got, rounds)
		}
	}
}

// TestLabelpoolChaosZeroLoss is the acceptance chaos test for the
// batched path: 64 sessions submitting through the labelpool while a
// seeded-flaky store forces park/unpark churn through 16 resident
// slots. After the faults clear and the manager drains, every ticketed
// round must be in its session's snapshot — zero submitted rounds
// lost. Run under -race via make chaos.
func TestLabelpoolChaosZeroLoss(t *testing.T) {
	const workers, rounds, window = 64, 4, 2
	const chaosSeed = 77
	ctx := context.Background()
	fs := faulty.Wrap(persist.NewMemStore(), faulty.Config{Seed: chaosSeed, FailRate: 0.2})
	m := NewManager(Options{
		MaxSessions: 16,
		IdleTTL:     time.Minute,
		Store:       fs,
		Retry:       fastRetry(),
		RetrySeed:   chaosSeed,
		DrainBatch:  window,
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
			for base := 0; base < rounds; base += window {
				var tickets []Ticket
				if err := retry(func() (err error) {
					tickets, err = m.EnqueueSubmissions(ctx, info.ID, abstainWindow(base, base+window))
					return err
				}); err != nil {
					errCh <- fmt.Errorf("worker %d window %d enqueue: %w", w, base, err)
					return
				}
				for _, tk := range tickets {
					deadline := time.Now().Add(30 * time.Second)
					for {
						got, err := m.Ticket(ctx, info.ID, tk.ID)
						if err != nil {
							errCh <- fmt.Errorf("worker %d ticket %s: %w", w, tk.ID, err)
							return
						}
						if got.State == TicketApplied {
							break
						}
						if got.State == TicketFailed {
							errCh <- fmt.Errorf("worker %d round %d failed: %s", w, got.Round, got.Error)
							return
						}
						if time.Now().After(deadline) {
							errCh <- fmt.Errorf("worker %d round %d stuck queued", w, got.Round)
							return
						}
						time.Sleep(200 * time.Microsecond)
					}
				}
				// A third of the workers force eviction churn between
				// windows; failure just leaves the session degraded.
				if w%3 == 0 {
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
		t.Fatalf("no faults injected over %d store ops (seed %d)", ops, fs.Seed())
	}
	fs.ClearFaults()
	if err := m.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown after faults cleared: %v", err)
	}
	for w, id := range ids {
		snap, err := fs.Get(ctx, id)
		if err != nil {
			t.Fatalf("worker %d: snapshot %s unreadable: %v", w, id, err)
		}
		if got := len(snap.History); got != rounds {
			t.Fatalf("worker %d: snapshot has %d rounds, want %d — a ticketed round was lost", w, got, rounds)
		}
	}
}
