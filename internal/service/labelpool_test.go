package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
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

// readTicket reads a ticket's state. A ticket resolves before the
// request that resolves it returns, so there is nothing to wait for.
func readTicket(t *testing.T, m *Manager, id, ticketID string) Ticket {
	t.Helper()
	tk, err := m.Ticket(context.Background(), id, ticketID)
	if err != nil {
		t.Fatalf("Ticket(%s, %s): %v", id, ticketID, err)
	}
	return tk
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
		if got := readTicket(t, m, info.ID, tk.ID); got.State != TicketApplied {
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
	if got := readTicket(t, m, info.ID, replay[0].ID); got.State != TicketApplied {
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
		{"larger than the queue bound", abstainWindow(0, 4), ErrBadRequest},
		{"negative round", []Submission{{Round: 1}, {Round: -1}}, ErrBadRequest},
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

	// Rounds queued behind a gap count against the bound: a batch that
	// fits alone but not beside them is a backlog.
	gapped, err := m.Create(ctx, testSpec())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.EnqueueSubmissions(ctx, gapped.ID, abstainWindow(1, 3)); err != nil {
		t.Fatal(err)
	}
	if _, err := m.EnqueueSubmissions(ctx, gapped.ID, abstainWindow(3, 5)); !errors.Is(err, ErrSubmissionBacklog) {
		t.Fatalf("batch overflowing the gap's queue: err %v, want %v", err, ErrSubmissionBacklog)
	}
	if n := m.QueuedSubmissions(gapped.ID); n != 2 {
		t.Fatalf("%d submissions queued after the backlog rejection, want the gap's 2", n)
	}

	// A stale round that is not an identical replay fails its ticket
	// with a round-mismatch reason (admission accepts it: the apply
	// compares digests against the record).
	playRound(t, m, id) // round 0, fresh non-abstained labels
	stale, err := m.EnqueueSubmissions(ctx, id, abstainWindow(0, 1))
	if err != nil {
		t.Fatalf("stale enqueue: %v", err)
	}
	if got := readTicket(t, m, id, stale[0].ID); got.State != TicketFailed || !strings.Contains(got.Error, "round") {
		t.Fatalf("stale non-replay ticket: %+v, want failed with round mismatch", got)
	}
	if _, err := m.EnqueueSubmissions(ctx, "sess-none", abstainWindow(1, 2)); !errors.Is(err, ErrSessionNotFound) {
		t.Fatalf("unknown session: %v", err)
	}
}

// TestLabelpoolOversizedBatchKeepsSessionParked: a batch larger than
// the queue bound can never be admitted, so it answers 400 bad_request,
// which a client does not retry, and it is refused before the session
// is touched: a parked session stays parked.
func TestLabelpoolOversizedBatchKeepsSessionParked(t *testing.T) {
	m, c, _ := newTestServer(t, Options{MaxQueuedSubmissions: 3})
	ctx := context.Background()
	info, err := m.Create(ctx, testSpec())
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Evict(ctx, info.ID); err != nil {
		t.Fatal(err)
	}
	batch := EnqueueRequest{Submissions: []SubmissionWire{{Round: 0}, {Round: 1}, {Round: 2}, {Round: 3}}}
	raw := c.expect(http.StatusBadRequest, "POST", "/v1/sessions/"+info.ID+"/submissions", batch, nil)
	var e APIError
	if err := json.Unmarshal(raw, &e); err != nil || e.Kind != KindBadRequest {
		t.Fatalf("oversized batch body %s (err %v), want kind %q", raw, err, KindBadRequest)
	}
	if live, parked := m.Counts(); live != 0 || parked != 1 {
		t.Fatalf("after the oversized batch: live=%d parked=%d, want the session still parked", live, parked)
	}
}

// TestLabelpoolInBatchDuplicateKeepsSessionParked: a batch naming one
// round twice can never be admitted either, so it answers 409
// duplicate_round before the session is touched: a parked session stays
// parked, and no other session is evicted to make room for it.
func TestLabelpoolInBatchDuplicateKeepsSessionParked(t *testing.T) {
	m, c, _ := newTestServer(t, Options{MaxSessions: 1})
	ctx := context.Background()
	info, err := m.Create(ctx, testSpec())
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Evict(ctx, info.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := m.EnqueueSubmissions(ctx, info.ID, []Submission{{Round: 1}, {Round: 1}}); !errors.Is(err, ErrDuplicateRound) {
		t.Fatalf("EnqueueSubmissions = %v, want ErrDuplicateRound", err)
	}
	if h := m.Health(); h.Live != 0 || h.Parked != 1 {
		t.Fatalf("after the duplicate batch: live=%d parked=%d, want 0 and 1", h.Live, h.Parked)
	}
	other, err := m.Create(ctx, testSpec())
	if err != nil {
		t.Fatal(err)
	}
	batch := EnqueueRequest{Submissions: []SubmissionWire{{Round: 1}, {Round: 1}}}
	raw := c.expect(http.StatusConflict, "POST", "/v1/sessions/"+info.ID+"/submissions", batch, nil)
	var e APIError
	if err := json.Unmarshal(raw, &e); err != nil || e.Kind != KindDuplicateRound {
		t.Fatalf("duplicate batch body %s (err %v), want kind %q", raw, err, KindDuplicateRound)
	}
	if got, err := m.Get(ctx, other.ID); err != nil || got.Parked {
		t.Fatalf("the other session at MaxSessions: %+v, %v; want it live", got, err)
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

// TestLabelpoolGoldenDrainParity is the batched-apply acceptance test
// at the service level: a session driven through the labelpool (two
// windows enqueued out of order, the second half waiting behind the
// gap until the first half arrives) must be bit-identical — round
// measurements and final belief — to the same session driven through
// the sequential next/submit protocol.
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

	// Pool run: identical spec, the second half of the window first —
	// it waits behind the gap — then the first half, which applies both.
	poolM := NewManager(Options{})
	poolInfo, err := poolM.Create(ctx, datasetSpec(seed))
	if err != nil {
		t.Fatal(err)
	}
	late, err := poolM.EnqueueSubmissions(ctx, poolInfo.ID, perRound[rounds/2:])
	if err != nil {
		t.Fatal(err)
	}
	for _, tk := range late {
		if tk.State != TicketQueued {
			t.Fatalf("round %d ticket behind the gap: state %q error %q, want queued", tk.Round, tk.State, tk.Error)
		}
	}
	early, err := poolM.EnqueueSubmissions(ctx, poolInfo.ID, perRound[:rounds/2])
	if err != nil {
		t.Fatal(err)
	}
	for _, tk := range append(early, late...) {
		if got := readTicket(t, poolM, poolInfo.ID, tk.ID); got.State != TicketApplied {
			t.Fatalf("round %d ticket: state %q error %q, want applied", tk.Round, got.State, got.Error)
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
	tk0 := readTicket(t, m, id, tickets[0].ID)
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
	if got := readTicket(t, m, id, fixed[0].ID); got.State != TicketApplied {
		t.Fatalf("fixed round 0: %+v", got)
	}
	if got := readTicket(t, m, id, tickets[1].ID); got.State != TicketApplied {
		t.Fatalf("queued round 1 after fix: %+v", got)
	}
}

// TestLabelpoolShutdownFlush: every round a window applied is in the
// snapshot Shutdown takes, and a drained manager admits no new window.
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

// TestLabelpoolWalCrashLosesNothing drives the labelpool's group commit
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
	m := NewManager(Options{Store: ws})
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
		if got := readTicket(t, m, q.session, q.ticket); got.State != TicketApplied {
			t.Fatalf("ticket %s: state %q error %q, want applied", q.ticket, got.State, got.Error)
		}
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

// gatedAppends is a write-ahead-log store whose round appends wait at a
// gate until release is closed, so a test can look at the server while
// an append is in flight. It forwards RoundAppender to itself: the
// embedded wal.Store's would let persist.AppenderOf see through it.
type gatedAppends struct {
	*wal.Store
	blocked chan struct{} // receives when an append reaches the gate
	release chan struct{} // closed to let appends through
}

func (g *gatedAppends) RoundAppender() persist.RoundAppender { return g }

func (g *gatedAppends) AppendRounds(ctx context.Context, deltas []*persist.RoundDelta) error {
	select {
	case g.blocked <- struct{}{}:
	default:
	}
	<-g.release
	return g.Store.AppendRounds(ctx, deltas)
}

// TestLabelpoolWalCrashAckAfterAppend pins the acknowledgement
// contract: a ticket never reads applied while its round's append is
// still blocked, so a crash at that moment — the log closed without
// Shutdown, then reopened — recovers at least every round a client saw
// applied. Once the gate opens, the append fails on the closed log and
// the failure shows as the session's degraded mark.
func TestLabelpoolWalCrashAckAfterAppend(t *testing.T) {
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
	gs := &gatedAppends{Store: ws, blocked: make(chan struct{}, 1), release: make(chan struct{})}
	var once sync.Once
	open := func() { once.Do(func() { close(gs.release) }) }
	defer open()
	m := NewManager(Options{Store: gs})
	info, err := m.Create(ctx, testSpec()) // the base snapshot is a Put: not gated
	if err != nil {
		t.Fatal(err)
	}

	enqueued := make(chan error, 1)
	go func() {
		_, err := m.EnqueueSubmissions(ctx, info.ID, abstainWindow(0, 2))
		enqueued <- err
	}()
	select {
	case <-gs.blocked:
	case <-time.After(10 * time.Second):
		t.Fatal("the window's append never reached the store")
	}
	// A fresh pool numbers its tickets from t1.
	acked := 0
	for _, tid := range []string{"t1", "t2"} {
		if tk := readTicket(t, m, info.ID, tid); tk.State == TicketApplied {
			acked++
			t.Errorf("ticket %s (round %d) reads applied while its append is blocked", tid, tk.Round)
		}
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
	snap, err := ws2.Get(ctx, info.ID)
	if err != nil {
		t.Fatalf("%s unreadable after the crash: %v", info.ID, err)
	}
	if got := len(snap.History); got < acked {
		t.Fatalf("recovered %d rounds, but %d read applied before the crash", got, acked)
	}

	open()
	if err := <-enqueued; err != nil {
		t.Fatalf("enqueue: %v", err)
	}
	for _, tid := range []string{"t1", "t2"} {
		if tk := readTicket(t, m, info.ID, tid); tk.State != TicketApplied {
			t.Fatalf("ticket %s after the append returned: state %q error %q, want applied", tid, tk.State, tk.Error)
		}
	}
	if got, err := m.Get(ctx, info.ID); err != nil || !got.Degraded {
		t.Fatalf("after an append to the closed log: %+v (err %v), want degraded", got, err)
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
				// The window completes the session's run, so the enqueue
				// answers with every ticket already applied.
				for _, tk := range tickets {
					if tk.State != TicketApplied {
						errCh <- fmt.Errorf("worker %d round %d: state %q error %q, want applied", w, tk.Round, tk.State, tk.Error)
						return
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

// TestLabelpoolTicketsAgeOut pins the ticket memory's bound: once more
// than 256 tickets are held, minting one ages out the oldest terminal
// ticket, never a queued one, and the aged-out id polls as
// ErrTicketNotFound like an id never minted.
func TestLabelpoolTicketsAgeOut(t *testing.T) {
	m := NewManager(Options{})
	ctx := context.Background()
	info, err := m.Create(ctx, testSpec())
	if err != nil {
		t.Fatal(err)
	}
	// t1 waits behind a gap for the whole test.
	if tks, err := m.EnqueueSubmissions(ctx, info.ID, abstainWindow(3, 4)); err != nil || tks[0].ID != "t1" || tks[0].State != TicketQueued {
		t.Fatalf("gap enqueue: %+v, %v", tks, err)
	}
	// t2 applies round 0; t3 … t257 replay it, each applying as an
	// identical replay: 256 terminal tickets.
	for n := 2; n <= 257; n++ {
		tks, err := m.EnqueueSubmissions(ctx, info.ID, abstainWindow(0, 1))
		if err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf("t%d", n); tks[0].ID != want || tks[0].State != TicketApplied {
			t.Fatalf("ticket %+v, want %s applied", tks[0], want)
		}
		// Before t257 the pool holds at most 256 tickets: none aged out.
		if n == 256 {
			readTicket(t, m, info.ID, "t2")
		}
	}
	if tk := readTicket(t, m, info.ID, "t1"); tk.State != TicketQueued || tk.Round != 3 {
		t.Fatalf("the queued ticket aged out or changed: %+v", tk)
	}
	if _, err := m.Ticket(ctx, info.ID, "t2"); !errors.Is(err, ErrTicketNotFound) {
		t.Fatalf("the oldest terminal ticket after the 257th: err = %v, want ErrTicketNotFound", err)
	}
	for _, id := range []string{"t3", "t257"} {
		if tk := readTicket(t, m, info.ID, id); tk.State != TicketApplied || tk.Round != 0 {
			t.Fatalf("%s = %+v, want applied for round 0", id, tk)
		}
	}
	// Only canonical spellings of minted ids name tickets.
	for _, id := range []string{"t01", "t", "t-1", "t+1", "x1", "T1", "t258", "t0", "t18446744073709551616", "t99999999999999999999999"} {
		if tk, err := m.Ticket(ctx, info.ID, id); !errors.Is(err, ErrTicketNotFound) {
			t.Errorf("Ticket(%q) = %+v, %v; want ErrTicketNotFound", id, tk, err)
		}
	}
}
