package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"exptrain/internal/persist"
	"exptrain/internal/persist/faulty"
	"exptrain/internal/sampling"
)

// fastRetry keeps fault tests quick: full retry semantics, tiny delays.
func fastRetry() RetryPolicy {
	return RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: 4 * time.Millisecond}
}

func TestManagerEvictFailureDegradesSession(t *testing.T) {
	ctx := context.Background()
	fs := faulty.Wrap(persist.NewMemStore(), faulty.Config{
		Seed: 21, FailRate: 1, Ops: []faulty.Op{faulty.OpPut},
	})
	m := NewManager(Options{Store: fs, Retry: fastRetry(), RetrySeed: 21})
	info, err := m.Create(ctx, testSpec())
	if err != nil {
		t.Fatal(err)
	}
	playRound(t, m, info.ID)

	if err := m.Evict(ctx, info.ID); !errors.Is(err, ErrStoreUnavailable) {
		t.Fatalf("Evict with dead store = %v, want ErrStoreUnavailable", err)
	}
	// The failed checkpoint must not drop the session: it stays live,
	// degraded, and still serves rounds.
	if live, parked := m.Counts(); live != 1 || parked != 0 {
		t.Fatalf("Counts = (%d, %d), want (1, 0)", live, parked)
	}
	got, err := m.Get(ctx, info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Degraded || got.Parked {
		t.Fatalf("Info = %+v, want degraded and not parked", got)
	}
	playRound(t, m, info.ID)

	h := m.Health()
	if h.OK || h.Degraded != 1 || h.StoreFailures == 0 || h.StoreError == "" {
		t.Fatalf("Health = %+v, want sick with one degraded session", h)
	}

	// Store heals → the next eviction succeeds and clears the mark.
	fs.ClearFaults()
	if err := m.Evict(ctx, info.ID); err != nil {
		t.Fatalf("Evict after faults cleared: %v", err)
	}
	if h := m.Health(); !h.OK || h.Degraded != 0 || h.Parked != 1 {
		t.Fatalf("Health after recovery = %+v", h)
	}
	// Nothing was lost across the degraded episode: both rounds resume.
	got, err = m.Get(ctx, info.ID)
	if err != nil || !got.Parked {
		t.Fatalf("Get parked = %+v, %v", got, err)
	}
	pairs, err := m.Next(ctx, info.ID) // transparently unparks
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) == 0 {
		t.Fatal("no pairs after resume")
	}
	if got, err = m.Get(ctx, info.ID); err != nil || got.Rounds != 2 {
		t.Fatalf("resumed Rounds = %d (%v), want 2", got.Rounds, err)
	}
}

// TestManagerFailedParkKeepsPendingRound: parking checkpoints the
// session without rewinding it, so a park that fails leaves the
// presented round pending — the client's submit of it still applies —
// and a later park's snapshot resumes to the same pairs.
func TestManagerFailedParkKeepsPendingRound(t *testing.T) {
	ctx := context.Background()
	fs := faulty.Wrap(persist.NewMemStore(), faulty.Config{
		Seed: 21, FailRate: 1, Ops: []faulty.Op{faulty.OpPut},
	})
	m, c, _ := newTestServer(t, Options{Store: fs, Retry: fastRetry(), RetrySeed: 21})
	info, err := m.Create(ctx, testSpec())
	if err != nil {
		t.Fatal(err)
	}
	playRound(t, m, info.ID)
	var next nextResponse
	c.expect(http.StatusOK, "POST", "/v1/sessions/"+info.ID+"/next", nil, &next)
	raw := c.expect(http.StatusServiceUnavailable, "DELETE", "/v1/sessions/"+info.ID, nil, nil)
	if kind := errKind(t, raw); kind != KindStoreUnavailable {
		t.Fatalf("failed park answered kind %q, want %q", kind, KindStoreUnavailable)
	}
	var got Info
	c.expect(http.StatusOK, "GET", "/v1/sessions/"+info.ID, nil, &got)
	if got.Pending != len(next.Pairs) || !got.Degraded {
		t.Fatalf("after the failed park: %+v, want degraded with the %d presented pairs pending", got, len(next.Pairs))
	}

	// The store heals: the park lands, and the unparked session presents
	// the pending pairs again.
	fs.ClearFaults()
	if err := m.Evict(ctx, info.ID); err != nil {
		t.Fatal(err)
	}
	var again nextResponse
	c.expect(http.StatusOK, "POST", "/v1/sessions/"+info.ID+"/next", nil, &again)
	if len(again.Pairs) != len(next.Pairs) {
		t.Fatalf("unparked session presented %d pairs, want %d", len(again.Pairs), len(next.Pairs))
	}
	for i := range again.Pairs {
		if again.Pairs[i].A != next.Pairs[i].A || again.Pairs[i].B != next.Pairs[i].B {
			t.Fatalf("unparked session presented %+v, want the pending round's %+v", again.Pairs, next.Pairs)
		}
	}
	labels := make([]LabelingWire, len(again.Pairs))
	for i, p := range again.Pairs {
		labels[i] = LabelingWire{Pair: [2]int{p.A, p.B}}
	}
	one := 1
	c.expect(http.StatusOK, "POST", "/v1/sessions/"+info.ID+"/submit", SubmitRequest{Round: &one, Labels: labels}, &got)
	if got.Rounds != 2 {
		t.Fatalf("after the submit: %+v, want 2 rounds", got)
	}
}

// TestManagerUnparkFailedConcurrentAcquires races many acquires of one
// parked session against a store whose Gets always fail: every acquire
// must observe the session rolled back to parked (surfacing
// ErrStoreUnavailable), none may panic, deadlock, or lose the
// snapshot. Run under -race.
func TestManagerUnparkFailedConcurrentAcquires(t *testing.T) {
	ctx := context.Background()
	fs := faulty.Wrap(persist.NewMemStore(), faulty.Config{
		Seed: 5, FailRate: 1, Ops: []faulty.Op{faulty.OpGet},
	})
	m := NewManager(Options{Store: fs, Retry: fastRetry(), RetrySeed: 5})
	info, err := m.Create(ctx, testSpec())
	if err != nil {
		t.Fatal(err)
	}
	playRound(t, m, info.ID)
	if err := m.Evict(ctx, info.ID); err != nil {
		t.Fatal(err)
	}

	const workers = 16
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			_, errs[w] = m.TopBelief(ctx, info.ID, 5)
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if !errors.Is(err, ErrStoreUnavailable) {
			t.Fatalf("worker %d: err = %v, want ErrStoreUnavailable", w, err)
		}
	}
	// Every failed unpark must roll back to parked — the snapshot is
	// still in the store, nothing leaked into the live map.
	if live, parked := m.Counts(); live != 0 || parked != 1 {
		t.Fatalf("Counts = (%d, %d), want (0, 1)", live, parked)
	}

	// Once the store heals, exactly one acquire resumes the session and
	// the round history is intact.
	fs.ClearFaults()
	if _, err := m.TopBelief(ctx, info.ID, 5); err != nil {
		t.Fatalf("TopBelief after faults cleared: %v", err)
	}
	got, err := m.Get(ctx, info.ID)
	if err != nil || got.Rounds != 1 {
		t.Fatalf("resumed Rounds = %d (%v), want 1", got.Rounds, err)
	}
}

// TestManagerSweepContinuesPastFailures: one session's checkpoint
// failure must not stop the sweep from parking the others, and the
// next sweep retries (and recovers) the degraded one.
func TestManagerSweepContinuesPastFailures(t *testing.T) {
	ctx := context.Background()
	// MaxAttempts 1 disables retries so FailEveryN maps 1:1 onto store
	// operations: the List before the first mint is the 1st, so the
	// sweeps' 2nd Put (the 3rd operation) fails and all others succeed.
	fs := faulty.Wrap(persist.NewMemStore(), faulty.Config{Seed: 9, FailEveryN: 3})
	m := NewManager(Options{
		Store:   fs,
		Retry:   RetryPolicy{MaxAttempts: 1, BaseDelay: time.Millisecond, MaxDelay: time.Millisecond},
		IdleTTL: time.Minute,
	})
	base := time.Now()
	m.setNow(func() time.Time { return base })
	for i := 0; i < 2; i++ {
		if _, err := m.Create(ctx, datasetSpec(uint64(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	m.setNow(func() time.Time { return base.Add(time.Hour) })

	swept, err := m.Sweep(ctx)
	if !errors.Is(err, ErrStoreUnavailable) {
		t.Fatalf("Sweep err = %v, want ErrStoreUnavailable joined in", err)
	}
	if len(swept) != 1 {
		t.Fatalf("swept %v, want exactly one despite the failure", swept)
	}
	if live, parked := m.Counts(); live != 1 || parked != 1 {
		t.Fatalf("Counts = (%d, %d), want (1, 1)", live, parked)
	}
	if h := m.Health(); h.Degraded != 1 {
		t.Fatalf("Health.Degraded = %d, want 1", h.Degraded)
	}

	// The follow-up sweep is the degraded session's recovery path.
	swept, err = m.Sweep(ctx)
	if err != nil || len(swept) != 1 {
		t.Fatalf("second Sweep = %v, %v; want the degraded session parked", swept, err)
	}
	if h := m.Health(); h.Degraded != 0 || h.Parked != 2 {
		t.Fatalf("Health after recovery sweep = %+v", h)
	}
}

func TestManagerShutdownKeepsFailedSessionsResident(t *testing.T) {
	ctx := context.Background()
	fs := faulty.Wrap(persist.NewMemStore(), faulty.Config{
		Seed: 13, FailRate: 1, Ops: []faulty.Op{faulty.OpPut},
	})
	m := NewManager(Options{Store: fs, Retry: fastRetry(), RetrySeed: 13})
	info, err := m.Create(ctx, testSpec())
	if err != nil {
		t.Fatal(err)
	}
	playRound(t, m, info.ID)

	if err := m.Shutdown(ctx); !errors.Is(err, ErrStoreUnavailable) {
		t.Fatalf("Shutdown with dead store = %v, want ErrStoreUnavailable", err)
	}
	// The session must not be dropped on the floor: still resident,
	// degraded, waiting for a second Shutdown once the store heals.
	if live, _ := m.Counts(); live != 1 {
		t.Fatalf("live = %d after failed Shutdown, want 1", live)
	}
	fs.ClearFaults()
	if err := m.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown after faults cleared: %v", err)
	}
	if live, parked := m.Counts(); live != 0 || parked != 1 {
		t.Fatalf("Counts = (%d, %d) after clean Shutdown, want (0, 1)", live, parked)
	}
}

// TestServerFaultSurface exercises the HTTP mapping of the fault layer:
// healthz flips to 503 while degraded, store failures answer 503 +
// Retry-After with kind "store_unavailable", and a draining manager is
// distinguishable from capacity pressure.
func TestServerFaultSurface(t *testing.T) {
	fs := faulty.Wrap(persist.NewMemStore(), faulty.Config{
		Seed: 31, FailRate: 1, Ops: []faulty.Op{faulty.OpPut},
	})
	m, c, ts := newTestServer(t, Options{Store: fs, Retry: fastRetry(), RetrySeed: 31})

	var h Health
	c.expect(http.StatusOK, "GET", "/v1/healthz", nil, &h)
	if !h.OK {
		t.Fatalf("healthz = %+v, want ok on a fresh manager", h)
	}

	var info Info
	c.expect(http.StatusCreated, "POST", "/v1/sessions", CreateRequest{CSV: testCSV, Method: sampling.MethodRandom, K: 3, Seed: 11}, &info)
	c.playHTTPRound(info.ID)

	// Parking hits the dead store: 503, Retry-After, store_unavailable.
	resp, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/sessions/"+info.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ts.Client().Do(resp)
	if err != nil {
		t.Fatal(err)
	}
	body := readBody(t, res)
	if res.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("DELETE status = %d, want 503; body %s", res.StatusCode, body)
	}
	if res.Header.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
	if kind := errKind(t, body); kind != "store_unavailable" {
		t.Fatalf("kind = %q, want store_unavailable", kind)
	}

	// healthz now reports the sick store and answers 503 for the LB.
	res, err = ts.Client().Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body = readBody(t, res)
	if res.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz status = %d, want 503; body %s", res.StatusCode, body)
	}
	if res.Header.Get("Retry-After") == "" {
		t.Fatal("unhealthy healthz without Retry-After")
	}

	// The degraded session still serves reads and rounds.
	c.expect(http.StatusOK, "GET", "/v1/sessions/"+info.ID, nil, &info)
	if !info.Degraded {
		t.Fatalf("Info = %+v, want Degraded", info)
	}
	c.playHTTPRound(info.ID)

	// Store heals: parking succeeds, healthz recovers.
	fs.ClearFaults()
	c.expect(http.StatusOK, "DELETE", "/v1/sessions/"+info.ID, nil, nil)
	c.expect(http.StatusOK, "GET", "/v1/healthz", nil, &h)
	if !h.OK || h.Degraded != 0 || h.Parked != 1 {
		t.Fatalf("healthz after recovery = %+v", h)
	}

	// Draining answers 503 shutting_down — a different kind than the
	// capacity 429, so clients can tell fail-over from shed-load.
	if err := m.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	status, raw := c.do("POST", "/v1/sessions", CreateRequest{CSV: testCSV, K: 3}, nil)
	if status != http.StatusServiceUnavailable {
		t.Fatalf("create while draining = %d, want 503; body %s", status, raw)
	}
	if kind := errKind(t, raw); kind != "shutting_down" {
		t.Fatalf("kind = %q, want shutting_down", kind)
	}
}

func readBody(t *testing.T, res *http.Response) []byte {
	t.Helper()
	defer res.Body.Close()
	var buf [4096]byte
	n, _ := res.Body.Read(buf[:])
	return buf[:n]
}

func errKind(t *testing.T, raw []byte) string {
	t.Helper()
	var eb APIError
	if err := json.Unmarshal(raw, &eb); err != nil {
		t.Fatalf("decoding error body %q: %v", raw, err)
	}
	return eb.Kind
}

// TestManagerHealth exercises the healthz surface: a failed evict
// through a dead store flips ok and counts one degraded session and
// one store failure with its error, and a replicated store surfaces its
// per-replica counters.
func TestManagerHealth(t *testing.T) {
	ctx := context.Background()
	fs := faulty.Wrap(persist.NewMemStore(), faulty.Config{
		Seed: 99, FailRate: 1, Ops: []faulty.Op{faulty.OpPut},
	})
	m := NewManager(Options{
		Store: fs,
		Retry: RetryPolicy{MaxAttempts: 2, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond},
	})
	var infos []Info
	for i := 0; i < 6; i++ {
		info, err := m.Create(ctx, testSpec())
		if err != nil {
			t.Fatal(err)
		}
		infos = append(infos, info)
	}
	if h := m.Health(); !h.OK || h.Live != 6 || h.StoreFailures != 0 {
		t.Fatalf("healthy baseline = %+v", h)
	}

	if err := m.Evict(ctx, infos[0].ID); err == nil {
		t.Fatal("evict through a dead store should fail")
	}
	h := m.Health()
	if h.OK || h.Live != 6 || h.Degraded != 1 || h.StoreFailures != 1 || h.StoreError == "" {
		t.Fatalf("after failed evict: %+v", h)
	}

	ms, err := persist.NewMultiStore([]persist.Store{persist.NewMemStore(), persist.NewMemStore()}, 0)
	if err != nil {
		t.Fatal(err)
	}
	mr := NewManager(Options{Store: ms})
	info, err := mr.Create(ctx, testSpec())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mr.Snapshot(ctx, info.ID); err != nil {
		t.Fatal(err)
	}
	hr := mr.Health()
	if len(hr.Replicas) != 2 || hr.Replicas[0].Ops == 0 {
		t.Fatalf("replicated store stats missing from health: %+v", hr.Replicas)
	}
}

// gateStore holds every Put until release is closed, announcing each
// on started and counting them. The held write goes through after
// release even if the caller's ctx was cancelled meanwhile: the store
// had already accepted it.
type gateStore struct {
	persist.Store
	started chan string
	release chan struct{}
	puts    atomic.Int32
}

func (s *gateStore) Put(ctx context.Context, id string, snap *persist.Snapshot) error {
	s.puts.Add(1)
	s.started <- id
	<-s.release
	return s.Store.Put(context.WithoutCancel(ctx), id, snap)
}

// TestManagerSweepYieldsToRequests: a sweep locks a session only when
// it reaches it, so a request to another idle session during a slow
// Put returns at once and keeps that session live, and a cancelled
// sweep attempts no further evictions.
func TestManagerSweepYieldsToRequests(t *testing.T) {
	const n = 3
	gs := &gateStore{Store: persist.NewMemStore(), started: make(chan string, n), release: make(chan struct{})}
	m := NewManager(Options{Store: gs, Retry: RetryPolicy{MaxAttempts: 1}, IdleTTL: time.Minute})
	base := time.Now()
	m.setNow(func() time.Time { return base })
	var ids []string
	for i := 0; i < n; i++ {
		info, err := m.Create(context.Background(), testSpec())
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, info.ID)
	}
	m.setNow(func() time.Time { return base.Add(time.Hour) })

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	type result struct {
		swept []string
		err   error
	}
	done := make(chan result, 1)
	go func() {
		swept, err := m.Sweep(ctx)
		done <- result{swept, err}
	}()
	first := <-gs.started
	other := ids[0]
	if other == first {
		other = ids[1]
	}
	got := make(chan error, 1)
	go func() {
		info, err := m.Get(context.Background(), other)
		if err == nil && info.Parked {
			err = fmt.Errorf("%s parked during the sweep", other)
		}
		got <- err
	}()
	select {
	case err := <-got:
		if err != nil {
			t.Error(err)
		}
	case <-time.After(2 * time.Second):
		t.Errorf("Get(%s) blocked behind the sweep's Put of %s", other, first)
	}
	cancel()
	close(gs.release)
	r := <-done
	if !errors.Is(r.err, context.Canceled) || len(r.swept) != 1 || r.swept[0] != first {
		t.Fatalf("Sweep = %v, %v; want [%s] and context.Canceled", r.swept, r.err, first)
	}
	if puts := gs.puts.Load(); puts != 1 {
		t.Fatalf("cancelled sweep made %d Puts, want 1", puts)
	}
	if live, parked := m.Counts(); live != n-1 || parked != 1 {
		t.Fatalf("Counts = (%d, %d), want (%d, 1)", live, parked, n-1)
	}
}

// repairGate is a replica that records the history length of every Put
// it lands, in landing order, and holds the first Put after arm until
// release is closed, announcing it on held.
type repairGate struct {
	persist.Store
	armed   atomic.Bool
	held    chan struct{}
	release chan struct{}
	mu      sync.Mutex
	landed  []int
}

func (g *repairGate) Put(ctx context.Context, id string, snap *persist.Snapshot) error {
	if g.armed.CompareAndSwap(true, false) {
		close(g.held)
		<-g.release
	}
	err := g.Store.Put(ctx, id, snap)
	if err == nil {
		g.mu.Lock()
		g.landed = append(g.landed, len(snap.History))
		g.mu.Unlock()
	}
	return err
}

// TestManagerResumeReadsUnderSourceLock: resuming from a session this
// manager hosts live forks the live session under its entry lock and
// reads nothing from the store. The fork waits for a request that holds
// the lock — here a checkpoint whose replica Put is held — and then
// carries every round the source submitted, not the older stored copy,
// and re-presents the source's pending round. The resume makes no Put
// of its own: over a replica set where one replica lost the source's
// snapshot, the only Put that replica sees is the checkpoint's.
func TestManagerResumeReadsUnderSourceLock(t *testing.T) {
	ctx := context.Background()
	gate := &repairGate{Store: persist.NewMemStore(), held: make(chan struct{}), release: make(chan struct{})}
	ms, err := persist.NewMultiStore([]persist.Store{persist.NewMemStore(), persist.NewMemStore(), gate}, 0)
	if err != nil {
		t.Fatal(err)
	}
	m := NewManager(Options{Store: ms, Retry: RetryPolicy{MaxAttempts: 1}})
	src, err := m.Create(ctx, testSpec())
	if err != nil {
		t.Fatal(err)
	}
	playRound(t, m, src.ID)
	if _, err := m.Snapshot(ctx, src.ID); err != nil {
		t.Fatal(err)
	}
	playRound(t, m, src.ID) // live: 2 rounds; stored: 1
	pending, err := m.Next(ctx, src.ID)
	if err != nil {
		t.Fatal(err)
	}
	// The gated replica loses its copy: a store read would repair it.
	if err := gate.Store.Delete(ctx, src.ID); err != nil {
		t.Fatal(err)
	}
	gate.mu.Lock()
	gate.landed = nil
	gate.mu.Unlock()
	gate.armed.Store(true)

	checkpointed := make(chan error, 1)
	go func() {
		_, err := m.Snapshot(ctx, src.ID)
		checkpointed <- err
	}()
	<-gate.held // the checkpoint holds the source's entry lock
	resumed := make(chan Info, 1)
	go func() {
		info, err := m.Resume(ctx, src.ID, testSpec())
		if err != nil {
			t.Errorf("resume: %v", err)
		}
		resumed <- info
	}()
	select {
	case <-resumed:
		t.Fatal("the resume forked the source while a checkpoint held its entry lock")
	case <-time.After(200 * time.Millisecond):
	}
	close(gate.release)
	if err := <-checkpointed; err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	fork := <-resumed
	if fork.Rounds != 2 {
		t.Fatalf("fork has %d rounds, want the live source's 2", fork.Rounds)
	}
	again, err := m.Next(ctx, fork.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(again) != len(pending) {
		t.Fatalf("fork presented %d pairs, the source's pending round %d", len(again), len(pending))
	}
	for i := range again {
		if again[i].A != pending[i].A || again[i].B != pending[i].B {
			t.Fatalf("fork presented %v, the source's pending round %v", again, pending)
		}
	}
	gate.mu.Lock()
	landed := append([]int(nil), gate.landed...)
	gate.mu.Unlock()
	if len(landed) != 1 || landed[0] != 2 {
		t.Fatalf("gated replica landed Puts of %v rounds, want the checkpoint's 2 only", landed)
	}
}

// TestManagerResumeKeepsParkedSourceParked: resuming from a parked
// session reads its snapshot without unparking it. The source stays
// parked, no other session is evicted to make room for it, and a
// request that would unpark it waits until the read (with the replica
// repair Put it makes) is done.
func TestManagerResumeKeepsParkedSourceParked(t *testing.T) {
	ctx := context.Background()
	m := NewManager(Options{})
	src, err := m.Create(ctx, testSpec())
	if err != nil {
		t.Fatal(err)
	}
	playRound(t, m, src.ID)
	if err := m.Evict(ctx, src.ID); err != nil {
		t.Fatal(err)
	}
	if h := m.Health(); h.Live != 0 || h.Parked != 1 {
		t.Fatalf("before the resume: live=%d parked=%d, want 0 and 1", h.Live, h.Parked)
	}
	if _, err := m.Resume(ctx, src.ID, testSpec()); err != nil {
		t.Fatal(err)
	}
	if h := m.Health(); h.Live != 1 || h.Parked != 1 {
		t.Fatalf("after the resume: live=%d parked=%d, want 1 and 1 (the source stays parked)", h.Live, h.Parked)
	}

	// At MaxSessions, the resumed session takes the one free slot: the
	// other live session is not evicted for the source.
	full := NewManager(Options{MaxSessions: 2})
	src, err = full.Create(ctx, testSpec())
	if err != nil {
		t.Fatal(err)
	}
	playRound(t, full, src.ID)
	other, err := full.Create(ctx, testSpec())
	if err != nil {
		t.Fatal(err)
	}
	if err := full.Evict(ctx, src.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := full.Resume(ctx, src.ID, testSpec()); err != nil {
		t.Fatal(err)
	}
	if info, err := full.Get(ctx, other.ID); err != nil || info.Parked {
		t.Fatalf("the other session: %+v, %v; want it live", info, err)
	}
	if h := full.Health(); h.Live != 2 || h.Parked != 1 {
		t.Fatalf("at capacity: live=%d parked=%d, want 2 and 1", h.Live, h.Parked)
	}

	// Over a replica set, the read repairs a replica that lost the
	// snapshot; a request for the parked source waits for that Put.
	gate := &repairGate{Store: persist.NewMemStore(), held: make(chan struct{}), release: make(chan struct{})}
	ms, err := persist.NewMultiStore([]persist.Store{persist.NewMemStore(), persist.NewMemStore(), gate}, 0)
	if err != nil {
		t.Fatal(err)
	}
	rm := NewManager(Options{Store: ms, Retry: RetryPolicy{MaxAttempts: 1}})
	src, err = rm.Create(ctx, testSpec())
	if err != nil {
		t.Fatal(err)
	}
	playRound(t, rm, src.ID)
	if err := rm.Evict(ctx, src.ID); err != nil {
		t.Fatal(err)
	}
	if err := gate.Store.Delete(ctx, src.ID); err != nil {
		t.Fatal(err)
	}
	gate.armed.Store(true)
	resumed := make(chan error, 1)
	go func() {
		_, err := rm.Resume(ctx, src.ID, testSpec())
		resumed <- err
	}()
	<-gate.held // the repair Put is in flight
	unparked := make(chan error, 1)
	go func() {
		_, err := rm.Next(ctx, src.ID)
		unparked <- err
	}()
	select {
	case err := <-unparked:
		t.Fatalf("the source unparked (err %v) while the resume's read was in flight", err)
	case <-time.After(200 * time.Millisecond):
	}
	if info, err := rm.Get(ctx, src.ID); err != nil || !info.Parked || info.Rounds != 1 {
		t.Fatalf("source during the read: %+v, %v; want parked with 1 round", info, err)
	}
	close(gate.release)
	if err := <-resumed; err != nil {
		t.Fatalf("resume: %v", err)
	}
	if err := <-unparked; err != nil {
		t.Fatalf("next on the source after the read: %v", err)
	}
	if h := rm.Health(); h.Live != 2 || h.Parked != 0 {
		t.Fatalf("after both: live=%d parked=%d, want 2 and 0", h.Live, h.Parked)
	}
}
