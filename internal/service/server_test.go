package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"exptrain/internal/persist"
	"exptrain/internal/sampling"
)

// client is a thin JSON helper over the httptest server.
type client struct {
	t    *testing.T
	base string
	http *http.Client
}

func newClient(t *testing.T, ts *httptest.Server) *client {
	return &client{t: t, base: ts.URL, http: ts.Client()}
}

// do issues a request and decodes the response into out (if non-nil),
// returning the status code and raw body.
func (c *client) do(method, path string, body, out any) (int, []byte) {
	c.t.Helper()
	var rd io.Reader
	if body != nil {
		buf, err := json.Marshal(body)
		if err != nil {
			c.t.Fatal(err)
		}
		rd = bytes.NewReader(buf)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		c.t.Fatal(err)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		c.t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		c.t.Fatal(err)
	}
	if out != nil && resp.StatusCode < 300 {
		if err := json.Unmarshal(raw, out); err != nil {
			c.t.Fatalf("%s %s: decoding %q: %v", method, path, raw, err)
		}
	}
	return resp.StatusCode, raw
}

// expect is do plus a status assertion.
func (c *client) expect(status int, method, path string, body, out any) []byte {
	c.t.Helper()
	got, raw := c.do(method, path, body, out)
	if got != status {
		c.t.Fatalf("%s %s: status %d, want %d; body %s", method, path, got, status, raw)
	}
	return raw
}

type nextResponse struct {
	Pairs []PairView `json:"pairs"`
}

// playHTTPRound runs one next+submit cycle over the wire, marking
// nothing erroneous.
func (c *client) playHTTPRound(id string) Info {
	c.t.Helper()
	var next nextResponse
	c.expect(http.StatusOK, "POST", "/v1/sessions/"+id+"/next", nil, &next)
	labels := make([]LabelingWire, len(next.Pairs))
	for i, p := range next.Pairs {
		labels[i] = LabelingWire{Pair: [2]int{p.A, p.B}}
	}
	var info Info
	c.expect(http.StatusOK, "GET", "/v1/sessions/"+id, nil, &info) // live after next: Rounds is the round being played
	c.expect(http.StatusOK, "POST", "/v1/sessions/"+id+"/submit", SubmitRequest{Round: &info.Rounds, Labels: labels}, &info)
	return info
}

func newTestServer(t *testing.T, opts Options) (*Manager, *client, *httptest.Server) {
	t.Helper()
	m := NewManager(opts)
	ts := httptest.NewServer(NewServer(m, ServerOptions{}))
	t.Cleanup(ts.Close)
	return m, newClient(t, ts), ts
}

func TestServerRoundTrip(t *testing.T) {
	m, c, _ := newTestServer(t, Options{})

	var info Info
	c.expect(http.StatusCreated, "POST", "/v1/sessions",
		CreateRequest{CSV: testCSV, Method: sampling.MethodRandom, K: 3, Seed: 7}, &info)
	if info.Rows != 8 || info.ID == "" {
		t.Fatalf("create: %+v", info)
	}

	info = c.playHTTPRound(info.ID)
	if info.Rounds != 1 {
		t.Fatalf("after round: %+v", info)
	}

	var belief struct {
		Hypotheses []HypothesisView `json:"hypotheses"`
	}
	c.expect(http.StatusOK, "GET", "/v1/sessions/"+info.ID+"/belief?k=3", nil, &belief)
	if len(belief.Hypotheses) != 3 {
		t.Fatalf("belief: %+v", belief)
	}
	var repairs struct {
		Repairs []RepairView `json:"repairs"`
	}
	c.expect(http.StatusOK, "GET", "/v1/sessions/"+info.ID+"/repairs?tau=0.4", nil, &repairs)

	var snap struct {
		Snapshot string `json:"snapshot"`
	}
	c.expect(http.StatusOK, "POST", "/v1/sessions/"+info.ID+"/snapshot", nil, &snap)
	if _, err := m.Store().Get(context.Background(), snap.Snapshot); err != nil {
		t.Fatalf("snapshot %q not in store: %v", snap.Snapshot, err)
	}

	var list struct {
		Sessions []Info `json:"sessions"`
	}
	c.expect(http.StatusOK, "GET", "/v1/sessions", nil, &list)
	if len(list.Sessions) != 1 {
		t.Fatalf("list: %+v", list)
	}
}

func TestServerStatusMapping(t *testing.T) {
	_, c, _ := newTestServer(t, Options{})

	kind := func(raw []byte) string {
		var e APIError
		if err := json.Unmarshal(raw, &e); err != nil {
			t.Fatalf("error body %q: %v", raw, err)
		}
		return e.Kind
	}

	if raw := c.expect(http.StatusNotFound, "GET", "/v1/sessions/sess-999", nil, nil); kind(raw) != "not_found" {
		t.Fatalf("kind = %s", kind(raw))
	}
	// Unknown sampling method name → 400 at decode time.
	resp0, err := http.Post(c.base+"/v1/sessions", "application/json",
		strings.NewReader(`{"csv":"a,b\n1,2\n","method":"Bogus"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp0.Body.Close()
	if resp0.StatusCode != http.StatusBadRequest {
		t.Fatalf("bogus method: status %d", resp0.StatusCode)
	}
	// A negative temperature → 400 bad_request at create time, not a
	// session whose every next panics.
	if raw := c.expect(http.StatusBadRequest, "POST", "/v1/sessions",
		CreateRequest{CSV: testCSV, Method: sampling.MethodStochasticUS, Gamma: -1}, nil); kind(raw) != "bad_request" {
		t.Fatalf("gamma -1: kind = %s", kind(raw))
	}
	c.expect(http.StatusBadRequest, "POST", "/v1/sessions",
		CreateRequest{Dataset: "OMDB", CSV: testCSV}, nil) // both sources
	c.expect(http.StatusBadRequest, "POST", "/v1/sessions", CreateRequest{}, nil)

	var info Info
	c.expect(http.StatusCreated, "POST", "/v1/sessions",
		CreateRequest{CSV: testCSV, Method: sampling.MethodRandom, K: 3, Seed: 7}, &info)
	id := info.ID

	// Submit before next → 409 no_round_pending.
	round := 0
	if raw := c.expect(http.StatusConflict, "POST", "/v1/sessions/"+id+"/submit",
		SubmitRequest{Round: &round}, nil); kind(raw) != "no_round_pending" {
		t.Fatalf("kind = %s", kind(raw))
	}
	// A submit without a round, or with a negative one → 400 bad_request.
	for _, body := range []string{`{"labels":[]}`, `{"round":-1,"labels":[]}`} {
		resp, err := http.Post(c.base+"/v1/sessions/"+id+"/submit", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || kind(raw) != "bad_request" {
			t.Fatalf("submit %s: status %d body %s, want 400 bad_request", body, resp.StatusCode, raw)
		}
	}
	// Double next → 409 round_pending.
	var pending nextResponse
	c.expect(http.StatusOK, "POST", "/v1/sessions/"+id+"/next", nil, &pending)
	if raw := c.expect(http.StatusConflict, "POST", "/v1/sessions/"+id+"/next", nil, nil); kind(raw) != "round_pending" {
		t.Fatalf("kind = %s", kind(raw))
	}
	// Malformed JSON → 400.
	resp, err := http.Post(c.base+"/v1/sessions", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed JSON: status %d", resp.StatusCode)
	}

	// Submit the round left pending above, then drain the 28-pair pool
	// (K=3) until the service answers 410 pool_exhausted.
	labels := make([]LabelingWire, len(pending.Pairs))
	for i, p := range pending.Pairs {
		labels[i] = LabelingWire{Pair: [2]int{p.A, p.B}}
	}
	c.expect(http.StatusOK, "POST", "/v1/sessions/"+id+"/submit", SubmitRequest{Round: &round, Labels: labels}, nil)
	for round = 1; ; round++ {
		if round > 30 {
			t.Fatal("pool never exhausted")
		}
		var n nextResponse
		status, raw := c.do("POST", "/v1/sessions/"+id+"/next", nil, &n)
		if status == http.StatusGone {
			var e APIError
			if err := json.Unmarshal(raw, &e); err != nil || e.Kind != "pool_exhausted" {
				t.Fatalf("exhausted body %s (err %v)", raw, err)
			}
			return
		}
		if status != http.StatusOK {
			t.Fatalf("next: status %d body %s", status, raw)
		}
		labels := make([]LabelingWire, len(n.Pairs))
		for i, p := range n.Pairs {
			labels[i] = LabelingWire{Pair: [2]int{p.A, p.B}}
		}
		c.expect(http.StatusOK, "POST", "/v1/sessions/"+id+"/submit", SubmitRequest{Round: &round, Labels: labels}, nil)
	}
}

// TestServerConcurrentSessions is the acceptance-criteria test: 64
// concurrent sessions, each completing create → next → submit →
// snapshot over HTTP under -race.
func TestServerConcurrentSessions(t *testing.T) {
	const sessions = 64
	m, c, _ := newTestServer(t, Options{MaxSessions: sessions})

	var wg sync.WaitGroup
	errCh := make(chan error, sessions)
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			fail := func(stage string, detail any) {
				errCh <- fmt.Errorf("session %d %s: %v", i, stage, detail)
			}
			var info Info
			status, raw := c.do("POST", "/v1/sessions", CreateRequest{
				Dataset: "OMDB", Rows: 60, Method: sampling.MethodStochasticUS, K: 4, Seed: uint64(i),
			}, &info)
			if status != http.StatusCreated {
				fail("create", string(raw))
				return
			}
			id := info.ID
			var next nextResponse
			if status, raw := c.do("POST", "/v1/sessions/"+id+"/next", nil, &next); status != http.StatusOK {
				fail("next", string(raw))
				return
			}
			labels := make([]LabelingWire, len(next.Pairs))
			for j, p := range next.Pairs {
				labels[j] = LabelingWire{Pair: [2]int{p.A, p.B}}
			}
			round := 0
			if status, raw := c.do("POST", "/v1/sessions/"+id+"/submit", SubmitRequest{Round: &round, Labels: labels}, &info); status != http.StatusOK {
				fail("submit", string(raw))
				return
			}
			if info.Rounds != 1 {
				fail("submit", fmt.Sprintf("rounds = %d", info.Rounds))
				return
			}
			var snap struct {
				Snapshot string `json:"snapshot"`
			}
			if status, raw := c.do("POST", "/v1/sessions/"+id+"/snapshot", nil, &snap); status != http.StatusOK {
				fail("snapshot", string(raw))
				return
			}
			got, err := m.Store().Get(context.Background(), snap.Snapshot)
			if err != nil {
				fail("store", err)
				return
			}
			if len(got.History) != 1 {
				fail("store", fmt.Sprintf("history = %d rounds", len(got.History)))
			}
		}(i)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	if live, _ := m.Counts(); live != sessions {
		t.Fatalf("live = %d, want %d", live, sessions)
	}
}

func TestServerIdleEvictionAndResumeOverHTTP(t *testing.T) {
	m, c, _ := newTestServer(t, Options{IdleTTL: time.Minute})
	clock := time.Unix(5000, 0)
	m.setNow(func() time.Time { return clock })

	var info Info
	c.expect(http.StatusCreated, "POST", "/v1/sessions",
		CreateRequest{CSV: testCSV, Method: sampling.MethodRandom, K: 3, Seed: 7}, &info)
	id := info.ID
	c.playHTTPRound(id)

	clock = clock.Add(2 * time.Minute)
	swept, err := m.Sweep(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(swept) != 1 || swept[0] != id {
		t.Fatalf("Sweep = %v", swept)
	}
	snap, err := m.Store().Get(context.Background(), id)
	if err != nil {
		t.Fatalf("evicted session not recoverable: %v", err)
	}
	if len(snap.History) != 1 {
		t.Fatalf("snapshot lost the submitted round: %d", len(snap.History))
	}
	c.expect(http.StatusOK, "GET", "/v1/sessions/"+id, nil, &info)
	if !info.Parked {
		t.Fatalf("expected parked: %+v", info)
	}
	// Next request transparently resumes the parked session.
	info = c.playHTTPRound(id)
	if info.Parked || info.Rounds != 2 {
		t.Fatalf("after resume: %+v", info)
	}
}

func TestServerResumeAcrossManagers(t *testing.T) {
	store := persist.NewMemStore()
	_, c1, ts1 := newTestServer(t, Options{Store: store})

	var info Info
	c1.expect(http.StatusCreated, "POST", "/v1/sessions",
		CreateRequest{CSV: testCSV, Method: sampling.MethodRandom, K: 3, Seed: 7}, &info)
	c1.playHTTPRound(info.ID)
	c1.expect(http.StatusOK, "POST", "/v1/sessions/"+info.ID+"/snapshot", nil, nil)
	ts1.Close()

	// A brand-new manager over the same store resumes the checkpoint:
	// the client re-supplies the data source, the store supplies the
	// history and beliefs.
	_, c2, _ := newTestServer(t, Options{Store: store})
	var resumed Info
	c2.expect(http.StatusCreated, "POST", "/v1/sessions",
		CreateRequest{CSV: testCSV, Method: sampling.MethodRandom, K: 3, Seed: 7, Resume: info.ID}, &resumed)
	if resumed.Rounds != 1 {
		t.Fatalf("resumed: %+v", resumed)
	}
	got := c2.playHTTPRound(resumed.ID)
	if got.Rounds != 2 {
		t.Fatalf("after resumed round: %+v", got)
	}
	// Resuming a snapshot the store has never seen → 404.
	c2.expect(http.StatusNotFound, "POST", "/v1/sessions",
		CreateRequest{CSV: testCSV, Method: sampling.MethodRandom, K: 3, Seed: 7, Resume: "sess-none"}, nil)
}

func TestServerGracefulShutdownLosesNoSubmittedRound(t *testing.T) {
	m, c, _ := newTestServer(t, Options{})

	var ids []string
	for i := 0; i < 4; i++ {
		var info Info
		c.expect(http.StatusCreated, "POST", "/v1/sessions",
			CreateRequest{Dataset: "OMDB", Rows: 60, Method: sampling.MethodStochasticUS, K: 4, Seed: uint64(i)}, &info)
		c.playHTTPRound(info.ID)
		ids = append(ids, info.ID)
	}
	// One session is mid-round (presented, unsubmitted) at shutdown.
	c.expect(http.StatusOK, "POST", "/v1/sessions/"+ids[0]+"/next", nil, nil)

	if err := m.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		snap, err := m.Store().Get(context.Background(), id)
		if err != nil {
			t.Fatalf("session %s not checkpointed at shutdown: %v", id, err)
		}
		if len(snap.History) != 1 {
			t.Fatalf("session %s: %d rounds in snapshot, want 1", id, len(snap.History))
		}
	}
	// The drained server answers every session request with 503.
	raw := c.expect(http.StatusServiceUnavailable, "POST", "/v1/sessions",
		CreateRequest{CSV: testCSV, Method: sampling.MethodRandom, K: 3}, nil)
	var e APIError
	if err := json.Unmarshal(raw, &e); err != nil || e.Kind != "shutting_down" {
		t.Fatalf("shutdown body %s (err %v)", raw, err)
	}
	c.expect(http.StatusServiceUnavailable, "POST", "/v1/sessions/"+ids[1]+"/next", nil, nil)
}
