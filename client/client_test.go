package client_test

// Acceptance tests: the public client against an in-process service
// server. They live in package client_test and drive the real HTTP
// stack end to end, so they double as contract tests between the two
// independent implementations of the wire format.

import (
	"context"
	"errors"
	"net/http/httptest"
	"testing"
	"time"

	"exptrain/client"
	"exptrain/internal/service"
)

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

func newStack(t *testing.T, opts service.Options) (*service.Manager, *client.Client) {
	t.Helper()
	m := service.NewManager(opts)
	ts := httptest.NewServer(service.NewServer(m, service.ServerOptions{}))
	t.Cleanup(ts.Close)
	c := client.New(ts.URL, client.Options{
		HTTP:  ts.Client(),
		Retry: client.RetryPolicy{MaxAttempts: 3, MaxWait: 20 * time.Millisecond},
	})
	return m, c
}

func TestClientInteractiveRoundTrip(t *testing.T) {
	_, c := newStack(t, service.Options{})
	ctx := context.Background()

	info, err := c.Create(ctx, client.CreateSession{CSV: testCSV, Method: "Random", K: 3, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if info.ID == "" || info.Rows != 8 {
		t.Fatalf("create: %+v", info)
	}

	pairs, err := c.Next(ctx, info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 3 || len(pairs[0].ATuple) != 3 {
		t.Fatalf("next: %+v", pairs)
	}
	labels := make([]client.Labeling, len(pairs))
	for i, p := range pairs {
		labels[i] = client.Labeling{Pair: [2]int{p.A, p.B}}
	}
	info, err = c.Submit(ctx, info.ID, 0, labels)
	if err != nil {
		t.Fatal(err)
	}
	if info.Rounds != 1 {
		t.Fatalf("after submit: %+v", info)
	}

	// Idempotency over the wire: the identical retry succeeds without
	// advancing; a different replay is a round_mismatch.
	if info, err = c.Submit(ctx, info.ID, 0, labels); err != nil || info.Rounds != 1 {
		t.Fatalf("identical replay: %+v, %v", info, err)
	}
	altered := append([]client.Labeling(nil), labels...)
	altered[0].Marked = []int{1}
	if _, err := c.Submit(ctx, info.ID, 0, altered); !errors.Is(err, client.ErrRoundMismatch) {
		t.Fatalf("altered replay: %v, want ErrRoundMismatch", err)
	}
	if _, err := c.Submit(ctx, info.ID, 5, nil); !errors.Is(err, client.ErrRoundMismatch) {
		t.Fatalf("future round: %v, want ErrRoundMismatch", err)
	}

	rounds, err := c.Rounds(ctx, info.ID)
	if err != nil || len(rounds) != 1 || rounds[0].Labeled != 3 {
		t.Fatalf("rounds: %+v, %v", rounds, err)
	}
	hyps, err := c.Belief(ctx, info.ID, 3)
	if err != nil || len(hyps) != 3 {
		t.Fatalf("belief: %+v, %v", hyps, err)
	}
	if _, err := c.Session(ctx, "sess-none"); !errors.Is(err, client.ErrNotFound) {
		t.Fatalf("missing session: %v, want ErrNotFound", err)
	}
}

func TestClientEnqueueAndStream(t *testing.T) {
	_, c := newStack(t, service.Options{})
	ctx := context.Background()

	info, err := c.Create(ctx, client.CreateSession{CSV: testCSV, Method: "Random", K: 3, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}

	// The enqueue applies the whole window before it answers, and the
	// stream then replays it: "done" closes the stream at pool
	// exhaustion (seed 11 blocks testCSV into 12 candidate pairs: 4
	// rounds at K=3).
	subs := make([]client.Submission, 4)
	for r := range subs {
		subs[r] = client.Submission{Round: r}
	}
	tickets, err := c.Enqueue(ctx, info.ID, subs)
	if err != nil {
		t.Fatal(err)
	}
	if len(tickets) != 4 {
		t.Fatalf("tickets: %+v", tickets)
	}
	for _, tk := range tickets {
		if tk.State != "applied" {
			t.Fatalf("ticket %+v, want applied", tk)
		}
		if polled, err := c.Ticket(ctx, info.ID, tk.ID); err != nil || polled != tk {
			t.Fatalf("polled ticket %+v (err %v), want %+v", polled, err, tk)
		}
	}

	var got []int
	err = c.StreamRounds(ctx, info.ID, 0, func(ev client.StreamEvent) error {
		if ev.Type == "round" {
			got = append(got, ev.Round.Round)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("stream: %v", err)
	}
	if len(got) != 4 {
		t.Fatalf("streamed rounds %v, want 0..3", got)
	}
	for i, r := range got {
		if r != i {
			t.Fatalf("streamed rounds %v: gap or duplicate at %d", got, i)
		}
	}

	// Resume mid-series: from=2 delivers exactly rounds 2 and 3.
	got = got[:0]
	if err := c.StreamRounds(ctx, info.ID, 2, func(ev client.StreamEvent) error {
		if ev.Type == "round" {
			got = append(got, ev.Round.Round)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != 2 || got[1] != 3 {
		t.Fatalf("resumed rounds %v, want [2 3]", got)
	}
}

func TestClientBackpressureAndSentinels(t *testing.T) {
	m, c := newStack(t, service.Options{})
	ctx := context.Background()
	info, err := c.Create(ctx, client.CreateSession{CSV: testCSV, Method: "Random", K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Submit(ctx, info.ID, 0, nil); !errors.Is(err, client.ErrNoRoundPending) {
		t.Fatalf("submit before next: %v, want ErrNoRoundPending", err)
	}

	if err := m.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, err = c.Create(ctx, client.CreateSession{CSV: testCSV, Method: "Random", K: 3})
	if !errors.Is(err, client.ErrShuttingDown) {
		t.Fatalf("create on drained server: %v, want ErrShuttingDown", err)
	}
	// The 503 is retryable: the client must have slept between its
	// bounded attempts (MaxWait 20ms, Retry-After capped by it).
	if elapsed := time.Since(start); elapsed < 40*time.Millisecond {
		t.Fatalf("drained create returned after %v; backpressure retries not taken", elapsed)
	}
	var apiErr *client.Error
	if !errors.As(err, &apiErr) || apiErr.RetryAfter <= 0 {
		t.Fatalf("error %v carries no Retry-After", err)
	}
}
