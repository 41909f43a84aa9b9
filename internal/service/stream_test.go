package service

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"
)

// sseFrame is one parsed Server-Sent Events frame (or a comment, for
// which only Comment is set).
type sseFrame struct {
	Event   string
	ID      int // -1 when the frame carried no id line
	Data    string
	Comment string
}

// readFrame blocks until one SSE frame (or comment block) is read.
func readFrame(rd *bufio.Reader) (sseFrame, error) {
	f := sseFrame{ID: -1}
	seen := false
	for {
		line, err := rd.ReadString('\n')
		if err != nil {
			return f, err
		}
		line = strings.TrimRight(line, "\n")
		switch {
		case line == "":
			if seen {
				return f, nil
			}
		case strings.HasPrefix(line, ": "):
			f.Comment = strings.TrimPrefix(line, ": ")
			seen = true
		case strings.HasPrefix(line, "event: "):
			f.Event = strings.TrimPrefix(line, "event: ")
			seen = true
		case strings.HasPrefix(line, "id: "):
			n, err := strconv.Atoi(strings.TrimPrefix(line, "id: "))
			if err != nil {
				return f, fmt.Errorf("bad id line %q: %w", line, err)
			}
			f.ID = n
			seen = true
		case strings.HasPrefix(line, "data: "):
			f.Data = strings.TrimPrefix(line, "data: ")
			seen = true
		default:
			return f, fmt.Errorf("unexpected SSE line %q", line)
		}
	}
}

// dialStream opens the SSE stream for a session, optionally resuming
// with Last-Event-ID (pass -1 for a fresh stream).
func dialStream(t *testing.T, ts *httptest.Server, id string, lastEventID int) (*http.Response, *bufio.Reader) {
	t.Helper()
	req, err := http.NewRequest("GET", ts.URL+"/v1/sessions/"+id+"/rounds?stream=1", nil)
	if err != nil {
		t.Fatal(err)
	}
	if lastEventID >= 0 {
		req.Header.Set("Last-Event-ID", strconv.Itoa(lastEventID))
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		defer resp.Body.Close()
		t.Fatalf("stream status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("stream Content-Type %q", ct)
	}
	return resp, bufio.NewReader(resp.Body)
}

// TestStreamLiveDelivery races two concurrent enqueue windows against
// one attached stream: every round must arrive as an `event: round`
// with its index as the SSE id, in order, exactly once, interleaved
// with `event: pairs` announcements, and the session's completion must
// close the stream with `event: done`.
func TestStreamLiveDelivery(t *testing.T) {
	m := NewManager(Options{})
	ts := httptest.NewServer(NewServer(m, ServerOptions{StreamHeartbeat: 25 * time.Millisecond}))
	t.Cleanup(ts.Close)
	ctx := context.Background()

	info, err := m.Create(ctx, testSpec())
	if err != nil {
		t.Fatal(err)
	}
	resp, rd := dialStream(t, ts, info.ID, -1)
	defer resp.Body.Close()

	// Round 0 is played interactively so the stream observes a pending
	// round (pool-driven rounds present and submit under one lock hold,
	// so only interactive /next exposes pairs frames). The submit waits
	// until the pairs frame actually arrived.
	if _, err := m.Next(ctx, info.ID); err != nil {
		t.Fatal(err)
	}
	sawPairs := false
	for !sawPairs {
		f, err := readFrame(rd)
		if err != nil {
			t.Fatalf("waiting for pairs frame: %v", err)
		}
		if f.Event == "pairs" {
			if f.ID != -1 {
				t.Fatalf("pairs frame carries id %d; advisory frames must not advance Last-Event-ID", f.ID)
			}
			var pe struct {
				Round int        `json:"round"`
				Pairs []PairView `json:"pairs"`
			}
			if err := json.Unmarshal([]byte(f.Data), &pe); err != nil || pe.Round != 0 || len(pe.Pairs) == 0 {
				t.Fatalf("pairs payload %q (err %v)", f.Data, err)
			}
			sawPairs = true
		}
	}
	if _, err := m.Submit(ctx, info.ID, 0, nil); err != nil {
		t.Fatal(err)
	}
	// The rest of the window, split across concurrent enqueues arriving
	// in arbitrary order; the pool's round ordering serializes them.
	for _, win := range [][2]int{{3, 4}, {1, 3}} {
		go func(lo, hi int) {
			if _, err := m.EnqueueSubmissions(ctx, info.ID, abstainWindow(lo, hi)); err != nil {
				t.Errorf("enqueue [%d,%d): %v", lo, hi, err)
			}
		}(win[0], win[1])
	}

	wantRound, sawHeartbeat := 0, false
	for {
		f, err := readFrame(rd)
		if err != nil {
			t.Fatalf("after round %d: %v", wantRound, err)
		}
		switch {
		case f.Comment != "":
			sawHeartbeat = true
		case f.Event == "round":
			if f.ID != wantRound {
				t.Fatalf("round event id %d, want %d (exactly-once ordering)", f.ID, wantRound)
			}
			var rv RoundView
			if err := json.Unmarshal([]byte(f.Data), &rv); err != nil || rv.Round != f.ID {
				t.Fatalf("round payload %q (err %v)", f.Data, err)
			}
			wantRound++
		case f.Event == "pairs":
			if f.ID != -1 {
				t.Fatalf("pairs frame carries id %d; advisory frames must not advance Last-Event-ID", f.ID)
			}
			sawPairs = true
		case f.Event == "done":
			if wantRound != 4 {
				t.Fatalf("done after %d rounds, want 4", wantRound)
			}
			if !sawPairs {
				t.Fatal("no pairs frame before completion")
			}
			// The server closes after done.
			if _, err := readFrame(rd); err == nil {
				t.Fatal("stream stayed open after done")
			}
			_ = sawHeartbeat // heartbeats are timing-dependent; presence not asserted
			return
		default:
			t.Fatalf("unexpected frame %+v", f)
		}
	}
}

// TestStreamResumeExactlyOnce is the satellite acceptance test: a
// client that disconnects mid-stream and reconnects with Last-Event-ID
// receives every round exactly once across the two connections — with
// the session parked by a sweep in between (the cursor lives in the
// client, not the entry) and a concurrent enqueue applying the tail of
// the window during the second connection.
func TestStreamResumeExactlyOnce(t *testing.T) {
	m := NewManager(Options{IdleTTL: time.Minute})
	ts := httptest.NewServer(NewServer(m, ServerOptions{}))
	t.Cleanup(ts.Close)
	ctx := context.Background()

	info, err := m.Create(ctx, datasetSpec(5))
	if err != nil {
		t.Fatal(err)
	}
	id := info.ID
	tickets, err := m.EnqueueSubmissions(ctx, id, abstainWindow(0, 6))
	if err != nil {
		t.Fatal(err)
	}
	for _, tk := range tickets {
		if got := readTicket(t, m, id, tk.ID); got.State != TicketApplied {
			t.Fatalf("round %d: %+v", tk.Round, got)
		}
	}

	// Connection 1: read the first three rounds, then vanish.
	resp1, rd1 := dialStream(t, ts, id, -1)
	last := -1
	for last < 2 {
		f, err := readFrame(rd1)
		if err != nil {
			t.Fatal(err)
		}
		if f.Event == "round" {
			if f.ID != last+1 {
				t.Fatalf("conn1 round id %d, want %d", f.ID, last+1)
			}
			last = f.ID
		}
	}
	resp1.Body.Close()

	// Park the session while no stream is attached: the resume cursor
	// must survive eviction because it lives in Last-Event-ID, and the
	// reconnect must transparently unpark.
	base := time.Now()
	m.setNow(func() time.Time { return base.Add(2 * time.Minute) })
	swept, err := m.Sweep(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(swept) != 1 {
		t.Fatalf("sweep parked %v, want [%s]", swept, id)
	}

	// Connection 2 resumes after round `last`, while a concurrent
	// enqueue extends the window mid-stream.
	resp2, rd2 := dialStream(t, ts, id, last)
	defer resp2.Body.Close()
	go func() {
		if _, err := m.EnqueueSubmissions(ctx, id, abstainWindow(6, 10)); err != nil {
			t.Errorf("tail enqueue: %v", err)
		}
	}()
	for last < 9 {
		f, err := readFrame(rd2)
		if err != nil {
			t.Fatalf("conn2 after round %d: %v", last, err)
		}
		if f.Event == "round" {
			if f.ID != last+1 {
				t.Fatalf("conn2 round id %d, want %d — duplicate or gap across resume", f.ID, last+1)
			}
			last = f.ID
		}
	}
}

// TestStreamDrainClose: a draining manager says goodbye with
// `event: drain` instead of leaving clients to time out.
func TestStreamDrainClose(t *testing.T) {
	m := NewManager(Options{})
	ts := httptest.NewServer(NewServer(m, ServerOptions{}))
	t.Cleanup(ts.Close)
	ctx := context.Background()
	info, err := m.Create(ctx, testSpec())
	if err != nil {
		t.Fatal(err)
	}
	resp, rd := dialStream(t, ts, info.ID, -1)
	defer resp.Body.Close()

	done := make(chan error, 1)
	go func() { done <- m.Shutdown(ctx) }()
	for {
		f, err := readFrame(rd)
		if err != nil {
			t.Fatalf("before drain frame: %v", err)
		}
		if f.Event == "drain" {
			break
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestStreamErrors: pre-stream failures are plain JSON envelopes, and
// a malformed resume cursor is rejected up front.
func TestStreamErrors(t *testing.T) {
	_, c, ts := newTestServer(t, Options{})
	raw := c.expect(http.StatusNotFound, "GET", "/v1/sessions/sess-none/rounds?stream=1", nil, nil)
	var e APIError
	if err := json.Unmarshal(raw, &e); err != nil || e.Kind != KindNotFound {
		t.Fatalf("missing-session stream body %s (err %v)", raw, err)
	}

	req, err := http.NewRequest("GET", ts.URL+"/v1/sessions/sess-none/rounds?stream=1", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Last-Event-ID", "three")
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed Last-Event-ID: status %d, want 400", resp.StatusCode)
	}
}

// TestStreamResumePastTip: a Last-Event-ID at or past the session's
// round count resumes at the live tip — the next round applied is the
// first round frame — up to the largest id, whose successor must not
// wrap negative into a replay from round 0.
func TestStreamResumePastTip(t *testing.T) {
	m := NewManager(Options{})
	ts := httptest.NewServer(NewServer(m, ServerOptions{}))
	t.Cleanup(ts.Close)
	ctx := context.Background()
	info, err := m.Create(ctx, datasetSpec(5))
	if err != nil {
		t.Fatal(err)
	}
	id := info.ID
	if _, err := m.EnqueueSubmissions(ctx, id, abstainWindow(0, 3)); err != nil {
		t.Fatal(err)
	}
	tip := 3
	for _, lei := range []int{tip, 7, math.MaxInt} {
		resp, rd := dialStream(t, ts, id, lei)
		t.Cleanup(func() { resp.Body.Close() }) // before ts.Close, which waits for open streams
		if _, err := m.EnqueueSubmissions(ctx, id, abstainWindow(tip, tip+1)); err != nil {
			t.Fatal(err)
		}
		for {
			f, err := readFrame(rd)
			if err != nil {
				t.Fatalf("Last-Event-ID %d: %v", lei, err)
			}
			if f.Event == "round" {
				if f.ID != tip {
					t.Fatalf("Last-Event-ID %d: first round frame is round %d, want the live tip %d", lei, f.ID, tip)
				}
				break
			}
		}
		resp.Body.Close()
		tip++
	}
}
