package service

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// Streaming round delivery: GET /v1/sessions/{id}/rounds?stream=1
// upgrades the rounds endpoint to a Server-Sent Events stream. The
// server pushes each scored round as an `event: round` with the round
// index as its SSE id, so a client that reconnects with Last-Event-ID
// resumes exactly after the last round it saw — every round is
// delivered exactly once across any number of reconnects. Presented
// pairs ride along as id-less `event: pairs` (advisory, re-sent on
// reconnect), idle streams carry heartbeat comments, and a draining
// manager closes every stream with a final `event: drain` so clients
// fail over instead of waiting out a heartbeat.

// StreamChunk is one coherent observation of a session for streaming:
// the scored rounds from a cursor, plus whatever round is currently
// presented. Fetched under a single entry-lock acquisition so the
// round series and the pending pairs can never disagree.
type StreamChunk struct {
	// Rounds are the scored rounds with index >= the requested cursor.
	Rounds []RoundView
	// Total is the number of rounds scored so far (the next cursor).
	Total int
	// Pending holds the currently presented round's pairs (nil when no
	// round is pending); PendingRound is the round index they belong to
	// (== Total: the round being played now).
	Pending      []PairView
	PendingRound int
	// Remaining counts never-presented candidate pairs; 0 with no
	// pending round means the session is complete.
	Remaining int
}

// StreamChunk reads the session's stream state from a round cursor.
func (m *Manager) StreamChunk(ctx context.Context, id string, from int) (StreamChunk, error) {
	e, err := m.acquire(ctx, id)
	if err != nil {
		return StreamChunk{}, err
	}
	defer e.mu.Unlock()
	c := StreamChunk{
		Rounds:    renderRounds(e, max(from, 0)),
		Total:     e.sess.Rounds(),
		Remaining: e.sess.RemainingPairs(),
	}
	if pending := e.sess.Pending(); len(pending) > 0 {
		c.Pending = renderPairs(e.sess.Relation(), pending)
		c.PendingRound = e.sess.Rounds()
	}
	return c, nil
}

// subscribeStream registers a wakeup channel for the session's
// activity: notifyStreams pokes it (coalescing, capacity 1) whenever a
// round is presented or applied. The returned cancel must be called.
func (m *Manager) subscribeStream(id string) (<-chan struct{}, func()) {
	ch := make(chan struct{}, 1)
	m.streamMu.Lock()
	set := m.streams[id]
	if set == nil {
		set = make(map[chan struct{}]struct{})
		m.streams[id] = set
	}
	set[ch] = struct{}{}
	m.streamMu.Unlock()
	return ch, func() {
		m.streamMu.Lock()
		delete(m.streams[id], ch)
		if len(m.streams[id]) == 0 {
			delete(m.streams, id)
		}
		m.streamMu.Unlock()
	}
}

// notifyStreams wakes the session's attached streams. Non-blocking:
// a stream already poked and not yet drained needs no second poke.
func (m *Manager) notifyStreams(id string) {
	m.streamMu.Lock()
	for ch := range m.streams[id] {
		select {
		case ch <- struct{}{}:
		default:
		}
	}
	m.streamMu.Unlock()
}

// DrainSignal is closed when Shutdown begins; streams select on it to
// close promptly.
func (m *Manager) DrainSignal() <-chan struct{} { return m.drainSignal }

// sseWriter frames Server-Sent Events onto a flushing ResponseWriter.
type sseWriter struct {
	w http.ResponseWriter
	f http.Flusher
}

// event writes one SSE frame. id < 0 omits the id line, so the frame
// does not advance the client's Last-Event-ID (pairs, errors, drain —
// the advisory events a resume should not skip rounds over).
func (s sseWriter) event(name string, id int, data any) error {
	var b strings.Builder
	fmt.Fprintf(&b, "event: %s\n", name)
	if id >= 0 {
		fmt.Fprintf(&b, "id: %d\n", id)
	}
	payload, err := json.Marshal(data)
	if err != nil {
		return err
	}
	fmt.Fprintf(&b, "data: %s\n\n", payload)
	if _, err := s.w.Write([]byte(b.String())); err != nil {
		return err
	}
	s.f.Flush()
	return nil
}

// comment writes an SSE comment line (the heartbeat).
func (s sseWriter) comment(text string) error {
	if _, err := s.w.Write([]byte(": " + text + "\n\n")); err != nil {
		return err
	}
	s.f.Flush()
	return nil
}

// pairsEvent is the `event: pairs` payload: the presented round and
// its pairs, so a streaming client can label without polling /next.
type pairsEvent struct {
	Round int        `json:"round"`
	Pairs []PairView `json:"pairs"`
}

// doneEvent is the `event: done` payload, sent once when the session
// has presented every candidate pair and nothing is pending.
type doneEvent struct {
	Rounds int `json:"rounds"`
}

// handleStream serves GET /v1/sessions/{id}/rounds?stream=1.
//
// Wire contract (see API.md §SSE): `event: round` frames carry one
// RoundView each with `id:` set to the round index; a reconnecting
// client sends Last-Event-ID and receives exactly the rounds after it.
// `event: pairs` (no id) announces the currently presented round,
// `event: drain` (no id) announces manager shutdown, `event: done`
// (no id) announces session completion; `: hb` comments keep idle
// connections alive. Errors before the first frame are plain JSON
// envelopes; errors after are a final `event: error` frame carrying
// the same envelope.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, fmt.Errorf("streaming unsupported by this connection"))
		return
	}

	// Resume cursor: rounds strictly after Last-Event-ID (the standard
	// SSE reconnect header), or from 0. An id at or past the session's
	// round count resumes at the live tip; the clamp keeps the largest
	// id's successor from wrapping negative, which would replay from 0.
	from := 0
	if lei := r.Header.Get("Last-Event-ID"); lei != "" {
		n, err := strconv.Atoi(lei)
		if err != nil || n < 0 {
			writeError(w, badRequest(fmt.Errorf("malformed Last-Event-ID %q", lei)))
			return
		}
		from = min(n, math.MaxInt-1) + 1
	}

	// Subscribe before the initial fetch: an event landing between the
	// fetch and the subscription would otherwise be missed.
	wake, cancel := s.mgr.subscribeStream(id)
	defer cancel()

	fetch := func() (StreamChunk, error) {
		ctx, cancel := context.WithTimeout(r.Context(), s.opts.RequestTimeout)
		defer cancel()
		return s.mgr.StreamChunk(ctx, id, from)
	}

	chunk, err := fetch()
	if err != nil {
		writeError(w, err) // headers not sent yet: plain envelope
		return
	}

	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	flusher.Flush() // release the headers now; frames may be a while
	out := sseWriter{w: w, f: flusher}

	heartbeat := time.NewTicker(s.opts.StreamHeartbeat)
	defer heartbeat.Stop()

	// lastPairs dedupes pairs frames: a chunk fetched for a wakeup that
	// only scored rounds re-reports the same pending round.
	lastPairs := -1
	emit := func(c StreamChunk) (done bool, err error) {
		for _, rv := range c.Rounds {
			if err := out.event("round", rv.Round, rv); err != nil {
				return false, err
			}
		}
		from = c.Total
		if c.Pending != nil && c.PendingRound != lastPairs {
			lastPairs = c.PendingRound
			if err := out.event("pairs", -1, pairsEvent{Round: c.PendingRound, Pairs: c.Pending}); err != nil {
				return false, err
			}
		}
		if c.Remaining == 0 && c.Pending == nil {
			return true, out.event("done", -1, doneEvent{Rounds: c.Total})
		}
		return false, nil
	}

	if done, err := emit(chunk); done || err != nil {
		return
	}
	for {
		select {
		case <-r.Context().Done():
			return
		case <-s.mgr.DrainSignal():
			// Best-effort farewell so clients fail over immediately.
			_ = out.event("drain", -1, struct{}{})
			return
		case <-heartbeat.C:
			if err := out.comment("hb"); err != nil {
				return
			}
		case <-wake:
			c, err := fetch()
			if err != nil {
				// Headers are long gone: surface the envelope in-stream.
				_, e := apiError(err)
				_ = out.event("error", -1, e)
				return
			}
			if done, err := emit(c); done || err != nil {
				return
			}
		}
	}
}
