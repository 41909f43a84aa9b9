package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"time"

	"exptrain/internal/persist"
)

// timedStore records a span around every call into a persist.Store. It
// forwards the optional capabilities the service probes for: without
// RoundAppender, persist.AppenderOf would return nil and the manager
// would silently fall back to snapshot-only durability, and without
// WalStats /v1/healthz would lose its WAL counters.
type timedStore struct {
	inner persist.Store
	layer string // span prefix: "wal" around the log, "persist" around the snapshot directory
	tr    *tracer
}

func (s *timedStore) Put(ctx context.Context, id string, snap *persist.Snapshot) error {
	t0 := time.Now()
	err := s.inner.Put(ctx, id, snap)
	t1 := time.Now()
	var n countingWriter
	if err == nil {
		_ = snap.Write(&n) // only sizes the snapshot; Put already succeeded
	}
	s.tr.add(s.layer+".put", id, -1, t0, t1, int64(n))
	return err
}

func (s *timedStore) Get(ctx context.Context, id string) (*persist.Snapshot, error) {
	t0 := time.Now()
	snap, err := s.inner.Get(ctx, id)
	s.tr.since(s.layer+".get", id, -1, t0)
	return snap, err
}

func (s *timedStore) Delete(ctx context.Context, id string) error { return s.inner.Delete(ctx, id) }

func (s *timedStore) List(ctx context.Context) ([]string, error) { return s.inner.List(ctx) }

// RoundAppender reports the wrapper append-capable exactly when the
// wrapped store is.
func (s *timedStore) RoundAppender() persist.RoundAppender {
	if persist.AppenderOf(s.inner) == nil {
		return nil
	}
	return s
}

func (s *timedStore) AppendRounds(ctx context.Context, deltas []*persist.RoundDelta) error {
	app := persist.AppenderOf(s.inner)
	if app == nil {
		return fmt.Errorf("etperf: %s store takes no round appends", s.layer)
	}
	t0 := time.Now()
	err := app.AppendRounds(ctx, deltas)
	sess := ""
	if len(deltas) > 0 && deltas[0] != nil {
		sess = deltas[0].Session
	}
	s.tr.add(s.layer+".append", sess, -1, t0, time.Now(), int64(len(deltas)))
	return err
}

func (s *timedStore) WalStats() (persist.WalStats, bool) {
	if ws, ok := s.inner.(persist.WalStatter); ok {
		return ws.WalStats()
	}
	return persist.WalStats{}, false
}

// countingWriter counts the bytes written to it.
type countingWriter int64

func (c *countingWriter) Write(p []byte) (int, error) {
	*c += countingWriter(len(p))
	return len(p), nil
}

// timedHandler records an http.<route> span around every request the
// service handles, except SSE streams, which live as long as their
// session.
type timedHandler struct {
	next http.Handler
	tr   *tracer
}

func (h *timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	route, sess := routeOf(r)
	if route == "" {
		h.next.ServeHTTP(w, r)
		return
	}
	t0 := time.Now()
	if route == "create" {
		// The new session's id exists only in the response body.
		tw := &teeWriter{ResponseWriter: w}
		h.next.ServeHTTP(tw, r)
		t1 := time.Now()
		var info struct {
			ID string `json:"id"`
		}
		_ = json.Unmarshal(tw.body.Bytes(), &info) // an error response leaves the span without a session
		h.tr.add("http.create", info.ID, -1, t0, t1, 0)
		return
	}
	h.next.ServeHTTP(w, r)
	h.tr.since("http."+route, sess, -1, t0)
}

// routeOf names a v1 request's route and session, or returns "" for a
// stream.
func routeOf(r *http.Request) (route, sess string) {
	rest, ok := strings.CutPrefix(r.URL.Path, "/v1/sessions")
	if !ok {
		return strings.TrimPrefix(r.URL.Path, "/v1/"), ""
	}
	parts := strings.Split(strings.Trim(rest, "/"), "/")
	switch {
	case parts[0] == "":
		if r.Method == http.MethodPost {
			return "create", ""
		}
		return "list", ""
	case len(parts) == 1 && r.Method == http.MethodDelete:
		return "evict", parts[0]
	case len(parts) == 1:
		return "get", parts[0]
	case parts[1] == "rounds" && r.URL.Query().Get("stream") != "":
		return "", parts[0]
	case parts[1] == "submissions" && len(parts) == 2:
		return "enqueue", parts[0]
	}
	return parts[1], parts[0]
}

// teeWriter keeps a copy of the response body.
type teeWriter struct {
	http.ResponseWriter
	body bytes.Buffer
}

func (t *teeWriter) Write(p []byte) (int, error) {
	t.body.Write(p)
	return t.ResponseWriter.Write(p)
}
