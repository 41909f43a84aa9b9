package service

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"exptrain/internal/belief"
	"exptrain/internal/persist"
	"exptrain/internal/sampling"
)

// ServerOptions tunes the HTTP layer.
type ServerOptions struct {
	// RequestTimeout bounds each request's context (default 30s).
	// Streaming requests (GET /rounds?stream=1) are exempt: the
	// timeout instead bounds each of the stream's internal fetches.
	RequestTimeout time.Duration
	// MaxBodyBytes bounds request bodies, CSV uploads included
	// (default 8 MiB).
	MaxBodyBytes int64
	// StreamHeartbeat is how often an idle SSE stream emits a comment
	// line so intermediaries keep the connection alive (default 15s).
	StreamHeartbeat time.Duration
}

func (o ServerOptions) withDefaults() ServerOptions {
	if o.RequestTimeout <= 0 {
		o.RequestTimeout = 30 * time.Second
	}
	if o.MaxBodyBytes <= 0 {
		o.MaxBodyBytes = 8 << 20
	}
	if o.StreamHeartbeat <= 0 {
		o.StreamHeartbeat = 15 * time.Second
	}
	return o
}

// Server is the HTTP/JSON front of a Manager. It implements
// http.Handler; mount it on any mux or serve it directly.
//
// Routes (all JSON; see API.md for the full contract):
//
//	POST   /v1/sessions              create (or resume with "resume")
//	GET    /v1/sessions              list
//	GET    /v1/sessions/{id}         inspect
//	POST   /v1/sessions/{id}/next    present the next round
//	POST   /v1/sessions/{id}/submit  submit the round's labelings
//	                                 (idempotent: "round" is required)
//	POST   /v1/sessions/{id}/submissions        enqueue into the labelpool
//	                                 and apply what it completes
//	GET    /v1/sessions/{id}/submissions/{ticket} ticket status
//	GET    /v1/sessions/{id}/rounds  per-round MAE/payoff (and F1 with
//	                                 eval); ?stream=1 upgrades to SSE
//	GET    /v1/sessions/{id}/belief  top hypotheses (?k=10)
//	GET    /v1/sessions/{id}/repairs believed-FD cell repairs (?tau=0.5)
//	POST   /v1/sessions/{id}/snapshot  checkpoint to the store
//	DELETE /v1/sessions/{id}         checkpoint and park
//	GET    /v1/healthz               health: store state, live/parked/
//	                                 degraded counts; 503 when degraded
//	                                 or draining
//
// Every error response is one APIError envelope {kind, message,
// retry_after?}; the kind registry lives in errors.go and is documented
// in API.md.
type Server struct {
	mgr  *Manager
	opts ServerOptions
	mux  *http.ServeMux
}

// NewServer wires the routes.
func NewServer(mgr *Manager, opts ServerOptions) *Server {
	s := &Server{mgr: mgr, opts: opts.withDefaults(), mux: http.NewServeMux()}
	s.mux.HandleFunc("GET /v1/healthz", s.handleHealth)
	s.mux.HandleFunc("POST /v1/sessions", s.handleCreate)
	s.mux.HandleFunc("GET /v1/sessions", s.handleList)
	s.mux.HandleFunc("GET /v1/sessions/{id}", s.handleGet)
	s.mux.HandleFunc("DELETE /v1/sessions/{id}", s.handleEvict)
	s.mux.HandleFunc("POST /v1/sessions/{id}/next", s.handleNext)
	s.mux.HandleFunc("POST /v1/sessions/{id}/submit", s.handleSubmit)
	s.mux.HandleFunc("POST /v1/sessions/{id}/submissions", s.handleEnqueue)
	s.mux.HandleFunc("GET /v1/sessions/{id}/submissions/{ticket}", s.handleTicket)
	s.mux.HandleFunc("GET /v1/sessions/{id}/rounds", s.handleRounds)
	s.mux.HandleFunc("GET /v1/sessions/{id}/belief", s.handleBelief)
	s.mux.HandleFunc("GET /v1/sessions/{id}/repairs", s.handleRepairs)
	s.mux.HandleFunc("POST /v1/sessions/{id}/snapshot", s.handleSnapshot)
	return s
}

// ServeHTTP implements http.Handler: every request runs under the
// configured timeout and body limit. A streaming request is exempt from
// the timeout — it lives until the client leaves, the manager drains,
// or the session completes — but still bounded per internal fetch.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !isStreamRequest(r) {
		ctx, cancel := context.WithTimeout(r.Context(), s.opts.RequestTimeout)
		defer cancel()
		r = r.WithContext(ctx)
	}
	if r.Body != nil {
		r.Body = http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes)
	}
	s.mux.ServeHTTP(w, r)
}

// isStreamRequest reports whether the request asks for an SSE stream.
func isStreamRequest(r *http.Request) bool {
	return r.Method == http.MethodGet && r.URL.Query().Get("stream") != ""
}

// CreateRequest is the POST /v1/sessions body. Resume (an id whose
// snapshot the store holds) restores that checkpoint instead of
// starting fresh; the source fields must then describe the same data.
type CreateRequest struct {
	Dataset string          `json:"dataset,omitempty"`
	Rows    int             `json:"rows,omitempty"`
	CSV     string          `json:"csv,omitempty"`
	Method  sampling.Method `json:"method,omitempty"`
	Gamma   float64         `json:"gamma,omitempty"`
	K       int             `json:"k,omitempty"`
	MaxLHS  int             `json:"max_lhs,omitempty"`
	MaxFDs  int             `json:"max_fds,omitempty"`
	Seed    uint64          `json:"seed,omitempty"`
	Resume  string          `json:"resume,omitempty"`
	// Eval turns on per-round held-out detection scoring; synthetic
	// dataset sources only. Degree is the injected violation degree
	// (default 0.1).
	Eval   bool    `json:"eval,omitempty"`
	Degree float64 `json:"degree,omitempty"`
}

func (req CreateRequest) spec() Spec {
	return Spec{
		Source: Source{
			Dataset: req.Dataset,
			Rows:    req.Rows,
			Seed:    req.Seed,
			CSV:     []byte(req.CSV),
		},
		Method: req.Method,
		Gamma:  req.Gamma,
		K:      req.K,
		MaxLHS: req.MaxLHS,
		MaxFDs: req.MaxFDs,
		Seed:   req.Seed,
		Eval:   req.Eval,
		Degree: req.Degree,
	}
}

// LabelingWire is one annotation on the wire: the pair's row indices,
// the attribute positions marked erroneous, or an abstention.
type LabelingWire = persist.LabelingJSON

// SubmitRequest is the POST /v1/sessions/{id}/submit body. Round is
// required and makes the request idempotent: it must name the session's
// current round index (Info.Rounds); a request for an already-applied
// round succeeds without re-applying if its labels are an identical
// replay of what that round recorded, and fails with kind
// "round_mismatch" otherwise — so a client that retries after a lost
// response is always safe.
type SubmitRequest struct {
	Round  *int           `json:"round"`
	Labels []LabelingWire `json:"labels"`
}

// SubmissionWire is one queued round for the labelpool: the round index
// it targets (the session's submission "nonce") and its labelings.
type SubmissionWire struct {
	Round  int            `json:"round"`
	Labels []LabelingWire `json:"labels,omitempty"`
}

// EnqueueRequest is the POST /v1/sessions/{id}/submissions body: one or
// more rounds to queue in a single request (batching is the point — one
// request can carry a whole window of rounds).
type EnqueueRequest struct {
	Submissions []SubmissionWire `json:"submissions"`
}

// EnqueueResponse returns one ticket per queued submission, in request
// order.
type EnqueueResponse struct {
	Tickets []Ticket `json:"tickets"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// writeError is the single funnel every handler's failure goes through:
// classify into the kind registry, set Retry-After for the backpressure
// kinds, write the one envelope.
func writeError(w http.ResponseWriter, err error) {
	status, e := apiError(err)
	if e.RetryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(e.RetryAfter))
	}
	writeJSON(w, status, e)
}

func decodeBody(r *http.Request, v any) error {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return badRequest(fmt.Errorf("decoding request: %s", err))
	}
	return nil
}

// handleHealth reports the manager's health. A degraded, draining or
// store-sick manager answers 503 so a load balancer routes around it
// before it loses work; the body always carries the full Health detail
// either way, for operators.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	h := s.mgr.Health()
	status := http.StatusOK
	if !h.OK {
		status = http.StatusServiceUnavailable
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(status)))
	}
	writeJSON(w, status, h)
}

func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	var req CreateRequest
	if err := decodeBody(r, &req); err != nil {
		writeError(w, err)
		return
	}
	var (
		info Info
		err  error
	)
	if req.Resume != "" {
		info, err = s.mgr.Resume(r.Context(), req.Resume, req.spec())
	} else {
		info, err = s.mgr.Create(r.Context(), req.spec())
	}
	if err != nil {
		// Spec/source validation failures (bad CSV, unknown dataset,
		// malformed snapshot pairing) have no sentinel of their own;
		// they are client input problems, so anything that would
		// otherwise map to a plain 500 here surfaces as 400. Sentinels
		// that deliberately map to 500 (a corrupt snapshot) keep their
		// kind — those are the server's fault, not the client's.
		if errorKind(err) == KindInternal {
			err = badRequest(err)
		}
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, info)
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	infos, err := s.mgr.List(r.Context())
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"sessions": infos})
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	info, err := s.mgr.Get(r.Context(), r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, info)
}

func (s *Server) handleNext(w http.ResponseWriter, r *http.Request) {
	pairs, err := s.mgr.Next(r.Context(), r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"pairs": pairs})
}

// decodeLabels converts wire labelings, mapping validation failures to
// bad_request.
func decodeLabels(wire []LabelingWire) ([]belief.Labeling, error) {
	labeled := make([]belief.Labeling, 0, len(wire))
	for _, lw := range wire {
		l, err := lw.ToLabeling()
		if err != nil {
			return nil, badRequest(err)
		}
		labeled = append(labeled, l)
	}
	return labeled, nil
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req SubmitRequest
	if err := decodeBody(r, &req); err != nil {
		writeError(w, err)
		return
	}
	labeled, err := decodeLabels(req.Labels)
	if err != nil {
		writeError(w, err)
		return
	}
	if req.Round == nil {
		writeError(w, badRequest(fmt.Errorf("round is required")))
		return
	}
	info, err := s.mgr.Submit(r.Context(), r.PathValue("id"), *req.Round, labeled)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, info)
}

func (s *Server) handleEnqueue(w http.ResponseWriter, r *http.Request) {
	var req EnqueueRequest
	if err := decodeBody(r, &req); err != nil {
		writeError(w, err)
		return
	}
	subs := make([]Submission, 0, len(req.Submissions))
	for _, sw := range req.Submissions {
		labeled, err := decodeLabels(sw.Labels)
		if err != nil {
			writeError(w, err)
			return
		}
		subs = append(subs, Submission{Round: sw.Round, Labels: labeled})
	}
	tickets, err := s.mgr.EnqueueSubmissions(r.Context(), r.PathValue("id"), subs)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, EnqueueResponse{Tickets: tickets})
}

func (s *Server) handleTicket(w http.ResponseWriter, r *http.Request) {
	tk, err := s.mgr.Ticket(r.Context(), r.PathValue("id"), r.PathValue("ticket"))
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, tk)
}

func (s *Server) handleRounds(w http.ResponseWriter, r *http.Request) {
	if isStreamRequest(r) {
		s.handleStream(w, r)
		return
	}
	rounds, err := s.mgr.Rounds(r.Context(), r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"rounds": rounds})
}

func (s *Server) handleBelief(w http.ResponseWriter, r *http.Request) {
	k, _ := strconv.Atoi(r.URL.Query().Get("k"))
	hyps, err := s.mgr.TopBelief(r.Context(), r.PathValue("id"), k)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"hypotheses": hyps})
}

func (s *Server) handleRepairs(w http.ResponseWriter, r *http.Request) {
	tau, _ := strconv.ParseFloat(r.URL.Query().Get("tau"), 64)
	repairs, err := s.mgr.Repairs(r.Context(), r.PathValue("id"), tau)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"repairs": repairs})
}

func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	snapID, err := s.mgr.Snapshot(r.Context(), r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"snapshot": snapID})
}

func (s *Server) handleEvict(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if err := s.mgr.Evict(r.Context(), id); err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"parked": id})
}
