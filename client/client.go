// Package client is the typed Go client for the exptrain v1 HTTP API
// (see API.md at the repository root for the wire contract). It speaks
// every v1 route — session lifecycle, the interactive next/submit
// protocol, the batched labelpool submission pipeline, and the SSE
// round stream — and maps the server's error envelope onto sentinel
// errors testable with errors.Is:
//
//	info, err := c.Submit(ctx, id, round, labels)
//	if errors.Is(err, client.ErrRoundMismatch) { /* resynchronize */ }
//
// Requests that fail with a backpressure kind (429/503 carrying
// Retry-After) are retried automatically under the client's RetryPolicy.
// The package depends only on the standard library and the documented
// wire format, never on the server's internal packages — it is the
// contract's second implementation, which is what keeps the contract
// honest.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"
)

// Sentinel errors mirroring the server's error-kind registry; match
// with errors.Is. An *Error returned by any method Is() the sentinel
// its kind maps to.
var (
	ErrBadRequest        = errors.New("client: bad request")
	ErrNotFound          = errors.New("client: not found")
	ErrTooManySessions   = errors.New("client: too many sessions")
	ErrShuttingDown      = errors.New("client: server shutting down")
	ErrStoreUnavailable  = errors.New("client: checkpoint store unavailable")
	ErrCorruptSnapshot   = errors.New("client: corrupt snapshot")
	ErrRoundPending      = errors.New("client: a round is pending")
	ErrNoRoundPending    = errors.New("client: no round pending")
	ErrPoolExhausted     = errors.New("client: candidate pool exhausted")
	ErrRoundMismatch     = errors.New("client: submission round mismatch")
	ErrDuplicateRound    = errors.New("client: round already queued")
	ErrSubmissionBacklog = errors.New("client: submission queue full")
	ErrTimeout           = errors.New("client: server-side timeout")
)

// kindSentinels maps wire kinds to sentinels. Unknown kinds (a newer
// server) match no sentinel but still carry their Kind.
var kindSentinels = map[string]error{
	"bad_request":        ErrBadRequest,
	"not_found":          ErrNotFound,
	"too_many_sessions":  ErrTooManySessions,
	"shutting_down":      ErrShuttingDown,
	"store_unavailable":  ErrStoreUnavailable,
	"corrupt_snapshot":   ErrCorruptSnapshot,
	"round_pending":      ErrRoundPending,
	"no_round_pending":   ErrNoRoundPending,
	"pool_exhausted":     ErrPoolExhausted,
	"round_mismatch":     ErrRoundMismatch,
	"duplicate_round":    ErrDuplicateRound,
	"submission_backlog": ErrSubmissionBacklog,
	"timeout":            ErrTimeout,
}

// Error is the decoded v1 error envelope plus its HTTP status.
type Error struct {
	Kind       string `json:"kind"`
	Message    string `json:"message"`
	RetryAfter int    `json:"retry_after,omitempty"`
	Status     int    `json:"-"`
}

func (e *Error) Error() string {
	return fmt.Sprintf("%s (%d): %s", e.Kind, e.Status, e.Message)
}

// Is maps the envelope's kind onto the package sentinels.
func (e *Error) Is(target error) bool {
	return kindSentinels[e.Kind] == target
}

// retryable reports whether the error is a backpressure response worth
// retrying after its Retry-After hint.
func (e *Error) retryable() bool {
	return e.Status == http.StatusTooManyRequests || e.Status == http.StatusServiceUnavailable
}

// RetryPolicy bounds automatic retries of backpressure responses
// (429/503). Retry-After from the server is honored but capped at
// MaxWait so a test or an impatient caller is never parked for the
// server's full suggestion.
type RetryPolicy struct {
	// MaxAttempts counts tries including the first (default 4;
	// 1 disables retries).
	MaxAttempts int
	// MaxWait caps each inter-attempt sleep (default 2s).
	MaxWait time.Duration
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 4
	}
	if p.MaxWait <= 0 {
		p.MaxWait = 2 * time.Second
	}
	return p
}

// Options configures a Client.
type Options struct {
	// HTTP is the underlying client (default http.DefaultClient). For
	// streaming it must not set a global timeout.
	HTTP *http.Client
	// Retry bounds automatic backpressure retries.
	Retry RetryPolicy
}

// Client talks to one exptrain server. Safe for concurrent use.
type Client struct {
	base  string
	hc    *http.Client
	retry RetryPolicy
}

// New builds a client for a base URL like "http://127.0.0.1:8080".
func New(base string, opts Options) *Client {
	hc := opts.HTTP
	if hc == nil {
		hc = http.DefaultClient
	}
	for len(base) > 0 && base[len(base)-1] == '/' {
		base = base[:len(base)-1]
	}
	return &Client{base: base, hc: hc, retry: opts.Retry.withDefaults()}
}

// Info is a session's externally visible state.
type Info struct {
	ID        string `json:"id"`
	Method    string `json:"method"`
	K         int    `json:"k"`
	Rounds    int    `json:"rounds"`
	Pending   int    `json:"pending"`
	Remaining int    `json:"remaining"`
	Parked    bool   `json:"parked"`
	Degraded  bool   `json:"degraded,omitempty"`
	Rows      int    `json:"rows"`
	Space     int    `json:"space"`
}

// CreateSession is the POST /v1/sessions body.
type CreateSession struct {
	Dataset string  `json:"dataset,omitempty"`
	Rows    int     `json:"rows,omitempty"`
	CSV     string  `json:"csv,omitempty"`
	Method  string  `json:"method,omitempty"`
	Gamma   float64 `json:"gamma,omitempty"`
	K       int     `json:"k,omitempty"`
	MaxLHS  int     `json:"max_lhs,omitempty"`
	MaxFDs  int     `json:"max_fds,omitempty"`
	Seed    uint64  `json:"seed,omitempty"`
	Resume  string  `json:"resume,omitempty"`
	Eval    bool    `json:"eval,omitempty"`
	Degree  float64 `json:"degree,omitempty"`
}

// Pair is one presented pair with both rendered tuples.
type Pair struct {
	A      int      `json:"a"`
	B      int      `json:"b"`
	ATuple []string `json:"a_tuple"`
	BTuple []string `json:"b_tuple"`
}

// Labeling is one annotation: the pair's row indices, the attribute
// positions marked erroneous, or an abstention.
type Labeling struct {
	Pair      [2]int `json:"pair"`
	Marked    []int  `json:"marked,omitempty"`
	Abstained bool   `json:"abstained,omitempty"`
}

// Submission is one labelpool entry: the labels for round Round.
type Submission struct {
	Round  int        `json:"round"`
	Labels []Labeling `json:"labels,omitempty"`
}

// Ticket is the receipt for one submission. State is "applied" (the
// round applied and its append returned), "failed" (Error says why) or
// "queued" (waiting behind a gap for an earlier round).
type Ticket struct {
	ID    string `json:"id"`
	Round int    `json:"round"`
	State string `json:"state"`
	Error string `json:"error,omitempty"`
}

// Detection is a round's held-out error-detection score.
type Detection struct {
	Precision float64 `json:"precision"`
	Recall    float64 `json:"recall"`
	F1        float64 `json:"f1"`
}

// Round is one submitted round's measurements.
type Round struct {
	Round     int        `json:"round"`
	Labeled   int        `json:"labeled"`
	Revised   int        `json:"revised"`
	MAE       float64    `json:"mae"`
	Payoff    float64    `json:"payoff"`
	Detection *Detection `json:"detection,omitempty"`
}

// Hypothesis is one FD of the learner's belief, rendered.
type Hypothesis struct {
	FD         string  `json:"fd"`
	Confidence float64 `json:"confidence"`
	CILow      float64 `json:"ci_low"`
	CIHigh     float64 `json:"ci_high"`
}

// Health is the server's health summary.
type Health struct {
	OK            bool   `json:"ok"`
	Live          int    `json:"live"`
	Parked        int    `json:"parked"`
	Degraded      int    `json:"degraded"`
	Draining      bool   `json:"draining"`
	StoreFailures uint64 `json:"store_failures"`
	StoreError    string `json:"store_error,omitempty"`
}

// do issues one JSON request with backpressure retries, decoding a
// success into out (when non-nil) and any failure into *Error.
func (c *Client) do(ctx context.Context, method, path string, body, out any) error {
	var payload []byte
	if body != nil {
		var err error
		payload, err = json.Marshal(body)
		if err != nil {
			return err
		}
	}
	var lastErr error
	for attempt := 0; attempt < c.retry.MaxAttempts; attempt++ {
		if attempt > 0 {
			wait := c.retry.MaxWait
			var e *Error
			if errors.As(lastErr, &e) && e.RetryAfter > 0 {
				if ra := time.Duration(e.RetryAfter) * time.Second; ra < wait {
					wait = ra
				}
			}
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(wait):
			}
		}
		var rd io.Reader
		if payload != nil {
			rd = bytes.NewReader(payload)
		}
		req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
		if err != nil {
			return err
		}
		if payload != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		resp, err := c.hc.Do(req)
		if err != nil {
			return err
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return err
		}
		if resp.StatusCode < 300 {
			if out == nil {
				return nil
			}
			return json.Unmarshal(raw, out)
		}
		apiErr := &Error{Status: resp.StatusCode}
		if err := json.Unmarshal(raw, apiErr); err != nil || apiErr.Kind == "" {
			apiErr.Kind = "internal"
			apiErr.Message = fmt.Sprintf("status %d: %s", resp.StatusCode, raw)
		}
		if !apiErr.retryable() {
			return apiErr
		}
		lastErr = apiErr
	}
	return lastErr
}

// Create starts a new session (or resumes one via req.Resume).
func (c *Client) Create(ctx context.Context, req CreateSession) (Info, error) {
	var info Info
	err := c.do(ctx, http.MethodPost, "/v1/sessions", req, &info)
	return info, err
}

// Session fetches a session's state.
func (c *Client) Session(ctx context.Context, id string) (Info, error) {
	var info Info
	err := c.do(ctx, http.MethodGet, "/v1/sessions/"+id, nil, &info)
	return info, err
}

// Sessions lists every session, live and parked.
func (c *Client) Sessions(ctx context.Context) ([]Info, error) {
	var out struct {
		Sessions []Info `json:"sessions"`
	}
	err := c.do(ctx, http.MethodGet, "/v1/sessions", nil, &out)
	return out.Sessions, err
}

// Next presents the session's next round of pairs.
func (c *Client) Next(ctx context.Context, id string) ([]Pair, error) {
	var out struct {
		Pairs []Pair `json:"pairs"`
	}
	err := c.do(ctx, http.MethodPost, "/v1/sessions/"+id+"/next", nil, &out)
	return out.Pairs, err
}

// Submit sends the pending round's labels. round makes the request
// idempotent: it must be the session's current round index, and a
// retried request for an already-applied round succeeds if and only if
// its labels replay that round identically.
func (c *Client) Submit(ctx context.Context, id string, round int, labels []Labeling) (Info, error) {
	body := struct {
		Round  int        `json:"round"`
		Labels []Labeling `json:"labels"`
	}{round, labels}
	var info Info
	err := c.do(ctx, http.MethodPost, "/v1/sessions/"+id+"/submit", body, &info)
	return info, err
}

// Enqueue admits a batch of round submissions into the session's
// labelpool, returning one ticket per submission. The server applies
// every round the batch completes before it answers, so only a round
// waiting behind a gap comes back "queued".
func (c *Client) Enqueue(ctx context.Context, id string, subs []Submission) ([]Ticket, error) {
	body := struct {
		Submissions []Submission `json:"submissions"`
	}{Submissions: subs}
	var out struct {
		Tickets []Ticket `json:"tickets"`
	}
	err := c.do(ctx, http.MethodPost, "/v1/sessions/"+id+"/submissions", body, &out)
	return out.Tickets, err
}

// Ticket polls one submission's state.
func (c *Client) Ticket(ctx context.Context, id, ticket string) (Ticket, error) {
	var tk Ticket
	err := c.do(ctx, http.MethodGet, "/v1/sessions/"+id+"/submissions/"+ticket, nil, &tk)
	return tk, err
}

// Rounds fetches the per-round measurement series.
func (c *Client) Rounds(ctx context.Context, id string) ([]Round, error) {
	var out struct {
		Rounds []Round `json:"rounds"`
	}
	err := c.do(ctx, http.MethodGet, "/v1/sessions/"+id+"/rounds", nil, &out)
	return out.Rounds, err
}

// Belief fetches the learner's top-k hypotheses.
func (c *Client) Belief(ctx context.Context, id string, k int) ([]Hypothesis, error) {
	var out struct {
		Hypotheses []Hypothesis `json:"hypotheses"`
	}
	err := c.do(ctx, http.MethodGet, "/v1/sessions/"+id+"/belief?k="+strconv.Itoa(k), nil, &out)
	return out.Hypotheses, err
}

// Snapshot checkpoints the session and returns the snapshot id.
func (c *Client) Snapshot(ctx context.Context, id string) (string, error) {
	var out struct {
		Snapshot string `json:"snapshot"`
	}
	err := c.do(ctx, http.MethodPost, "/v1/sessions/"+id+"/snapshot", nil, &out)
	return out.Snapshot, err
}

// Evict checkpoints and parks the session.
func (c *Client) Evict(ctx context.Context, id string) error {
	return c.do(ctx, http.MethodDelete, "/v1/sessions/"+id, nil, nil)
}

// Health fetches the server's health summary. It is reported without
// error even when the server answers 503 (an unhealthy report is still
// a report).
func (c *Client) Health(ctx context.Context) (Health, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/healthz", nil)
	if err != nil {
		return Health{}, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return Health{}, err
	}
	defer resp.Body.Close()
	var h Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		return Health{}, err
	}
	return h, nil
}
