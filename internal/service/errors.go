// Package service hosts many live exploratory-training sessions behind
// a concurrency-safe manager and an HTTP/JSON API — the long-lived,
// multi-annotator host the step-wise game.Session protocol was built
// for. Each session is an independent game.Session guarded by its own
// lock; the manager adds idle eviction (sessions are checkpointed to a
// persist.Store and transparently resumed on next access), max-session
// backpressure, a batched submission labelpool with streamed round
// delivery, and graceful shutdown that checkpoints every live session.
package service

import (
	"context"
	"errors"
	"fmt"
	"net/http"

	"exptrain/internal/game"
	"exptrain/internal/persist"
	"exptrain/internal/sampling"
)

// Sentinel errors of the service surface; test with errors.Is. The
// HTTP layer maps them onto status codes and machine-readable kinds
// (see APIError and Kinds).
var (
	// ErrSessionNotFound: the id names neither a live nor a parked
	// session.
	ErrSessionNotFound = errors.New("service: session not found")
	// ErrTooManySessions: the manager is at MaxSessions and no idle
	// session could be evicted to make room (HTTP 429).
	ErrTooManySessions = errors.New("service: too many live sessions")
	// ErrShuttingDown: the manager is draining; no new work is accepted
	// (HTTP 503 with kind "shutting_down" — distinct from the capacity
	// 429 so clients know to fail over rather than shed load).
	ErrShuttingDown = errors.New("service: shutting down")
	// ErrStoreUnavailable: a checkpoint-store operation kept failing
	// after the manager's full retry policy. The underlying cause is
	// wrapped alongside it (HTTP 503 + Retry-After). The session the
	// operation was for is not lost — a failed checkpoint leaves it live
	// and degraded (see Info.Degraded).
	ErrStoreUnavailable = errors.New("service: checkpoint store unavailable")
	// ErrBadRequest: the request body or parameters failed validation
	// before reaching a session (HTTP 400).
	ErrBadRequest = errors.New("service: bad request")
	// ErrRoundMismatch: an idempotent submission named a round index
	// that is not the session's current round and is not an identical
	// replay of an already-applied round (HTTP 409). Retrying the same
	// request will not succeed; the client must resynchronize on
	// GET /v1/sessions/{id}.
	ErrRoundMismatch = errors.New("service: submission round does not match the session")
	// ErrDuplicateRound: the labelpool already holds a queued submission
	// for that round (HTTP 409). The queued ticket stands; enqueue a
	// replacement only after it fails.
	ErrDuplicateRound = errors.New("service: a submission for that round is already queued")
	// ErrSubmissionBacklog: the batch does not fit beside the rounds
	// queued behind a gap in the session's labelpool (HTTP 429 +
	// Retry-After). The backlog clears when the missing round arrives,
	// by enqueue or by direct submit.
	ErrSubmissionBacklog = errors.New("service: submission queue is full")
	// ErrTicketNotFound: the submission ticket id is unknown — never
	// issued, or aged out of the per-session ticket history (HTTP 404).
	ErrTicketNotFound = errors.New("service: submission ticket not found")
)

// Machine-readable error kinds of the v1 API. Every error response is
// one APIError envelope whose Kind is drawn from this registry; clients
// switch on Kind (or errors.Is against the client package's sentinels)
// instead of parsing messages. Kinds are append-only: a released kind
// never changes meaning or status code.
const (
	KindBadRequest        = "bad_request"
	KindNotFound          = "not_found"
	KindTooManySessions   = "too_many_sessions"
	KindShuttingDown      = "shutting_down"
	KindStoreUnavailable  = "store_unavailable"
	KindCorruptSnapshot   = "corrupt_snapshot"
	KindRoundPending      = "round_pending"
	KindNoRoundPending    = "no_round_pending"
	KindPoolExhausted     = "pool_exhausted"
	KindRoundMismatch     = "round_mismatch"
	KindDuplicateRound    = "duplicate_round"
	KindSubmissionBacklog = "submission_backlog"
	KindTimeout           = "timeout"
	KindCanceled          = "canceled"
	KindInternal          = "internal"
)

// APIError is the one JSON error envelope every v1 route writes, and
// the registry's rendering of a service error: a stable machine-
// readable Kind, a human-readable Message, and — for backpressure
// kinds — the number of seconds after which a retry is worthwhile
// (also sent as the Retry-After header).
type APIError struct {
	Kind       string `json:"kind"`
	Message    string `json:"message"`
	RetryAfter int    `json:"retry_after,omitempty"`
}

// Error implements error, so an APIError decoded by a client can be
// returned and matched as-is.
func (e *APIError) Error() string { return e.Kind + ": " + e.Message }

// KindInfo documents one registered error kind.
type KindInfo struct {
	Kind   string
	Status int
	Doc    string
}

// kindRegistry is the stable kind table: every kind the API can emit,
// its HTTP status, and what a client should do about it. apiError
// consults it for the status; API.md documents it verbatim.
var kindRegistry = []KindInfo{
	{KindBadRequest, http.StatusBadRequest, "the request body or parameters failed validation; do not retry unchanged"},
	{KindNotFound, http.StatusNotFound, "no such session, snapshot or ticket"},
	{KindTooManySessions, http.StatusTooManyRequests, "the manager is at capacity and nothing idle could be evicted; retry after Retry-After"},
	{KindShuttingDown, http.StatusServiceUnavailable, "the replica is draining; fail over"},
	{KindStoreUnavailable, http.StatusServiceUnavailable, "the checkpoint store kept failing after retries; retry after Retry-After"},
	{KindCorruptSnapshot, http.StatusInternalServerError, "a stored snapshot failed its integrity check; operator attention needed"},
	{KindRoundPending, http.StatusConflict, "a presented round is awaiting submission; submit it before calling next"},
	{KindNoRoundPending, http.StatusConflict, "nothing is pending; call next before submit"},
	{KindPoolExhausted, http.StatusGone, "the session has presented every candidate pair; the session is complete"},
	{KindRoundMismatch, http.StatusConflict, "the submission's round index is neither the current round nor an identical replay; resynchronize"},
	{KindDuplicateRound, http.StatusConflict, "a submission for that round is already queued; await its ticket"},
	{KindSubmissionBacklog, http.StatusTooManyRequests, "the session's submission queue is full; retry after Retry-After"},
	{KindTimeout, http.StatusGatewayTimeout, "the request exceeded the server's per-request timeout"},
	{KindCanceled, 499, "the client closed the connection before the response"},
	{KindInternal, http.StatusInternalServerError, "unclassified server-side failure"},
}

// kindStatus resolves a kind's registered HTTP status (500 for an
// unregistered kind, which would be a bug).
func kindStatus(kind string) int {
	for _, k := range kindRegistry {
		if k.Kind == kind {
			return k.Status
		}
	}
	return http.StatusInternalServerError
}

// errorKind classifies any error crossing the HTTP boundary into a
// registry kind — the errors.Is-able sentinel surface is what makes
// this a switch instead of string matching.
func errorKind(err error) string {
	switch {
	case errors.Is(err, ErrSessionNotFound), errors.Is(err, persist.ErrNotFound), errors.Is(err, ErrTicketNotFound):
		return KindNotFound
	case errors.Is(err, ErrTooManySessions):
		return KindTooManySessions
	case errors.Is(err, ErrSubmissionBacklog):
		return KindSubmissionBacklog
	case errors.Is(err, ErrShuttingDown):
		return KindShuttingDown
	case errors.Is(err, ErrStoreUnavailable):
		// Checked before the context sentinels: an exhausted retry loop
		// may wrap an ambiguous cancellation, and the actionable fact for
		// the client is "the store is sick, retry later".
		return KindStoreUnavailable
	case errors.Is(err, persist.ErrCorrupt):
		return KindCorruptSnapshot
	case errors.Is(err, ErrRoundMismatch):
		return KindRoundMismatch
	case errors.Is(err, ErrDuplicateRound):
		return KindDuplicateRound
	case errors.Is(err, game.ErrRoundPending):
		return KindRoundPending
	case errors.Is(err, game.ErrNoRoundPending):
		return KindNoRoundPending
	case errors.Is(err, game.ErrPoolExhausted):
		return KindPoolExhausted
	case errors.Is(err, ErrBadRequest), errors.Is(err, sampling.ErrUnknownMethod), errors.Is(err, sampling.ErrBadGamma), errors.Is(err, persist.ErrBadID):
		return KindBadRequest
	case errors.Is(err, context.DeadlineExceeded):
		return KindTimeout
	case errors.Is(err, context.Canceled):
		return KindCanceled
	default:
		return KindInternal
	}
}

// retryAfterSeconds advises clients when to come back: quickly for a
// draining or store-sick replica (a load balancer will have failed over
// by then), with more patience for capacity pressure (a session must go
// idle, or a missing round must arrive to clear a labelpool backlog,
// before room appears).
func retryAfterSeconds(status int) int {
	switch status {
	case http.StatusTooManyRequests:
		return 10
	case http.StatusServiceUnavailable:
		return 2
	default:
		return 0
	}
}

// apiError renders any service error into the envelope: kind from the
// sentinel classification, status from the registry, Retry-After for
// the backpressure kinds.
func apiError(err error) (int, *APIError) {
	kind := errorKind(err)
	status := kindStatus(kind)
	return status, &APIError{
		Kind:       kind,
		Message:    err.Error(),
		RetryAfter: retryAfterSeconds(status),
	}
}

// badRequest wraps a validation failure so it classifies as
// KindBadRequest while keeping the cause readable.
func badRequest(err error) error {
	return fmt.Errorf("%w: %s", ErrBadRequest, err)
}
