package service

import (
	"context"
	"errors"
	"fmt"
	"time"

	"exptrain/internal/persist"
)

// RetryPolicy bounds the manager's retries against a flaky store.
// Checkpoint and resume operations are retried with exponential backoff
// and deterministic jitter; a zero value gets the defaults.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries per store operation
	// (default 4; 1 disables retrying).
	MaxAttempts int
	// BaseDelay is the backoff before the second attempt (default 5ms);
	// it doubles per attempt.
	BaseDelay time.Duration
	// MaxDelay caps the backoff (default 250ms).
	MaxDelay time.Duration
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 4
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 5 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = 250 * time.Millisecond
	}
	return p
}

// retryable classifies a store error. Definitive answers — the id does
// not exist, the id is malformed, the bytes are corrupt — will not
// change on a retry; everything else (I/O errors, injected faults,
// ambiguous cancellations) might.
func retryable(err error) bool {
	switch {
	case err == nil:
		return false
	case errors.Is(err, persist.ErrNotFound),
		errors.Is(err, persist.ErrBadID),
		errors.Is(err, persist.ErrCorrupt):
		return false
	default:
		return true
	}
}

// backoff computes the delay before the next attempt: exponential in
// the attempt number, capped, with deterministic jitter in
// [delay/2, delay) drawn from the manager's RetrySeed-seeded stream, so
// retry schedules are reproducible under test and decorrelated across
// concurrent sessions.
func (m *Manager) backoff(p RetryPolicy, attempt int) time.Duration {
	delay := p.BaseDelay << (attempt - 1)
	if delay > p.MaxDelay || delay <= 0 { // <= 0 catches shift overflow
		delay = p.MaxDelay
	}
	m.mu.Lock()
	jitter := m.rrng.Float64()
	m.mu.Unlock()
	return delay/2 + time.Duration(jitter*float64(delay/2))
}

// sleepCtx waits for d, honoring ctx.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// storeRetry runs op under the manager's retry policy. A success (on
// any attempt) clears the last-store-error; exhausting the policy
// records the failure and wraps it in ErrStoreUnavailable so the HTTP
// layer can answer 503 + Retry-After instead of an opaque 500.
// Non-retryable errors pass through untouched — ErrNotFound must stay
// ErrNotFound.
func (m *Manager) storeRetry(ctx context.Context, what string, op func(context.Context) error) error {
	p := m.opts.Retry
	var last error
	for attempt := 1; ; attempt++ {
		last = op(ctx)
		if last == nil {
			m.noteStoreOK()
			return nil
		}
		if !retryable(last) {
			return last
		}
		if attempt >= p.MaxAttempts || ctx.Err() != nil {
			break
		}
		if err := sleepCtx(ctx, m.backoff(p, attempt)); err != nil {
			break
		}
	}
	err := fmt.Errorf("service: %s failed after %d attempts: %w: %w", what, p.MaxAttempts, ErrStoreUnavailable, last)
	m.noteStoreFailure(err)
	return err
}

// noteStoreOK records a healthy store interaction.
func (m *Manager) noteStoreOK() {
	m.mu.Lock()
	m.storeErr = nil
	m.mu.Unlock()
}

// noteStoreFailure records an exhausted-retries store failure.
func (m *Manager) noteStoreFailure(err error) {
	m.mu.Lock()
	m.storeFails++
	m.storeErr = err
	m.mu.Unlock()
}
