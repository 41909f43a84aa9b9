package faulty

import (
	"context"
	"fmt"
	"os"

	"exptrain/internal/persist"
	"exptrain/internal/persist/wal"
)

// RoundAppender forwards the inner store's round-append capability:
// the wrapper itself when the inner store can take appends (so
// injections cover them too), nil otherwise. Without this forwarding a
// faulty wrapper around a snapshot-only store would falsely advertise
// WAL durability.
func (s *Store) RoundAppender() persist.RoundAppender {
	if persist.AppenderOf(s.inner) == nil {
		return nil
	}
	return s
}

// AppendRounds implements persist.RoundAppender with the same seeded
// injection discipline as Put: a plain injected failure fails before
// the inner append runs (a transient fault the caller retries), and
// under TornAppends an injected failure becomes a simulated crash
// partway through the group commit instead.
func (s *Store) AppendRounds(ctx context.Context, deltas []*persist.RoundDelta) error {
	app := persist.AppenderOf(s.inner)
	if app == nil {
		return fmt.Errorf("faulty: inner store takes no round appends")
	}
	p := s.draw(OpAppend)
	if p.walTorn {
		return s.tornAppend(ctx, deltas, p)
	}
	if p.fail {
		return s.fault(OpAppend, deltas[0].Session)
	}
	err := app.AppendRounds(ctx, deltas)
	if p.cancel && err == nil {
		return fmt.Errorf("faulty: append for %q: %w", deltas[0].Session, context.Canceled)
	}
	return err
}

// tornAppend simulates a crash partway through the WAL group commit:
// the log dies before p.walStep, a crash at the fsync step leaves a
// seeded fraction of the unsynced bytes on the segment (the torn tail
// recovery must truncate), and a crash at the ack step leaves the
// records durable while the caller sees failure. The log stays
// poisoned — as dead as the process — until the directory is reopened.
func (s *Store) tornAppend(ctx context.Context, deltas []*persist.RoundDelta, p plan) error {
	s.putMu.Lock()
	defer s.putMu.Unlock()
	crashErr := fmt.Errorf("faulty: simulated crash before %s of append for %q: %w",
		p.walStep, deltas[0].Session, ErrInjected)
	s.wal.Log().SetCrashHook(func(step wal.AppendStep, segPath string, synced, size int64) error {
		if step != p.walStep {
			return nil
		}
		if step == wal.StepAppendSync && size > synced {
			cut := synced + int64(p.keep*float64(size-synced))
			_ = os.Truncate(segPath, cut)
		}
		return crashErr
	})
	err := s.wal.AppendRounds(ctx, deltas) //etlint:ignore chanlock putMu only serializes this wrapper's crash plans; the wal committer goroutine drains the append queue without ever taking it, so the receive always resolves
	s.wal.Log().SetCrashHook(nil)
	return err
}

// WalStats forwards the inner store's WAL counters when it surfaces
// any (persist.WalStatter), so health reporting sees through the
// fault-injection layer.
func (s *Store) WalStats() (persist.WalStats, bool) {
	if ws, ok := s.inner.(persist.WalStatter); ok {
		return ws.WalStats()
	}
	return persist.WalStats{}, false
}

// CrashAppend runs one append against ws that simulates a process
// crash immediately before the given group-commit step, leaving the
// on-disk segment exactly as a real crash there would. keep is the
// fraction of the unsynced bytes "flushed" when crashing at the fsync
// step (torn tail); other steps ignore it. The log is poisoned
// afterwards — reopen the directory to model the restart. The returned
// error is the simulated crash (errors.Is ErrInjected) unless the
// append failed earlier for real reasons.
func CrashAppend(ctx context.Context, ws *wal.Store, deltas []*persist.RoundDelta, step wal.AppendStep, keep float64) error {
	crashErr := fmt.Errorf("faulty: simulated crash before %s of append: %w", step, ErrInjected)
	ws.Log().SetCrashHook(func(st wal.AppendStep, segPath string, synced, size int64) error {
		if st != step {
			return nil
		}
		if st == wal.StepAppendSync && size > synced {
			cut := synced + int64(keep*float64(size-synced))
			_ = os.Truncate(segPath, cut)
		}
		return crashErr
	})
	err := ws.AppendRounds(ctx, deltas)
	ws.Log().SetCrashHook(nil)
	return err
}
