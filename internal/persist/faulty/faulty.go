// Package faulty wraps a persist.Store with deterministic, seeded
// fault injection — the chaos harness of the session service. Every
// failure path the service claims to survive (a flaky disk, a torn
// write, an ambiguous cancellation mid-op) is driven by this wrapper
// under the race detector rather than assumed: a store that fails 30%
// of its operations on a fixed seed produces the same fault schedule
// every run, so a chaos failure is a reproducible bug, not a flake.
package faulty

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"os"
	"sync"

	"exptrain/internal/persist"
	"exptrain/internal/persist/wal"
	"exptrain/internal/stats"
)

// ErrInjected is the default injected fault; test with errors.Is.
var ErrInjected = errors.New("faulty: injected store fault")

// Op names one Store operation, for restricting injection.
type Op uint8

const (
	OpPut Op = iota
	OpGet
	OpDelete
	OpList
	// OpAppend is the WAL round-append operation (persist.RoundAppender),
	// present only when the inner store supports it.
	OpAppend
)

// String renders the op for error messages.
func (o Op) String() string {
	switch o {
	case OpPut:
		return "put"
	case OpGet:
		return "get"
	case OpDelete:
		return "delete"
	case OpList:
		return "list"
	case OpAppend:
		return "append"
	default:
		return fmt.Sprintf("Op(%d)", uint8(o))
	}
}

// Config seeds and shapes the injected faults. The zero value injects
// nothing and passes every operation through.
type Config struct {
	// Seed drives every injection decision. Zero asks for a fresh seed
	// (chaos sweeps want new interleavings run-to-run); the drawn seed
	// is recorded and returned by Seed so any failure replays exactly.
	Seed uint64
	// FailRate is the per-op probability in [0, 1] of failing before the
	// inner operation runs.
	FailRate float64
	// FailEveryN additionally fails every Nth operation deterministically
	// (0 = off).
	FailEveryN int
	// Err is the injected error (ErrInjected when nil). It is always
	// wrapped, so errors.Is works on the result either way.
	Err error
	// Ops restricts injection to the listed operations (nil = all).
	Ops []Op
	// AmbiguousCancelRate is the per-op probability that the inner
	// operation RUNS to completion but the wrapper still reports
	// context.Canceled — the nasty real-world case where a caller cannot
	// know whether its write landed.
	AmbiguousCancelRate float64
	// TornWrites, when the inner store is a *persist.DirStore, turns
	// injected Put failures into simulated crashes partway through the
	// commit protocol: the put aborts before a seeded step, and a crash
	// during the temp-file write leaves a seeded prefix of the bytes on
	// disk — exactly the state a power cut there would leave.
	TornWrites bool
	// TornAppends, when the inner store is a *wal.Store, turns injected
	// append failures into simulated crashes partway through the group
	// commit: the log dies before a seeded step (torn-append when the
	// crash lands mid-flush — a seeded fraction of the unsynced bytes
	// stays on disk; fsync-crash when it lands after the fsync but
	// before the ack), and stays dead until reopened — exactly the
	// process-death model the WAL's recovery contract covers. Tests
	// reopen the log directory to model the restart.
	TornAppends bool
}

// Store wraps an inner persist.Store, injecting faults per Config.
// Decisions are drawn from a single seeded stream under a mutex: a
// sequential caller sees a fully deterministic fault schedule, and
// concurrent callers see a deterministic multiset of decisions (the
// interleaving, as always, is the scheduler's).
type Store struct {
	inner persist.Store
	dir   *persist.DirStore // non-nil when inner is a DirStore
	wal   *wal.Store        // non-nil when inner is a WAL-backed store

	mu       sync.Mutex
	cfg      Config     // guarded by mu (ClearFaults mutates it)
	rng      *stats.RNG // guarded by mu
	ops      uint64     // operations seen; guarded by mu
	injected uint64     // faults injected; guarded by mu

	// putMu serializes Puts when torn writes are enabled: the crash hook
	// on the inner DirStore is store-global, so per-Put crash plans must
	// not overlap.
	putMu sync.Mutex
}

// Wrap builds a fault-injecting wrapper around inner.
func Wrap(inner persist.Store, cfg Config) *Store {
	if cfg.Seed == 0 {
		// Chaos mode: draw a fresh schedule each run. The seed is
		// recorded so any failure replays bit-for-bit — log Seed() in the
		// harness.
		//etlint:ignore detrand chaos mode deliberately draws a fresh seed per run; it is recorded via Seed() for exact replay
		cfg.Seed = rand.Uint64() | 1
	}
	if cfg.Err == nil {
		cfg.Err = ErrInjected
	}
	dir, _ := inner.(*persist.DirStore)
	ws, _ := inner.(*wal.Store)
	return &Store{inner: inner, dir: dir, wal: ws, cfg: cfg, rng: stats.NewRNG(cfg.Seed)}
}

// Seed returns the seed driving the fault schedule — the one from
// Config, or the recorded fresh draw when Config.Seed was zero.
func (s *Store) Seed() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cfg.Seed
}

// Stats reports operations seen and faults injected so far.
func (s *Store) Stats() (ops, injected uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ops, s.injected
}

// SetFailRate re-arms (or disarms) the per-op failure probability
// mid-run. Replica-loss chaos tests use SetFailRate(1) to kill a whole
// replica at a chosen point in the workload — every subsequent
// operation fails until ClearFaults or another SetFailRate.
func (s *Store) SetFailRate(rate float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.cfg.FailRate = rate
}

// ClearFaults heals the store: no further faults are injected, in-flight
// decisions stand. Chaos tests call this to watch degraded sessions
// recover once the disk comes back.
func (s *Store) ClearFaults() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.cfg.FailRate = 0
	s.cfg.FailEveryN = 0
	s.cfg.AmbiguousCancelRate = 0
	s.cfg.TornWrites = false
	s.cfg.TornAppends = false
}

// plan is one operation's drawn decisions.
type plan struct {
	fail   bool
	cancel bool
	// crash parameters, meaningful when fail && TornWrites on a DirStore.
	crashStep persist.PutStep
	keep      float64
	torn      bool
	// walStep and walTorn are the append-crash analogues, meaningful
	// when fail && TornAppends on a WAL-backed store.
	walStep wal.AppendStep
	walTorn bool
}

// eligibleLocked reports whether op may receive injections.
func (s *Store) eligibleLocked(op Op) bool {
	if s.cfg.Ops == nil {
		return true
	}
	for _, o := range s.cfg.Ops {
		if o == op {
			return true
		}
	}
	return false
}

// draw rolls this operation's decisions. Draws happen in a fixed order
// so the stream stays aligned across operations for a fixed Config.
func (s *Store) draw(op Op) plan {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ops++
	var p plan
	if s.cfg.FailRate > 0 && s.rng.Float64() < s.cfg.FailRate {
		p.fail = true
	}
	if s.cfg.FailEveryN > 0 && s.ops%uint64(s.cfg.FailEveryN) == 0 {
		p.fail = true
	}
	if s.cfg.AmbiguousCancelRate > 0 && s.rng.Float64() < s.cfg.AmbiguousCancelRate {
		p.cancel = true
	}
	if !s.eligibleLocked(op) {
		p.fail, p.cancel = false, false
	}
	if p.fail && op == OpPut && s.cfg.TornWrites && s.dir != nil {
		steps := persist.PutSteps()
		p.crashStep = steps[s.rng.Intn(len(steps))]
		p.keep = s.rng.Float64()
		p.torn = true
	}
	if p.fail && op == OpAppend && s.cfg.TornAppends && s.wal != nil {
		steps := wal.AppendSteps()
		p.walStep = steps[s.rng.Intn(len(steps))]
		p.keep = s.rng.Float64()
		p.walTorn = true
	}
	if p.fail || p.cancel {
		s.injected++
	}
	return p
}

// fault builds the injected error for op.
func (s *Store) fault(op Op, id string) error {
	s.mu.Lock()
	base := s.cfg.Err
	s.mu.Unlock()
	return fmt.Errorf("faulty: injected %s %q failure: %w", op, id, base)
}

// Put implements persist.Store.
func (s *Store) Put(ctx context.Context, id string, snap *persist.Snapshot) error {
	p := s.draw(OpPut)
	if p.torn {
		return s.tornPut(ctx, id, snap, p)
	}
	if p.fail {
		return s.fault(OpPut, id)
	}
	err := s.inner.Put(ctx, id, snap)
	if p.cancel && err == nil {
		return fmt.Errorf("faulty: put %q: %w", id, context.Canceled)
	}
	return err
}

// tornPut simulates a crash partway through DirStore.Put's commit
// protocol: the put aborts before p.crashStep, and a crash at the
// fsync step first truncates the temp file to a p.keep prefix — the
// bytes a dying kernel had actually flushed.
func (s *Store) tornPut(ctx context.Context, id string, snap *persist.Snapshot, p plan) error {
	s.putMu.Lock()
	defer s.putMu.Unlock()
	crashErr := fmt.Errorf("faulty: simulated crash before %s of put %q: %w", p.crashStep, id, ErrInjected)
	s.dir.SetCrashHook(func(step persist.PutStep, tmpPath string) error {
		if step != p.crashStep {
			return nil
		}
		if step == persist.StepSyncTemp {
			if fi, err := os.Stat(tmpPath); err == nil {
				_ = os.Truncate(tmpPath, int64(p.keep*float64(fi.Size())))
			}
		}
		return crashErr
	})
	//etlint:ignore lockorder CHA widens s.inner to every module Store, including this wrapper; tornPut only runs when inner is the *persist.DirStore (it drives s.dir's crash hook), which never takes putMu
	err := s.inner.Put(ctx, id, snap) //etlint:ignore chanlock inner is the *persist.DirStore here (see lockorder rationale above); DirStore.Put does no channel ops
	s.dir.SetCrashHook(nil)
	return err
}

// Get implements persist.Store.
func (s *Store) Get(ctx context.Context, id string) (*persist.Snapshot, error) {
	p := s.draw(OpGet)
	if p.fail {
		return nil, s.fault(OpGet, id)
	}
	snap, err := s.inner.Get(ctx, id)
	if p.cancel && err == nil {
		return nil, fmt.Errorf("faulty: get %q: %w", id, context.Canceled)
	}
	return snap, err
}

// Delete implements persist.Store.
func (s *Store) Delete(ctx context.Context, id string) error {
	p := s.draw(OpDelete)
	if p.fail {
		return s.fault(OpDelete, id)
	}
	err := s.inner.Delete(ctx, id)
	if p.cancel && err == nil {
		return fmt.Errorf("faulty: delete %q: %w", id, context.Canceled)
	}
	return err
}

// List implements persist.Store.
func (s *Store) List(ctx context.Context) ([]string, error) {
	p := s.draw(OpList)
	if p.fail {
		return nil, s.fault(OpList, "*")
	}
	ids, err := s.inner.List(ctx)
	if p.cancel && err == nil {
		return nil, fmt.Errorf("faulty: list: %w", context.Canceled)
	}
	return ids, err
}

// CrashPut runs one Put against dir that simulates a process crash
// immediately before the given protocol step, leaving the on-disk state
// a real crash there would leave. keep is the fraction of the snapshot
// bytes "flushed" when crashing at the fsync step (torn temp file);
// other steps ignore it. The returned error is the simulated crash
// (errors.Is ErrInjected) unless Put failed earlier for real reasons.
func CrashPut(ctx context.Context, dir *persist.DirStore, id string, snap *persist.Snapshot, step persist.PutStep, keep float64) error {
	crashErr := fmt.Errorf("faulty: simulated crash before %s of put %q: %w", step, id, ErrInjected)
	dir.SetCrashHook(func(st persist.PutStep, tmpPath string) error {
		if st != step {
			return nil
		}
		if st == persist.StepSyncTemp {
			if fi, err := os.Stat(tmpPath); err == nil {
				_ = os.Truncate(tmpPath, int64(keep*float64(fi.Size())))
			}
		}
		return crashErr
	})
	err := dir.Put(ctx, id, snap)
	dir.SetCrashHook(nil)
	return err
}
