package game

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"exptrain/internal/agents"
	"exptrain/internal/belief"
	"exptrain/internal/dataset"
	"exptrain/internal/fd"
	"exptrain/internal/sampling"
	"exptrain/internal/stats"
)

func sessionFixture(t *testing.T) (*dataset.Relation, *fd.Space) {
	t.Helper()
	rel, space, _, _ := buildWorld(t, 31)
	return rel, space
}

func TestSessionProtocol(t *testing.T) {
	rel, space := sessionFixture(t)
	s, err := NewSession(SessionConfig{Relation: rel, Space: space, K: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Submit before Next is rejected with the sentinel.
	if err := s.Submit(nil); !errors.Is(err, ErrNoRoundPending) {
		t.Fatalf("Submit without Next: err = %v, want ErrNoRoundPending", err)
	}
	pairs, err := s.Next()
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 5 {
		t.Fatalf("presented %d pairs", len(pairs))
	}
	// Double Next is rejected with the sentinel.
	if _, err := s.Next(); !errors.Is(err, ErrRoundPending) {
		t.Fatalf("Next with a round pending: err = %v, want ErrRoundPending", err)
	}
	// Labeling an unpresented pair is rejected.
	other := dataset.NewPair(100, 101)
	if err := s.Submit([]belief.Labeling{{Pair: other}}); err == nil {
		t.Fatal("labeling an unpresented pair should error")
	}
	// Duplicate labelings are rejected.
	if err := s.Submit([]belief.Labeling{{Pair: pairs[0]}, {Pair: pairs[0]}}); err == nil {
		t.Fatal("duplicate labeling should error")
	}
	// A partial submission treats the rest as abstained.
	before := s.Belief().Confidences()
	if err := s.Submit([]belief.Labeling{{Pair: pairs[0]}}); err != nil {
		t.Fatal(err)
	}
	if s.Rounds() != 1 {
		t.Fatalf("Rounds = %d", s.Rounds())
	}
	moved := false
	for i, v := range s.Belief().Confidences() {
		if v != before[i] {
			moved = true
		}
	}
	if !moved {
		t.Fatal("submission did not move the belief")
	}
	// The abstained pairs are recorded in history.
	round := s.History()[0]
	if len(round) != 5 {
		t.Fatalf("history round has %d labelings", len(round))
	}
	abstained := 0
	for _, lp := range round {
		if lp.Abstained {
			abstained++
		}
	}
	if abstained != 4 {
		t.Fatalf("abstained = %d, want 4", abstained)
	}
}

func TestSessionFreshPairsAcrossRounds(t *testing.T) {
	rel, space := sessionFixture(t)
	s, err := NewSession(SessionConfig{Relation: rel, Space: space, K: 8, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[dataset.Pair]bool{}
	for round := 0; round < 10; round++ {
		pairs, err := s.Next()
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range pairs {
			if seen[p] {
				t.Fatalf("round %d re-presented pair %v", round, p)
			}
			seen[p] = true
		}
		if err := s.Submit(nil); err != nil {
			t.Fatal(err)
		}
	}
}

func TestSessionSnapshotResume(t *testing.T) {
	rel, space := sessionFixture(t)
	s, err := NewSession(SessionConfig{Relation: rel, Space: space, K: 6, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Play two rounds with best-response labels from an oracle belief.
	oracle := agents.NewStationaryTrainer(belief.DataEstimatePrior(space, rel, 0.1))
	for round := 0; round < 2; round++ {
		pairs, err := s.Next()
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Submit(oracle.Label(rel, pairs)); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	resumed, err := ResumeSession(snap, SessionConfig{Relation: rel, K: 6, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Rounds() != 2 {
		t.Fatalf("resumed rounds = %d", resumed.Rounds())
	}
	if resumed.Belief().MAE(s.Belief()) != 0 {
		t.Fatal("resumed belief differs from original")
	}
	// Resumed session does not re-present already-labeled pairs.
	already := map[dataset.Pair]bool{}
	for _, round := range s.History() {
		for _, lp := range round {
			already[lp.Pair] = true
		}
	}
	pairs, err := resumed.Next()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pairs {
		if already[p] {
			t.Fatalf("resumed session re-presented %v", p)
		}
	}
}

func TestSessionValidation(t *testing.T) {
	rel, space := sessionFixture(t)
	if _, err := NewSession(SessionConfig{Space: space}); err == nil {
		t.Error("nil relation should error")
	}
	if _, err := NewSession(SessionConfig{Relation: rel}); err == nil {
		t.Error("nil space should error")
	}
	small := fd.MustNewSpace(fd.MustEnumerate(fd.SpaceConfig{Arity: 4, MaxLHS: 1}))
	wrongPrior := belief.UniformPrior(small, 0.5, 0.1)
	if _, err := NewSession(SessionConfig{Relation: rel, Space: space, Prior: wrongPrior}); err == nil {
		t.Error("mismatched prior should error")
	}
}

func TestSessionConvergesWithSimulatedAnnotator(t *testing.T) {
	// Session + FP annotator reproduce Run's dynamics.
	rel, space := sessionFixture(t)
	s, err := NewSession(SessionConfig{
		Relation: rel, Space: space, K: 10, Seed: 5,
		Sampler: sampling.Random{},
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(6)
	annotator := agents.NewFPTrainer(belief.RandomPrior(space, rng, 0.1), nil)
	initialMAE := annotator.Belief().MAE(s.Belief())
	lastMAE := initialMAE
	for round := 0; round < 25; round++ {
		pairs, err := s.Next()
		if errors.Is(err, ErrPoolExhausted) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		annotator.Observe(rel, pairs)
		if err := s.Submit(annotator.Label(rel, pairs)); err != nil {
			t.Fatal(err)
		}
		lastMAE = annotator.Belief().MAE(s.Belief())
	}
	if lastMAE >= initialMAE {
		t.Fatalf("session did not converge: %v → %v", initialMAE, lastMAE)
	}
	if lastMAE > 0.25 {
		t.Fatalf("final MAE %v too high", lastMAE)
	}
}

func TestSessionPoolExhaustedSentinel(t *testing.T) {
	rel, space := sessionFixture(t)
	s, err := NewSession(SessionConfig{Relation: rel, Space: space, K: 500, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	// Drain the pool: with K far above the pool size every round takes
	// everything that is left.
	for rounds := 0; ; rounds++ {
		pairs, err := s.Next()
		if err != nil {
			if !errors.Is(err, ErrPoolExhausted) {
				t.Fatalf("draining Next: err = %v, want ErrPoolExhausted", err)
			}
			break
		}
		if len(pairs) == 0 {
			t.Fatal("Next returned no pairs without ErrPoolExhausted")
		}
		if err := s.Submit(nil); err != nil {
			t.Fatal(err)
		}
		if rounds > 10_000 {
			t.Fatal("pool never exhausted")
		}
	}
	if s.RemainingPairs() != 0 {
		t.Fatalf("RemainingPairs = %d after exhaustion", s.RemainingPairs())
	}
}

func TestSessionContextCancellation(t *testing.T) {
	rel, space := sessionFixture(t)
	s, err := NewSession(SessionConfig{Relation: rel, Space: space, K: 4, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.NextContext(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("NextContext on canceled ctx: err = %v", err)
	}
	// The failed call must not have consumed pool state.
	pairs, err := s.NextContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SubmitContext(ctx, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("SubmitContext on canceled ctx: err = %v", err)
	}
	// The round is still pending after the canceled Submit.
	if got := s.Pending(); len(got) != len(pairs) {
		t.Fatalf("Pending = %d pairs, want %d", len(got), len(pairs))
	}
	if err := s.SubmitContext(context.Background(), nil); err != nil {
		t.Fatal(err)
	}
}

// TestSessionSnapshotWithPendingRound: a session with a round pending
// snapshots as of its last submitted round and keeps the round pending,
// and the snapshot is byte-identical to a twin's that never drew the
// round.
func TestSessionSnapshotWithPendingRound(t *testing.T) {
	rel, space := sessionFixture(t)
	newSession := func() *Session {
		s, err := NewSession(SessionConfig{Relation: rel, Space: space, K: 4, Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	s, twin := newSession(), newSession()
	for _, sess := range []*Session{s, twin} {
		pairs, err := sess.Next()
		if err != nil {
			t.Fatal(err)
		}
		if err := sess.Submit([]belief.Labeling{{Pair: pairs[0], Marked: fd.NewAttrSet(1)}}); err != nil {
			t.Fatal(err)
		}
	}
	pairs, err := s.Next()
	if err != nil {
		t.Fatal(err)
	}
	snap, err := s.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot with a round pending: %v", err)
	}
	if got := s.Pending(); !equalPairs(got, pairs) {
		t.Fatalf("Pending after Snapshot = %v, want the presented %v", got, pairs)
	}
	want, err := twin.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	var got, exp bytes.Buffer
	if err := snap.Write(&got); err != nil {
		t.Fatal(err)
	}
	if err := want.Write(&exp); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), exp.Bytes()) {
		t.Fatalf("snapshot with a round pending differs from the twin's without it:\n got %.300s\nwant %.300s", got.Bytes(), exp.Bytes())
	}
}

// TestSessionSnapshotPendingIsDrawExact: a snapshot taken with a round
// pending resumes to re-present that round's pairs, so a session
// resumed from it — mid-game, at any round — plays the pairs an
// uninterrupted session draws.
func TestSessionSnapshotPendingIsDrawExact(t *testing.T) {
	rel, space := sessionFixture(t)
	newSession := func() *Session {
		s, err := NewSession(SessionConfig{Relation: rel, Space: space, K: 4, Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	play := func(s *Session, resumeAt int) [][]dataset.Pair {
		var rounds [][]dataset.Pair
		for r := 0; r < 4; r++ {
			pairs, err := s.Next()
			if err != nil {
				t.Fatal(err)
			}
			if r == resumeAt {
				snap, err := s.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				if s, err = ResumeSession(snap, SessionConfig{Relation: rel, K: 4, Seed: 9}); err != nil {
					t.Fatal(err)
				}
				if again, err := s.Next(); err != nil {
					t.Fatal(err)
				} else if !equalPairs(again, pairs) {
					t.Fatalf("round %d re-presented %v, first presentation %v", r, again, pairs)
				}
			}
			rounds = append(rounds, pairs)
			labeled := make([]belief.Labeling, len(pairs))
			for i, p := range pairs {
				labeled[i] = belief.Labeling{Pair: p}
			}
			if err := s.Submit(labeled); err != nil {
				t.Fatal(err)
			}
		}
		return rounds
	}
	want := play(newSession(), -1)
	for at := 0; at < 4; at++ {
		got := play(newSession(), at)
		for r := range want {
			if !equalPairs(got[r], want[r]) {
				t.Fatalf("resumed at round %d: round %d presented %v, uninterrupted %v", at, r, got[r], want[r])
			}
		}
	}
}

func equalPairs(a, b []dataset.Pair) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestRunContextCancellation(t *testing.T) {
	rel, space := sessionFixture(t)
	rng := stats.NewRNG(10)
	trainer := agents.NewFPTrainer(belief.RandomPrior(space, rng, 0.1), rng.Split())
	learner := agents.NewLearner(belief.DataEstimatePrior(space, rel, 0.12), sampling.Random{}, rng.Split())
	pool := sampling.NewPool(rel, space, sampling.PoolConfig{Seed: 10})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunContext(ctx, rel, trainer, learner, pool, Config{Iterations: 5}); !errors.Is(err, context.Canceled) {
		t.Fatalf("RunContext on canceled ctx: err = %v", err)
	}
}
