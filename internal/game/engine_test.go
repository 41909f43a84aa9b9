package game

import (
	"fmt"
	"testing"

	"exptrain/internal/agents"
	"exptrain/internal/belief"
	"exptrain/internal/dataset"
	"exptrain/internal/sampling"
	"exptrain/internal/stats"
)

func TestConfigBelievedTauZeroFootgun(t *testing.T) {
	// Unset tau defaults to 0.5.
	if got := (Config{}).withDefaults().BelievedTau; got != 0.5 {
		t.Fatalf("unset BelievedTau = %v, want 0.5", got)
	}
	// An explicit 0 survives when flagged — threshold 0 means "export
	// every hypothesis", a meaningful configuration.
	cfg := Config{BelievedTau: 0, BelievedTauSet: true}.withDefaults()
	if cfg.BelievedTau != 0 {
		t.Fatalf("explicit BelievedTau 0 overridden to %v", cfg.BelievedTau)
	}
	// Non-zero values pass through regardless of the flag.
	if got := (Config{BelievedTau: 0.7}).withDefaults().BelievedTau; got != 0.7 {
		t.Fatalf("BelievedTau 0.7 became %v", got)
	}
}

func TestSessionConfigBelievedTauZeroFootgun(t *testing.T) {
	rel, space := sessionFixture(t)
	s, err := NewSession(SessionConfig{Relation: rel, Space: space, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if s.eng.believedTau != 0.5 {
		t.Fatalf("unset session BelievedTau = %v, want 0.5", s.eng.believedTau)
	}
	s, err = NewSession(SessionConfig{
		Relation: rel, Space: space, Seed: 1,
		BelievedTau: 0, BelievedTauSet: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if s.eng.believedTau != 0 {
		t.Fatalf("explicit session BelievedTau 0 overridden to %v", s.eng.believedTau)
	}
}

// eventTrace records every observer callback as "kind:t".
type eventTrace struct {
	events []string
}

func (e *eventTrace) RoundStarted(t int) { e.events = append(e.events, fmt.Sprintf("started:%d", t)) }
func (e *eventTrace) PairsPresented(t int, pairs []dataset.Pair) {
	e.events = append(e.events, fmt.Sprintf("presented:%d:%d", t, len(pairs)))
}
func (e *eventTrace) RoundSubmitted(t int, labeled, revisions []belief.Labeling) {
	e.events = append(e.events, fmt.Sprintf("submitted:%d:%d:%d", t, len(labeled), len(revisions)))
}
func (e *eventTrace) BeliefUpdated(t int, b *belief.Belief) {
	e.events = append(e.events, fmt.Sprintf("updated:%d", t))
}
func (e *eventTrace) RoundScored(t int, rec IterationRecord) {
	e.events = append(e.events, fmt.Sprintf("scored:%d", t))
}

func TestObserverEventOrderInRun(t *testing.T) {
	rel, space, pool, _ := buildWorld(t, 41)
	rng := stats.NewRNG(42)
	trainer := agents.NewFPTrainer(belief.RandomPrior(space, rng.Split(), 0.1), nil)
	learner := agents.NewLearner(belief.DataEstimatePrior(space, rel, 0.1), sampling.Random{}, rng.Split())

	trace := &eventTrace{}
	res, err := Run(rel, trainer, learner, pool, Config{K: 6, Iterations: 8, Observer: trace})
	if err != nil {
		t.Fatal(err)
	}
	n := len(res.Iterations)
	if len(trace.events) != 5*n {
		t.Fatalf("observer saw %d events for %d rounds, want %d", len(trace.events), n, 5*n)
	}
	for round := 0; round < n; round++ {
		want := []string{
			fmt.Sprintf("started:%d", round),
			fmt.Sprintf("presented:%d:%d", round, len(res.Iterations[round].Presented)),
			fmt.Sprintf("submitted:%d:%d:%d", round, len(res.Iterations[round].Labeled), len(res.Iterations[round].Revisions)),
			fmt.Sprintf("updated:%d", round),
			fmt.Sprintf("scored:%d", round),
		}
		for i, w := range want {
			if got := trace.events[5*round+i]; got != w {
				t.Fatalf("event %d = %q, want %q (trace %v)", 5*round+i, got, w, trace.events)
			}
		}
	}
}

func TestSessionRevisionSubmission(t *testing.T) {
	rel, space := sessionFixture(t)
	s, err := NewSession(SessionConfig{Relation: rel, Space: space, K: 4, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	first, err := s.Next()
	if err != nil {
		t.Fatal(err)
	}
	// Round 1: mark attribute 1 as erroneous on the first pair.
	mark := space.FD(0).LHS // any non-empty AttrSet works
	if err := s.Submit([]belief.Labeling{{Pair: first[0], Marked: mark}}); err != nil {
		t.Fatal(err)
	}
	afterFirst := append([]float64(nil), s.Belief().Confidences()...)

	second, err := s.Next()
	if err != nil {
		t.Fatal(err)
	}
	// Round 2: fresh labels plus a correction of the round-1 label back
	// to clean — a revision, not an error.
	revised := belief.Labeling{Pair: first[0]}
	batch := []belief.Labeling{revised}
	for _, p := range second {
		batch = append(batch, belief.Labeling{Pair: p})
	}
	if err := s.Submit(batch); err != nil {
		t.Fatalf("revision submit: %v", err)
	}
	recs := s.Records()
	if len(recs) != 2 {
		t.Fatalf("Records = %d rounds", len(recs))
	}
	if len(recs[1].Revisions) != 1 || recs[1].Revisions[0].Pair != first[0] {
		t.Fatalf("round 2 revisions = %v", recs[1].Revisions)
	}
	if len(recs[1].Labeled) != len(second) {
		t.Fatalf("round 2 labeled %d pairs, want %d", len(recs[1].Labeled), len(second))
	}
	// The records now hold the corrected label as the pair's newest.
	if prev := s.eng.previous(nil, []belief.Labeling{{Pair: first[0]}}); prev[0] == nil || *prev[0] != revised {
		t.Fatalf("previous(%v) = %v", first[0], prev[0])
	}
	// Belief actually moved from the post-round-1 state (reversal plus
	// new evidence).
	moved := false
	for i, v := range s.Belief().Confidences() {
		if v != afterFirst[i] {
			moved = true
			break
		}
	}
	if !moved {
		t.Fatal("revision did not move the belief")
	}

	// A pair never presented nor labeled still errors.
	if _, err := s.Next(); err != nil {
		t.Fatal(err)
	}
	if err := s.Submit([]belief.Labeling{{Pair: dataset.NewPair(100, 101)}}); err == nil {
		t.Fatal("labeling an unknown pair should error")
	}
}

func TestSessionDefensiveCopies(t *testing.T) {
	rel, space := sessionFixture(t)
	s, err := NewSession(SessionConfig{Relation: rel, Space: space, K: 4, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	pairs, err := s.Next()
	if err != nil {
		t.Fatal(err)
	}
	if s.PendingCount() != len(pairs) {
		t.Fatalf("PendingCount = %d, want %d", s.PendingCount(), len(pairs))
	}
	// Clobbering the returned pending slice must not corrupt the round.
	got := s.Pending()
	for i := range got {
		got[i] = dataset.NewPair(9990, 9991+i)
	}
	if err := s.Submit([]belief.Labeling{{Pair: pairs[0]}}); err != nil {
		t.Fatalf("Submit after mutating Pending copy: %v", err)
	}
	// Clobbering a History round must not corrupt the engine's records.
	hist := s.History()
	hist[0][0] = belief.Labeling{Pair: dataset.NewPair(9990, 9991), Abstained: true}
	if rec := s.Records()[0]; rec.Labeled[0].Pair != pairs[0] {
		t.Fatalf("mutating History() copy leaked into Records: %v", rec.Labeled[0])
	}
}

func TestSessionRecordsMeasureAgainstReference(t *testing.T) {
	rel, space := sessionFixture(t)
	s, err := NewSession(SessionConfig{Relation: rel, Space: space, K: 6, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	oracle := agents.NewStationaryTrainer(belief.DataEstimatePrior(space, rel, 0.1))
	for round := 0; round < 3; round++ {
		pairs, err := s.Next()
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Submit(oracle.Label(rel, pairs)); err != nil {
			t.Fatal(err)
		}
	}
	recs := s.Records()
	if len(recs) != 3 {
		t.Fatalf("Records = %d", len(recs))
	}
	for i, rec := range recs {
		// The learner's belief moves away from the static reference as
		// evidence accumulates, so the MAE series is strictly positive.
		if rec.MAE <= 0 || rec.MAE > 1 {
			t.Fatalf("round %d MAE = %v, want in (0,1]", i, rec.MAE)
		}
		if rec.TrainerPayoff < 0 {
			t.Fatalf("round %d payoff = %v", i, rec.TrainerPayoff)
		}
	}
}

func TestSessionResumeKeepsRecords(t *testing.T) {
	rel, space, _, ground := buildWorld(t, 43)
	rng := stats.NewRNG(44)
	_, testRows := rel.Split(rng.Split(), 0.7)
	dirty := map[int]struct{}{}
	for newIdx, orig := range testRows {
		if _, bad := ground.DirtyRows[orig]; bad {
			dirty[newIdx] = struct{}{}
		}
	}
	mkCfg := func() SessionConfig {
		return SessionConfig{
			Relation: rel, Space: space, K: 5, Seed: 45,
			Eval: &Evaluator{TestRel: rel.Subset(testRows), DirtyRows: dirty},
		}
	}
	s, err := NewSession(mkCfg())
	if err != nil {
		t.Fatal(err)
	}
	oracle := agents.NewStationaryTrainer(belief.DataEstimatePrior(space, rel, 0.1))
	for round := 0; round < 3; round++ {
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
	resumed, err := ResumeSession(snap, mkCfg())
	if err != nil {
		t.Fatal(err)
	}
	orig, got := s.Records(), resumed.Records()
	if len(got) != len(orig) {
		t.Fatalf("resumed Records = %d rounds, want %d", len(got), len(orig))
	}
	for i := range orig {
		if got[i].MAE != orig[i].MAE || got[i].TrainerPayoff != orig[i].TrainerPayoff {
			t.Fatalf("round %d measurements changed: %v/%v vs %v/%v",
				i, got[i].MAE, got[i].TrainerPayoff, orig[i].MAE, orig[i].TrainerPayoff)
		}
		if got[i].Detection != orig[i].Detection {
			t.Fatalf("round %d detection changed: %+v vs %+v", i, got[i].Detection, orig[i].Detection)
		}
		if len(got[i].Labeled) != len(orig[i].Labeled) {
			t.Fatalf("round %d labeled count changed", i)
		}
	}
	// A post-resume revision of a pre-snapshot label goes through the
	// exact-reversal path (the restored records hold its labeling)
	// instead of erroring as an unknown pair.
	target := orig[0].Labeled[0]
	if _, err := resumed.Next(); err != nil {
		t.Fatal(err)
	}
	flip := belief.Labeling{Pair: target.Pair, Marked: space.FD(0).LHS}
	if err := resumed.Submit([]belief.Labeling{flip}); err != nil {
		t.Fatalf("revising a pre-snapshot label after resume: %v", err)
	}
	last := resumed.Records()[len(resumed.Records())-1]
	if len(last.Revisions) != 1 || last.Revisions[0].Pair != target.Pair {
		t.Fatalf("post-resume revisions = %v", last.Revisions)
	}
}
