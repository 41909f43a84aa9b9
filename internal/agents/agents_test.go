package agents

import (
	"testing"

	"exptrain/internal/belief"
	"exptrain/internal/dataset"
	"exptrain/internal/fd"
	"exptrain/internal/sampling"
	"exptrain/internal/stats"
)

// fixture: relation with planted FD a→b, one injected violation, and a
// single-LHS hypothesis space.
func fixture() (*dataset.Relation, *fd.Space) {
	rel := dataset.New(dataset.MustSchema("a", "b", "c"))
	for i := 0; i < 15; i++ {
		k := string(rune('0' + i%3))
		rel.MustAppend(dataset.Tuple{k, "f" + k, string(rune('p' + i%4))})
	}
	rel.SetValue(1, 1, "broken")
	space := fd.MustNewSpace(fd.MustEnumerate(fd.SpaceConfig{Arity: 3, MaxLHS: 1}))
	return rel, space
}

func TestFPTrainerObserveMovesBelief(t *testing.T) {
	rel, space := fixture()
	prior := belief.UniformPrior(space, 0.5, 0.1)
	tr := NewFPTrainer(prior, nil)
	before := tr.Belief().Confidences()
	tr.Observe(rel, dataset.AllPairs(rel.NumRows()))
	after := tr.Belief().Confidences()
	moved := false
	for i := range before {
		if before[i] != after[i] {
			moved = true
		}
	}
	if !moved {
		t.Fatal("FP trainer belief did not move after observing data")
	}
	// The planted FD's confidence should now exceed a junk FD's (c→b has
	// no functional structure).
	target, _ := space.Index(fd.MustNew(fd.NewAttrSet(0), 1))
	junk, _ := space.Index(fd.MustNew(fd.NewAttrSet(2), 1))
	if tr.Belief().Confidence(target) <= tr.Belief().Confidence(junk) {
		t.Fatalf("target FD confidence %v not above junk %v",
			tr.Belief().Confidence(target), tr.Belief().Confidence(junk))
	}
}

func TestFPTrainerLabelsBestResponse(t *testing.T) {
	rel, space := fixture()
	// Give the trainer a confident belief in a→b only.
	prior := belief.New(space, stats.MustBetaFromMoments(0.05, 0.02))
	target, _ := space.Index(fd.MustNew(fd.NewAttrSet(0), 1))
	prior.SetDist(target, stats.MustBetaFromMoments(0.95, 0.02))
	tr := NewFPTrainer(prior, nil)

	pairs := dataset.AllPairs(rel.NumRows())
	labeled := tr.Label(rel, pairs)
	if len(labeled) != len(pairs) {
		t.Fatalf("labeled %d of %d", len(labeled), len(pairs))
	}
	f := space.FD(target)
	for _, lp := range labeled {
		wantDirty := fd.Status(f, rel, lp.Pair) == fd.Violating
		if lp.Dirty() != wantDirty {
			t.Fatalf("pair %v marked %v, violates=%v", lp.Pair, lp.Marked, wantDirty)
		}
		if wantDirty && !lp.Marked.Has(f.RHS) {
			t.Fatalf("violation of %v marked %v, want RHS attr", f, lp.Marked)
		}
	}
}

func TestFPTrainerObserveEmptyNoop(t *testing.T) {
	_, space := fixture()
	tr := NewFPTrainer(belief.UniformPrior(space, 0.5, 0.1), nil)
	before := tr.Belief().Confidences()
	tr.Observe(nil, nil)
	after := tr.Belief().Confidences()
	for i := range before {
		if before[i] != after[i] {
			t.Fatal("empty observation moved belief")
		}
	}
}

func TestFPTrainerNoise(t *testing.T) {
	rel, space := fixture()
	prior := belief.New(space, stats.MustBetaFromMoments(0.05, 0.02))
	tr := NewFPTrainer(prior, stats.NewRNG(3))
	tr.NoiseRate = 1.0 // always flip
	pairs := dataset.AllPairs(rel.NumRows())[:10]
	labeled := tr.Label(rel, pairs)
	// With a near-zero belief everything starts clean; full noise marks
	// every pair that violates anything at all.
	for _, lp := range labeled {
		violatesSomething := false
		for i := 0; i < space.Size(); i++ {
			if fd.Status(space.FD(i), rel, lp.Pair) == fd.Violating {
				violatesSomething = true
			}
		}
		if lp.Dirty() != violatesSomething {
			t.Fatalf("pair %v: noise marking %v, violatesSomething=%v", lp.Pair, lp.Marked, violatesSomething)
		}
	}
}

func TestStationaryTrainerNeverMoves(t *testing.T) {
	rel, space := fixture()
	prior := belief.UniformPrior(space, 0.7, 0.1)
	tr := NewStationaryTrainer(prior)
	before := tr.Belief().Confidences()
	tr.Observe(rel, dataset.AllPairs(rel.NumRows()))
	after := tr.Belief().Confidences()
	for i := range before {
		if before[i] != after[i] {
			t.Fatal("stationary trainer belief moved")
		}
	}
	if tr.Name() != "Stationary" {
		t.Fatalf("Name = %q", tr.Name())
	}
	if got := tr.Label(rel, dataset.AllPairs(3)); len(got) != 3 {
		t.Fatalf("labeled %d", len(got))
	}
}

func TestHypothesisTestingStartsAtPriorTop(t *testing.T) {
	_, space := fixture()
	prior := belief.New(space, stats.MustBetaFromMoments(0.2, 0.05))
	prior.SetDist(3, stats.MustBetaFromMoments(0.9, 0.02))
	ht, err := NewHypothesisTestingTrainer(prior, HTConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if ht.Current() != 3 {
		t.Fatalf("initial hypothesis %d, want 3", ht.Current())
	}
	if ht.Name() != "HypothesisTesting" {
		t.Fatalf("Name = %q", ht.Name())
	}
}

func TestHypothesisTestingRejectsFailingHypothesis(t *testing.T) {
	rel, space := fixture()
	// Prior is confident in a junk hypothesis c→b which the data
	// contradicts heavily.
	junk, _ := space.Index(fd.MustNew(fd.NewAttrSet(2), 1))
	target, _ := space.Index(fd.MustNew(fd.NewAttrSet(0), 1))
	prior := belief.New(space, stats.MustBetaFromMoments(0.3, 0.05))
	prior.SetDist(junk, stats.MustBetaFromMoments(0.95, 0.02))
	ht, err := NewHypothesisTestingTrainer(prior, HTConfig{Tolerance: 0.2, WindowSize: 40})
	if err != nil {
		t.Fatal(err)
	}
	if ht.Current() != junk {
		t.Fatalf("setup: current = %d, want junk %d", ht.Current(), junk)
	}
	// Feed evidence; c→b violates often, so it must be rejected.
	ht.Observe(rel, dataset.AllPairs(rel.NumRows()))
	if ht.Current() == junk {
		t.Fatal("failing hypothesis not rejected")
	}
	// The replacement should explain the recent data well; the planted
	// FD is the best explainer here.
	if ht.Current() != target {
		t.Logf("note: switched to %v rather than the planted FD", space.FD(ht.Current()))
		if ht.empiricalConfidence(rel, ht.Current()) < ht.empiricalConfidence(rel, target) {
			t.Fatal("replacement explains recent data worse than the planted FD")
		}
	}
}

func TestHypothesisTestingKeepsGoodHypothesis(t *testing.T) {
	rel, space := fixture()
	target, _ := space.Index(fd.MustNew(fd.NewAttrSet(0), 1))
	prior := belief.New(space, stats.MustBetaFromMoments(0.2, 0.05))
	prior.SetDist(target, stats.MustBetaFromMoments(0.9, 0.02))
	ht, err := NewHypothesisTestingTrainer(prior, HTConfig{Tolerance: 0.25, WindowSize: 40})
	if err != nil {
		t.Fatal(err)
	}
	ht.Observe(rel, dataset.AllPairs(rel.NumRows()))
	if ht.Current() != target {
		t.Fatalf("well-supported hypothesis rejected; now %v", space.FD(ht.Current()))
	}
}

func TestHypothesisTestingLabelsByCurrentOnly(t *testing.T) {
	rel, space := fixture()
	target, _ := space.Index(fd.MustNew(fd.NewAttrSet(0), 1))
	prior := belief.New(space, stats.MustBetaFromMoments(0.2, 0.05))
	prior.SetDist(target, stats.MustBetaFromMoments(0.9, 0.02))
	ht, _ := NewHypothesisTestingTrainer(prior, HTConfig{})
	f := space.FD(target)
	for _, lp := range ht.Label(rel, dataset.AllPairs(rel.NumRows())) {
		wantDirty := fd.Status(f, rel, lp.Pair) == fd.Violating
		if lp.Dirty() != wantDirty {
			t.Fatalf("pair %v marked %v against held FD", lp.Pair, lp.Marked)
		}
	}
}

func TestLearnerRoundTrip(t *testing.T) {
	rel, space := fixture()
	prior := belief.UniformPrior(space, 0.5, 0.1)
	l := NewLearner(prior, sampling.Random{}, stats.NewRNG(1))
	if l.Name() != "Random" {
		t.Fatalf("Name = %q", l.Name())
	}
	pool := sampling.NewPoolFrom(rel, dataset.AllPairs(rel.NumRows()))
	got := l.Present(pool.Candidates(), 10)
	if len(got) != 10 {
		t.Fatalf("presented %d", len(got))
	}
	before := l.Belief().Confidences()
	labeled := make([]belief.Labeling, len(got))
	for i, p := range got {
		labeled[i] = belief.Labeling{Pair: p}
	}
	l.Incorporate(rel, labeled)
	after := l.Belief().Confidences()
	moved := false
	for i := range before {
		if before[i] != after[i] {
			moved = true
		}
	}
	if !moved {
		t.Fatal("learner belief did not move after labels")
	}
	// Empty incorporate is a no-op.
	snapshot := l.Belief().Confidences()
	l.Incorporate(rel, nil)
	for i, v := range l.Belief().Confidences() {
		if v != snapshot[i] {
			t.Fatal("empty incorporate moved belief")
		}
	}
}
