package agents

import (
	"testing"

	"exptrain/internal/belief"
	"exptrain/internal/dataset"
	"exptrain/internal/fd"
	"exptrain/internal/sampling"
	"exptrain/internal/stats"
)

func TestAbstainingTrainerBlanksUncertainPairs(t *testing.T) {
	rel, space := fixture()
	// A belief at exactly 0.55 dirty-probability for violations falls
	// inside a 0.1 margin band.
	prior := belief.New(space, stats.MustBetaFromMoments(0.05, 0.02))
	target, _ := space.Index(fd.MustNew(fd.NewAttrSet(0), 1))
	prior.SetDist(target, stats.MustBetaFromMoments(0.55, 0.02))
	at := NewAbstainingTrainer(NewFPTrainer(prior, nil), 0.1)

	pairs := dataset.AllPairs(rel.NumRows())
	labeled := at.Label(rel, pairs)
	f := space.FD(target)
	sawAbstain := false
	for _, lp := range labeled {
		if fd.Status(f, rel, lp.Pair) == fd.Violating {
			if !lp.Abstained {
				t.Fatalf("uncertain violation %v not abstained", lp.Pair)
			}
			if lp.Dirty() {
				t.Fatalf("abstained labeling still carries marks: %v", lp.Marked)
			}
			sawAbstain = true
		}
	}
	if !sawAbstain {
		t.Fatal("setup: no violating pairs to abstain on")
	}
	if at.Name() != "FP+Abstain" {
		t.Fatalf("Name = %q", at.Name())
	}
}

func TestAbstainingTrainerConfidentPairsPass(t *testing.T) {
	rel, space := fixture()
	prior := belief.New(space, stats.MustBetaFromMoments(0.05, 0.02))
	target, _ := space.Index(fd.MustNew(fd.NewAttrSet(0), 1))
	prior.SetDist(target, stats.MustBetaFromMoments(0.95, 0.02))
	at := NewAbstainingTrainer(NewFPTrainer(prior, nil), 0.1)
	for _, lp := range at.Label(rel, dataset.AllPairs(rel.NumRows())) {
		if lp.Abstained {
			t.Fatalf("confident labeling abstained: %v", lp.Pair)
		}
	}
	// Zero margin never abstains.
	prior.SetDist(target, stats.MustBetaFromMoments(0.5001, 0.01))
	none := NewAbstainingTrainer(NewFPTrainer(prior, nil), 0)
	for _, lp := range none.Label(rel, dataset.AllPairs(rel.NumRows())) {
		if lp.Abstained {
			t.Fatal("zero-margin trainer abstained")
		}
	}
}

func TestRelabelingTrainerRevisesChangedLabels(t *testing.T) {
	rel, space := fixture()
	// Start believing a junk FD strongly; data will overturn it.
	junk, _ := space.Index(fd.MustNew(fd.NewAttrSet(2), 1))
	prior := belief.New(space, stats.MustBetaFromMoments(0.1, 0.05))
	prior.SetDist(junk, stats.MustBetaFromMoments(0.9, 0.05))
	rt := NewRelabelingTrainer(NewFPTrainer(prior, nil))
	rt.MaxRevisionsPerRound = 100

	pairs := dataset.AllPairs(rel.NumRows())[:20]
	first := rt.Label(rel, pairs)
	dirtyBefore := 0
	for _, lp := range first {
		if lp.Dirty() {
			dirtyBefore++
		}
	}
	if dirtyBefore == 0 {
		t.Fatal("setup: junk belief labeled nothing dirty")
	}
	// Strong evidence against the junk FD.
	for i := 0; i < 10; i++ {
		rt.Observe(rel, dataset.AllPairs(rel.NumRows()))
	}
	revisions := rt.Revisions(rel)
	if len(revisions) == 0 {
		t.Fatal("no revisions after a belief reversal")
	}
	// Re-requesting revisions immediately yields nothing new.
	if again := rt.Revisions(rel); len(again) != 0 {
		t.Fatalf("revisions not idempotent: %v", again)
	}
	if rt.Name() != "FP+Relabel" {
		t.Fatalf("Name = %q", rt.Name())
	}
}

func TestRelabelingTrainerRespectsCap(t *testing.T) {
	rel, space := fixture()
	junk, _ := space.Index(fd.MustNew(fd.NewAttrSet(2), 1))
	prior := belief.New(space, stats.MustBetaFromMoments(0.1, 0.05))
	prior.SetDist(junk, stats.MustBetaFromMoments(0.9, 0.05))
	rt := NewRelabelingTrainer(NewFPTrainer(prior, nil))
	rt.MaxRevisionsPerRound = 2

	rt.Label(rel, dataset.AllPairs(rel.NumRows()))
	for i := 0; i < 10; i++ {
		rt.Observe(rel, dataset.AllPairs(rel.NumRows()))
	}
	if got := rt.Revisions(rel); len(got) > 2 {
		t.Fatalf("cap violated: %d revisions", len(got))
	}
}

func TestLearnerReviseReversesOldEvidence(t *testing.T) {
	rel, space := fixture()
	l := NewLearner(belief.New(space, stats.NewBeta(2, 2)), sampling.Random{}, stats.NewRNG(1))

	// Find a pair violating the planted FD.
	target := fd.MustNew(fd.NewAttrSet(0), 1)
	var viol dataset.Pair
	found := false
	for _, q := range dataset.AllPairs(rel.NumRows()) {
		if fd.Status(target, rel, q) == fd.Violating {
			viol = q
			found = true
			break
		}
	}
	if !found {
		t.Fatal("setup: no violating pair")
	}

	idx, _ := space.Index(target)
	baseline := l.Belief().Dist(idx)

	// Incorporate a clean labeling (β evidence), then revise to dirty
	// (no evidence): the belief must return to baseline.
	clean := belief.Labeling{Pair: viol}
	l.Incorporate(rel, []belief.Labeling{clean})
	afterClean := l.Belief().Dist(idx)
	if afterClean.Beta != baseline.Beta+1 {
		t.Fatalf("clean violation did not add β: %+v", afterClean)
	}
	l.Revise(rel, []belief.Labeling{{Pair: viol, Marked: fd.NewAttrSet(target.RHS)}}, []*belief.Labeling{&clean})
	restored := l.Belief().Dist(idx)
	if restored.Alpha != baseline.Alpha || restored.Beta != baseline.Beta {
		t.Fatalf("revision did not restore baseline: Beta(%v,%v) vs Beta(%v,%v)",
			restored.Alpha, restored.Beta, baseline.Alpha, baseline.Beta)
	}
}

func TestLearnerReviseIdenticalIsNoop(t *testing.T) {
	rel, space := fixture()
	l := NewLearner(belief.New(space, stats.NewBeta(2, 2)), sampling.Random{}, stats.NewRNG(1))
	lp := belief.Labeling{Pair: dataset.NewPair(0, 3)}
	l.Incorporate(rel, []belief.Labeling{lp})
	snapshot := l.Belief().Confidences()
	l.Revise(rel, []belief.Labeling{lp}, []*belief.Labeling{&lp})
	for i, v := range l.Belief().Confidences() {
		if v != snapshot[i] {
			t.Fatal("identical revision changed the belief")
		}
	}
}

func TestLearnerReviseUnseenPairIncorporates(t *testing.T) {
	rel, space := fixture()
	l := NewLearner(belief.New(space, stats.NewBeta(2, 2)), sampling.Random{}, stats.NewRNG(1))
	before := l.Belief().Confidences()
	l.Revise(rel, []belief.Labeling{{Pair: dataset.NewPair(0, 3)}}, []*belief.Labeling{nil})
	moved := false
	for i, v := range l.Belief().Confidences() {
		if v != before[i] {
			moved = true
		}
	}
	if !moved {
		t.Fatal("revision of an unseen pair should incorporate it")
	}
}

func TestLearnerForgetRateAdapts(t *testing.T) {
	rel, space := fixture()
	target := fd.MustNew(fd.NewAttrSet(0), 1)
	idx, _ := space.Index(target)
	var comp, viol dataset.Pair
	foundC, foundV := false, false
	for _, q := range dataset.AllPairs(rel.NumRows()) {
		switch fd.Status(target, rel, q) {
		case fd.Compliant:
			comp, foundC = q, true
		case fd.Violating:
			viol, foundV = q, true
		}
	}
	if !foundC || !foundV {
		t.Fatal("setup: need both pair kinds")
	}

	plain := NewLearner(belief.New(space, stats.NewBeta(1, 1)), sampling.Random{}, stats.NewRNG(1))
	forgetting := NewLearner(belief.New(space, stats.NewBeta(1, 1)), sampling.Random{}, stats.NewRNG(1))
	forgetting.ForgetRate = 0.1

	for i := 0; i < 40; i++ {
		plain.Incorporate(rel, []belief.Labeling{{Pair: comp}})
		forgetting.Incorporate(rel, []belief.Labeling{{Pair: comp}})
	}
	for i := 0; i < 15; i++ {
		plain.Incorporate(rel, []belief.Labeling{{Pair: viol}})
		forgetting.Incorporate(rel, []belief.Labeling{{Pair: viol}})
	}
	if forgetting.Belief().Confidence(idx) >= plain.Belief().Confidence(idx) {
		t.Fatalf("forgetting learner (%v) should adapt below plain (%v)",
			forgetting.Belief().Confidence(idx), plain.Belief().Confidence(idx))
	}
}

func TestGameWithRelabelingTrainer(t *testing.T) {
	// End-to-end: a relabeling trainer inside the game loop produces
	// revisions that the learner absorbs without error.
	rel, space := fixture()
	rng := stats.NewRNG(5)
	junk, _ := space.Index(fd.MustNew(fd.NewAttrSet(2), 1))
	prior := belief.New(space, stats.MustBetaFromMoments(0.2, 0.1))
	prior.SetDist(junk, stats.MustBetaFromMoments(0.9, 0.05))
	rt := NewRelabelingTrainer(NewFPTrainer(prior, nil))
	learner := NewLearner(belief.New(space, stats.NewBeta(1, 1)), sampling.Random{}, rng)

	// last is the caller's memory of each pair's newest labeling, which
	// Revise reverses.
	last := make(map[dataset.Pair]belief.Labeling)
	pairs := dataset.AllPairs(rel.NumRows())
	for round := 0; round < 6; round++ {
		batch := pairs[round*5 : round*5+5]
		rt.Observe(rel, batch)
		labeled := rt.Label(rel, batch)
		learner.Incorporate(rel, labeled)
		for _, lp := range labeled {
			last[lp.Pair] = lp
		}
		revised := rt.Revisions(rel)
		prev := make([]*belief.Labeling, len(revised))
		for i, lp := range revised {
			if old, ok := last[lp.Pair]; ok {
				prev[i] = &old
			}
			last[lp.Pair] = lp
		}
		learner.Revise(rel, revised, prev)
	}
	// Beliefs must remain valid Betas throughout.
	for i := 0; i < learner.Belief().Size(); i++ {
		d := learner.Belief().Dist(i)
		if d.Alpha <= 0 || d.Beta <= 0 {
			t.Fatalf("hypothesis %d corrupted: Beta(%v,%v)", i, d.Alpha, d.Beta)
		}
	}
}

func TestRankedHypothesesShape(t *testing.T) {
	rel, space := fixture()
	target, _ := space.Index(fd.MustNew(fd.NewAttrSet(0), 1))
	prior := belief.New(space, stats.MustBetaFromMoments(0.3, 0.05))
	prior.SetDist(target, stats.MustBetaFromMoments(0.9, 0.02))
	ht, err := NewHypothesisTestingTrainer(prior, HTConfig{WindowSize: 50})
	if err != nil {
		t.Fatal(err)
	}
	ht.Observe(rel, dataset.AllPairs(rel.NumRows()))

	ranked := ht.RankedHypotheses(rel, 4)
	if len(ranked) != 4 {
		t.Fatalf("ranked length %d", len(ranked))
	}
	if ranked[0] != ht.Current() {
		t.Fatalf("held hypothesis %d not first: %v", ht.Current(), ranked)
	}
	seen := map[int]bool{}
	for _, i := range ranked {
		if i < 0 || i >= space.Size() || seen[i] {
			t.Fatalf("bad ranking %v", ranked)
		}
		seen[i] = true
	}
	// Oversized k clamps to the space size.
	if got := ht.RankedHypotheses(rel, 100); len(got) != space.Size() {
		t.Fatalf("clamped ranking length %d", len(got))
	}
}

func TestAbstainingTrainerDelegation(t *testing.T) {
	rel, space := fixture()
	inner := NewFPTrainer(belief.UniformPrior(space, 0.5, 0.1), nil)
	at := NewAbstainingTrainer(inner, 0.1)
	if at.Belief() != inner.Belief() {
		t.Fatal("Belief not delegated")
	}
	before := at.Belief().Confidences()
	at.Observe(rel, dataset.AllPairs(rel.NumRows()))
	moved := false
	for i, v := range at.Belief().Confidences() {
		if v != before[i] {
			moved = true
		}
	}
	if !moved {
		t.Fatal("Observe not delegated")
	}
}

func TestHTBeliefAccessor(t *testing.T) {
	_, space := fixture()
	prior := belief.UniformPrior(space, 0.5, 0.1)
	ht, err := NewHypothesisTestingTrainer(prior, HTConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if ht.Belief() != prior {
		t.Fatal("Belief accessor wrong")
	}
}

func TestFPTrainerForgetRateBounds(t *testing.T) {
	rel, space := fixture()
	tr := NewFPTrainer(belief.New(space, stats.NewBeta(50, 50)), nil)
	tr.ForgetRate = 0.5
	tr.Observe(rel, dataset.AllPairs(rel.NumRows())[:5])
	for i := 0; i < tr.Belief().Size(); i++ {
		d := tr.Belief().Dist(i)
		if d.Alpha <= 0 || d.Beta <= 0 {
			t.Fatalf("forgetting produced invalid Beta(%v,%v)", d.Alpha, d.Beta)
		}
		// Evidence mass must have shrunk from 100 toward ~50.
		if d.Alpha+d.Beta > 60 {
			t.Fatalf("forgetting did not shrink evidence: %v", d.Alpha+d.Beta)
		}
	}
}

// Current returns the index of the held hypothesis.
func (t *HypothesisTestingTrainer) Current() int { return t.current }
