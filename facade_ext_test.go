package exptrain

import (
	"testing"
)

func TestFacadeMinimalCover(t *testing.T) {
	rel := table1(t)
	a, _ := ParseFD("Team->City", rel.Schema())
	b, _ := ParseFD("City->Role", rel.Schema())
	c, _ := ParseFD("Team->Role", rel.Schema()) // implied by a, b
	cover := MinimalCover([]FD{a, b, c})
	if len(cover) != 2 {
		t.Fatalf("cover = %v, want 2 FDs", cover)
	}
}

func TestFacadeRepairPipeline(t *testing.T) {
	ds, err := GenerateDataset("Tax", 200, 6)
	if err != nil {
		t.Fatal(err)
	}
	injected, err := InjectErrors(ds.Rel, ds.ExactFDs, 0.08, 6)
	if err != nil {
		t.Fatal(err)
	}
	believed := make([]BelievedFD, 0, len(ds.ExactFDs))
	for _, f := range ds.ExactFDs {
		believed = append(believed, BelievedFD{FD: f, Confidence: 0.95})
	}
	sugg, err := SuggestRepairs(injected.Rel, believed, RepairConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if len(sugg) == 0 {
		t.Fatal("no repairs suggested")
	}
	repaired, err := ApplyRepairs(injected.Rel, sugg)
	if err != nil {
		t.Fatal(err)
	}
	// Repairs strictly reduce total violations of the ground-truth FDs.
	var before, after float64
	for _, f := range ds.ExactFDs {
		before += G1(f, injected.Rel)
		after += G1(f, repaired)
	}
	if after >= before {
		t.Fatalf("repairs did not reduce violations: %v → %v", before, after)
	}
}

func TestFacadeTrainingSession(t *testing.T) {
	ds, err := GenerateDataset("OMDB", 150, 4)
	if err != nil {
		t.Fatal(err)
	}
	injected, err := InjectErrors(ds.Rel, ds.ExactFDs, 0.1, 4)
	if err != nil {
		t.Fatal(err)
	}
	session, err := NewTrainingSession(TrainingSessionConfig{
		Relation: injected.Rel,
		Space:    ds.Space(3, 38),
		K:        6,
		Seed:     9,
	})
	if err != nil {
		t.Fatal(err)
	}
	pairs, err := session.Next()
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 6 {
		t.Fatalf("presented %d pairs", len(pairs))
	}
	// Label everything clean and checkpoint.
	labels := make([]Labeling, len(pairs))
	for i, p := range pairs {
		labels[i] = Labeling{Pair: p}
	}
	if err := session.Submit(labels); err != nil {
		t.Fatal(err)
	}
	snap, err := session.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/snap.json"
	if err := snap.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := ReadSnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := ResumeTrainingSession(back, TrainingSessionConfig{
		Relation: injected.Rel, K: 6, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Rounds() != 1 {
		t.Fatalf("resumed rounds = %d", resumed.Rounds())
	}
}

func TestFacadeDetectErrorsAndSessionForgetting(t *testing.T) {
	ds, err := GenerateDataset("Hospital", 150, 8)
	if err != nil {
		t.Fatal(err)
	}
	injected, err := InjectErrors(ds.Rel, ds.ExactFDs, 0.05, 8)
	if err != nil {
		t.Fatal(err)
	}
	flagged := DetectErrors(ds.ExactFDs, injected.Rel)
	if len(flagged) == 0 {
		t.Fatal("oracle FDs flagged nothing")
	}
	res, err := RunSession(SessionConfig{
		Relation:          injected.Rel,
		Space:             ds.Space(3, 38),
		Method:            MethodUS,
		Iterations:        5,
		LearnerForgetRate: 0.05,
		Seed:              3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Iterations) != 5 {
		t.Fatalf("iterations = %d", len(res.Iterations))
	}
}

func TestFacadeNewSnapshotValidation(t *testing.T) {
	rel := table1(t)
	if _, err := NewSnapshot(rel.Schema(), nil, nil, nil, nil); err == nil {
		t.Fatal("nil space should error")
	}
}
