package persist

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"exptrain/internal/belief"
	"exptrain/internal/dataset"
	"exptrain/internal/fd"
	"exptrain/internal/stats"
)

func fixture(t *testing.T) (*dataset.Schema, *fd.Space, *belief.Belief, *belief.Belief, [][]belief.Labeling) {
	t.Helper()
	schema := dataset.MustSchema("a", "b", "c")
	space := fd.MustNewSpace(fd.MustEnumerate(fd.SpaceConfig{Arity: 3, MaxLHS: 2}))
	trainer := belief.New(space, stats.NewBeta(2, 3))
	trainer.SetDist(1, stats.NewBeta(10, 1))
	learner := belief.New(space, stats.NewBeta(1, 1))
	learner.SetDist(4, stats.NewBeta(0.5, 7.25))
	history := [][]belief.Labeling{
		{
			{Pair: dataset.NewPair(0, 1), Marked: fd.NewAttrSet(1)},
			{Pair: dataset.NewPair(2, 5)},
		},
		{
			{Pair: dataset.NewPair(1, 3), Abstained: true},
		},
	}
	return schema, space, trainer, learner, history
}

func TestSnapshotRoundTrip(t *testing.T) {
	schema, space, trainer, learner, history := fixture(t)
	snap, err := NewSnapshot(schema, space, trainer, learner, history)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := snap.Write(&sb); err != nil {
		t.Fatal(err)
	}
	back, err := Read(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}

	space2, err := back.RestoreSpace()
	if err != nil {
		t.Fatal(err)
	}
	if space2.Size() != space.Size() {
		t.Fatalf("space size %d, want %d", space2.Size(), space.Size())
	}
	for i := 0; i < space.Size(); i++ {
		if space2.FD(i) != space.FD(i) {
			t.Fatalf("FD %d mismatch: %v vs %v", i, space2.FD(i), space.FD(i))
		}
	}

	tr2, err := back.RestoreTrainer(space2)
	if err != nil {
		t.Fatal(err)
	}
	le2, err := back.RestoreLearner(space2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < space.Size(); i++ {
		if tr2.Dist(i) != trainer.Dist(i) {
			t.Fatalf("trainer dist %d: %+v vs %+v", i, tr2.Dist(i), trainer.Dist(i))
		}
		if le2.Dist(i) != learner.Dist(i) {
			t.Fatalf("learner dist %d: %+v vs %+v", i, le2.Dist(i), learner.Dist(i))
		}
	}

	h2, err := back.RestoreHistory()
	if err != nil {
		t.Fatal(err)
	}
	if len(h2) != len(history) {
		t.Fatalf("history length %d, want %d", len(h2), len(history))
	}
	for i := range history {
		if len(h2[i]) != len(history[i]) {
			t.Fatalf("interaction %d length mismatch", i)
		}
		for j := range history[i] {
			if h2[i][j] != history[i][j] {
				t.Fatalf("labeling (%d,%d): %+v vs %+v", i, j, h2[i][j], history[i][j])
			}
		}
	}

	if err := back.ValidateSchema(schema); err != nil {
		t.Fatalf("schema validation failed: %v", err)
	}
}

func TestSnapshotFileRoundTrip(t *testing.T) {
	schema, space, trainer, learner, history := fixture(t)
	snap, err := NewSnapshot(schema, space, trainer, learner, history)
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/session.json"
	if err := snap.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Version != Version || len(back.Space) != space.Size() {
		t.Fatalf("bad reload: %+v", back)
	}
	if _, err := ReadFile(path + ".missing"); err == nil {
		t.Fatal("missing file should error")
	}
}

func TestSnapshotNilBeliefs(t *testing.T) {
	schema, space, _, _, _ := fixture(t)
	snap, err := NewSnapshot(schema, space, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := snap.Write(&sb); err != nil {
		t.Fatal(err)
	}
	back, err := Read(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	space2, err := back.RestoreSpace()
	if err != nil {
		t.Fatal(err)
	}
	tr, err := back.RestoreTrainer(space2)
	if err != nil || tr != nil {
		t.Fatalf("nil trainer should restore nil, got %v, %v", tr, err)
	}
}

func TestSnapshotValidation(t *testing.T) {
	schema, _, trainer, _, _ := fixture(t)
	if _, err := NewSnapshot(schema, nil, nil, nil, nil); err == nil {
		t.Error("nil space should error")
	}
	small := fd.MustNewSpace(fd.MustEnumerate(fd.SpaceConfig{Arity: 3, MaxLHS: 1}))
	if _, err := NewSnapshot(schema, small, trainer, nil, nil); err == nil {
		t.Error("belief/space size mismatch should error")
	}
}

func TestReadRejectsBadInput(t *testing.T) {
	if _, err := Read(strings.NewReader("not json")); err == nil {
		t.Error("garbage should error")
	}
	if _, err := Read(strings.NewReader(`{"version": 99}`)); err == nil {
		t.Error("wrong version should error")
	}
	for _, v := range []int{1, 3} {
		if _, err := Read(bytes.NewReader(framed(fmt.Sprintf(`{"version": %d}`, v)))); err == nil {
			t.Errorf("version %d under a valid footer should error", v)
		}
	}
}

func TestRestoreRejectsCorruptSnapshots(t *testing.T) {
	// Invalid Beta parameters.
	snap := &Snapshot{
		Version: Version,
		Space:   []FDJSON{{LHS: []int{0}, RHS: 1}},
		Trainer: []BetaJSON{{Alpha: -1, Beta: 2}},
	}
	space, err := snap.RestoreSpace()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := snap.RestoreTrainer(space); err == nil {
		t.Error("negative alpha should error")
	}
	// Parameter-count mismatch.
	snap.Trainer = []BetaJSON{{Alpha: 1, Beta: 1}, {Alpha: 1, Beta: 1}}
	if _, err := snap.RestoreTrainer(space); err == nil {
		t.Error("size mismatch should error")
	}
	// Trivial FD.
	bad := &Snapshot{Version: Version, Space: []FDJSON{{LHS: []int{1}, RHS: 1}}}
	if _, err := bad.RestoreSpace(); err == nil {
		t.Error("trivial FD should error")
	}
	// Invalid pair in history.
	snap2 := &Snapshot{Version: Version, History: []InteractionJSON{
		{Labeled: []LabelingJSON{{Pair: [2]int{3, 3}}}},
	}}
	if _, err := snap2.RestoreHistory(); err == nil {
		t.Error("degenerate pair should error")
	}
}

func TestValidateSchemaMismatch(t *testing.T) {
	schema, space, _, _, _ := fixture(t)
	snap, err := NewSnapshot(schema, space, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	other := dataset.MustSchema("x", "y", "z")
	if err := snap.ValidateSchema(other); err == nil {
		t.Error("renamed attributes should fail validation")
	}
	short := dataset.MustSchema("a", "b")
	if err := snap.ValidateSchema(short); err == nil {
		t.Error("arity mismatch should fail validation")
	}
	// Snapshot without schema validates anything.
	bare := &Snapshot{Version: Version}
	if err := bare.ValidateSchema(other); err != nil {
		t.Errorf("schema-less snapshot should validate: %v", err)
	}
}
