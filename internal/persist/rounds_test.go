package persist

import (
	"bytes"
	"strings"
	"testing"

	"exptrain/internal/belief"
	"exptrain/internal/dataset"
	"exptrain/internal/fd"
	"exptrain/internal/metrics"
)

func TestSnapshotRoundsRoundTrip(t *testing.T) {
	schema, space, _, learner, _ := fixture(t)
	rounds := []Round{
		{
			Labeled: []belief.Labeling{
				{Pair: dataset.NewPair(0, 1), Marked: fd.NewAttrSet(1)},
				{Pair: dataset.NewPair(2, 5), Abstained: true},
			},
			MAE:       0.25,
			Payoff:    1.5,
			Detection: &metrics.PRF1{Precision: 0.75, Recall: 0.5, F1: 0.6},
		},
		{
			Labeled: []belief.Labeling{
				{Pair: dataset.NewPair(1, 3)},
			},
			Revisions: []belief.Labeling{
				{Pair: dataset.NewPair(0, 1)},
			},
			MAE:       0.125,
			Payoff:    0.875,
			Detection: &metrics.PRF1{Precision: 1, Recall: 0.5, F1: 2.0 / 3.0},
		},
	}
	snap, err := NewSnapshotRounds(schema, space, nil, learner, rounds)
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
	got, err := back.RestoreRounds()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(rounds) {
		t.Fatalf("restored %d rounds, want %d", len(got), len(rounds))
	}
	for i, r := range rounds {
		g := got[i]
		if g.MAE != r.MAE || g.Payoff != r.Payoff {
			t.Fatalf("round %d measurements: %v/%v, want %v/%v", i, g.MAE, g.Payoff, r.MAE, r.Payoff)
		}
		if *g.Detection != *r.Detection {
			t.Fatalf("round %d detection: %+v, want %+v", i, *g.Detection, *r.Detection)
		}
		if len(g.Labeled) != len(r.Labeled) || len(g.Revisions) != len(r.Revisions) {
			t.Fatalf("round %d shape: %d/%d labelings, want %d/%d",
				i, len(g.Labeled), len(g.Revisions), len(r.Labeled), len(r.Revisions))
		}
		for j := range r.Labeled {
			if g.Labeled[j] != r.Labeled[j] {
				t.Fatalf("round %d labeling %d: %+v, want %+v", i, j, g.Labeled[j], r.Labeled[j])
			}
		}
		for j := range r.Revisions {
			if g.Revisions[j] != r.Revisions[j] {
				t.Fatalf("round %d revision %d: %+v, want %+v", i, j, g.Revisions[j], r.Revisions[j])
			}
		}
	}
}

func TestHistoryOnlySnapshotOmitsRoundFields(t *testing.T) {
	// The measurement fields are omitempty: a snapshot built from plain
	// history must serialize without them.
	schema, space, trainer, learner, history := fixture(t)
	snap, err := NewSnapshot(schema, space, trainer, learner, history)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := snap.Write(&sb); err != nil {
		t.Fatal(err)
	}
	wire := sb.String()
	for _, field := range []string{"revisions", "mae", "payoff", "detection"} {
		if strings.Contains(wire, `"`+field+`"`) {
			t.Fatalf("history-only snapshot leaked %q onto the wire:\n%s", field, wire)
		}
	}
}

func TestRestoreRoundsFromLegacySnapshot(t *testing.T) {
	// A snapshot whose history carries no measurement fields (written
	// before they existed) parses into rounds with zero measurements and
	// no revisions.
	legacy := `{
	  "version": 2,
	  "schema": ["a", "b"],
	  "space": [{"lhs": [0], "rhs": 1}],
	  "history": [
	    {"labeled": [{"pair": [0, 1]}, {"pair": [2, 3], "abstained": true}]}
	  ]
	}`
	snap, err := Read(bytes.NewReader(framed(legacy)))
	if err != nil {
		t.Fatal(err)
	}
	rounds, err := snap.RestoreRounds()
	if err != nil {
		t.Fatal(err)
	}
	if len(rounds) != 1 {
		t.Fatalf("restored %d rounds", len(rounds))
	}
	r := rounds[0]
	if r.MAE != 0 || r.Payoff != 0 || r.Detection != nil || r.Revisions != nil {
		t.Fatalf("legacy round grew measurements: %+v", r)
	}
	if len(r.Labeled) != 2 {
		t.Fatalf("legacy round labelings = %d", len(r.Labeled))
	}
	// RestoreHistory and RestoreRounds agree on the labelings.
	hist, err := snap.RestoreHistory()
	if err != nil {
		t.Fatal(err)
	}
	for j := range hist[0] {
		if hist[0][j] != r.Labeled[j] {
			t.Fatalf("RestoreHistory/RestoreRounds diverge at %d: %+v vs %+v", j, hist[0][j], r.Labeled[j])
		}
	}
}
