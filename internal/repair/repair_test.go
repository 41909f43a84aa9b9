package repair

import (
	"testing"

	"exptrain/internal/dataset"
	"exptrain/internal/errgen"
	"exptrain/internal/fd"
)

// fixture: b = f(a) with one corrupted cell.
func fixture() (*dataset.Relation, fd.FD, dataset.Tuple) {
	rel := dataset.New(dataset.MustSchema("a", "b", "c"))
	for i := 0; i < 12; i++ {
		k := string(rune('0' + i%3))
		rel.MustAppend(dataset.Tuple{k, "f" + k, string(rune('x' + i%2))})
	}
	orig := rel.Row(4).Clone()
	rel.SetValue(4, 1, "broken")
	return rel, fd.MustNew(fd.NewAttrSet(0), 1), orig
}

func TestSuggestFindsCorruptedCell(t *testing.T) {
	rel, target, orig := fixture()
	sugg, err := Suggest(rel, []BelievedFD{{FD: target, Confidence: 0.9}}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(sugg) != 1 {
		t.Fatalf("got %d suggestions, want 1: %+v", len(sugg), sugg)
	}
	s := sugg[0]
	if s.Row != 4 || s.Attr != 1 {
		t.Fatalf("suggestion targets (%d,%d), want (4,1)", s.Row, s.Attr)
	}
	if s.Old != "broken" || s.New != orig[1] {
		t.Fatalf("suggestion %q→%q, want broken→%q", s.Old, s.New, orig[1])
	}
	if s.Confidence <= 0 || s.Confidence > 0.9 {
		t.Fatalf("confidence %v out of range", s.Confidence)
	}
	if s.Source != target {
		t.Fatalf("source = %v", s.Source)
	}
}

func TestSuggestRespectsMinConfidence(t *testing.T) {
	rel, target, _ := fixture()
	// FD confidence 0.4 × margin < MinConfidence 0.5 → nothing.
	sugg, err := Suggest(rel, []BelievedFD{{FD: target, Confidence: 0.4}}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(sugg) != 0 {
		t.Fatalf("low-confidence FD produced suggestions: %+v", sugg)
	}
}

func TestSuggestSkipsBalancedSplits(t *testing.T) {
	// A 50/50 split is structure, not an error.
	rel := dataset.New(dataset.MustSchema("a", "b"))
	for i := 0; i < 8; i++ {
		v := "x"
		if i%2 == 0 {
			v = "y"
		}
		rel.MustAppend(dataset.Tuple{"same", v})
	}
	sugg, err := Suggest(rel, []BelievedFD{{FD: fd.MustNew(fd.NewAttrSet(0), 1), Confidence: 0.95}}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(sugg) != 0 {
		t.Fatalf("balanced split repaired: %+v", sugg)
	}
}

func TestSuggestConflictResolution(t *testing.T) {
	// Two FDs target the same cell with different replacement values;
	// the higher-confidence one must win.
	rel := dataset.New(dataset.MustSchema("a", "b", "c"))
	// Group by a: rows 0-4 have a=k, b mostly "good" (one "bad").
	// Group by c: all rows share c, b mostly "alt".
	rel.MustAppend(dataset.Tuple{"k", "bad", "z"})
	for i := 0; i < 4; i++ {
		rel.MustAppend(dataset.Tuple{"k", "good", "z"})
	}
	for i := 0; i < 8; i++ {
		rel.MustAppend(dataset.Tuple{"m", "alt", "z"})
	}
	aFD := fd.MustNew(fd.NewAttrSet(0), 1) // suggests good
	cFD := fd.MustNew(fd.NewAttrSet(2), 1) // suggests alt (plurality of all 13)
	sugg, err := Suggest(rel, []BelievedFD{
		{FD: aFD, Confidence: 0.95},
		{FD: cFD, Confidence: 0.90},
	}, Config{MinConfidence: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range sugg {
		if s.Row == 0 && s.Attr == 1 {
			if s.New != "good" {
				t.Fatalf("conflict resolved to %q via %v, want good via a→b", s.New, s.Source)
			}
			return
		}
	}
	t.Fatalf("no suggestion for the corrupted cell: %+v", sugg)
}

func TestSuggestValidatesConfidence(t *testing.T) {
	rel, target, _ := fixture()
	for _, c := range []float64{0, -0.2, 1.5} {
		if _, err := Suggest(rel, []BelievedFD{{FD: target, Confidence: c}}, Config{}); err == nil {
			t.Errorf("confidence %v should error", c)
		}
	}
}

func TestApplyRepairs(t *testing.T) {
	rel, target, orig := fixture()
	sugg, err := Suggest(rel, []BelievedFD{{FD: target, Confidence: 0.9}}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	repaired, err := Apply(rel, sugg)
	if err != nil {
		t.Fatal(err)
	}
	if got := repaired.Value(4, 1); got != orig[1] {
		t.Fatalf("repaired value %q, want %q", got, orig[1])
	}
	// Original untouched.
	if rel.Value(4, 1) != "broken" {
		t.Fatal("Apply mutated the input relation")
	}
	// The repaired relation satisfies the FD exactly.
	if fd.G1(target, repaired) != 0 {
		t.Fatal("repair did not restore the FD")
	}
}

func TestApplyRejectsStaleSuggestions(t *testing.T) {
	rel, _, _ := fixture()
	stale := []Suggestion{{Row: 4, Attr: 1, Old: "not-current", New: "x"}}
	if _, err := Apply(rel, stale); err == nil {
		t.Fatal("stale suggestion should error")
	}
	oob := []Suggestion{{Row: 999, Attr: 1, Old: "broken", New: "x"}}
	if _, err := Apply(rel, oob); err == nil {
		t.Fatal("out-of-bounds suggestion should error")
	}
}

func TestScore(t *testing.T) {
	sugg := []Suggestion{
		{Row: 1, Attr: 2, Old: "junk", New: "right"},
		{Row: 3, Attr: 2, Old: "junk", New: "wrong"},
		{Row: 5, Attr: 1, Old: "v", New: "w"}, // false positive
	}
	truth := []TruthEntry{
		{Row: 1, Attr: 2, Original: "right"},
		{Row: 3, Attr: 2, Original: "other"},
		{Row: 7, Attr: 0, Original: "missed"},
	}
	p, r, acc := Score(sugg, truth)
	if p != 2.0/3.0 {
		t.Errorf("precision = %v", p)
	}
	if r != 2.0/3.0 {
		t.Errorf("recall = %v", r)
	}
	if acc != 0.5 {
		t.Errorf("value accuracy = %v", acc)
	}
	if p, r, acc := Score(nil, truth); p != 0 || r != 0 || acc != 0 {
		t.Error("empty suggestions should score zero")
	}
}

func TestEndToEndRepairOnInjectedErrors(t *testing.T) {
	// Full pipeline: clean relation → inject → suggest with the true FDs
	// → high precision and value accuracy.
	clean := dataset.New(dataset.MustSchema("a", "b", "c", "d"))
	for i := 0; i < 120; i++ {
		a := string(rune('0' + i%8))
		c := string(rune('A' + i%5))
		clean.MustAppend(dataset.Tuple{a, "fb" + a, c, "gd" + c})
	}
	fds := []fd.FD{
		fd.MustNew(fd.NewAttrSet(0), 1),
		fd.MustNew(fd.NewAttrSet(2), 3),
	}
	injected, err := errgen.InjectDegree(clean, errgen.DegreeConfig{
		FDs: fds, Degree: 0.1, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	var believed []BelievedFD
	for _, f := range fds {
		believed = append(believed, BelievedFD{FD: f, Confidence: 0.95})
	}
	sugg, err := Suggest(injected.Rel, believed, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(sugg) == 0 {
		t.Fatal("no repairs suggested")
	}
	truth := make([]TruthEntry, 0, len(injected.Log))
	for _, ch := range injected.Log {
		truth = append(truth, TruthEntry{Row: ch.Row, Attr: ch.Attr, Original: ch.Old})
	}
	p, r, acc := Score(sugg, truth)
	if p < 0.9 {
		t.Errorf("repair precision %v too low", p)
	}
	if r < 0.8 {
		t.Errorf("repair recall %v too low", r)
	}
	if acc < 0.9 {
		t.Errorf("value accuracy %v too low", acc)
	}
	// Applying the repairs restores the FDs (near-)exactly.
	repaired, err := Apply(injected.Rel, sugg)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range fds {
		if g := fd.G1(f, repaired); g > fd.G1(f, injected.Rel)/4 {
			t.Errorf("FD %v barely improved: g1 %v after repair", f, g)
		}
	}
}

// TestCausalCellResolution: when a corrupted cell is the LHS of one
// believed FD and the RHS of another, the repair must target that cell
// — not the downstream attribute its corruption knocked out of line.
// (A corrupted `state` breaks zip→state as an RHS and state→exemp as an
// LHS; fixing `exemp` instead would leave the row wrong twice.)
func TestCausalCellResolution(t *testing.T) {
	rel := dataset.New(dataset.MustSchema("zip", "state", "exemp"))
	type geo struct{ zip, state string }
	geos := []geo{{"10001", "NY"}, {"94110", "CA"}, {"60601", "IL"}}
	exempOf := map[string]string{"NY": "2000", "CA": "3000", "IL": "2500"}
	for i := 0; i < 60; i++ {
		g := geos[i%3]
		rel.MustAppend(dataset.Tuple{g.zip, g.state, exempOf[g.state]})
	}
	// Corrupt one state cell: row 0 becomes NY-zip with CA state and the
	// (now inconsistent) NY exemption.
	rel.SetValue(0, 1, "CA")

	zipState := fd.MustNew(fd.NewAttrSet(0), 1)
	stateExemp := fd.MustNew(fd.NewAttrSet(1), 2)
	sugg, err := Suggest(rel, []BelievedFD{
		{FD: zipState, Confidence: 0.95},
		{FD: stateExemp, Confidence: 0.95},
	}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(sugg) != 1 {
		t.Fatalf("want exactly one repair, got %+v", sugg)
	}
	s := sugg[0]
	if s.Attr != 1 || s.Row != 0 || s.New != "NY" {
		t.Fatalf("repair targeted (%d,%d)→%q, want the state cell back to NY", s.Row, s.Attr, s.New)
	}
	// Applying it restores both FDs exactly.
	repaired, err := Apply(rel, sugg)
	if err != nil {
		t.Fatal(err)
	}
	if fd.G1(zipState, repaired) != 0 || fd.G1(stateExemp, repaired) != 0 {
		t.Fatal("causal repair did not restore both FDs")
	}
}

// Score evaluates suggestions against injection ground truth: a
// suggestion is correct when it targets a corrupted cell AND restores
// its original value. Returns (cell precision, cell recall, value
// accuracy among correctly-targeted cells).
func Score(suggestions []Suggestion, truth []TruthEntry) (precision, recall, valueAccuracy float64) {
	want := make(map[fd.Cell]string, len(truth))
	for _, t := range truth {
		want[fd.Cell{Row: t.Row, Attr: t.Attr}] = t.Original
	}
	if len(suggestions) == 0 {
		return 0, 0, 0
	}
	targeted, restored := 0, 0
	for _, s := range suggestions {
		orig, ok := want[fd.Cell{Row: s.Row, Attr: s.Attr}]
		if !ok {
			continue
		}
		targeted++
		if s.New == orig {
			restored++
		}
	}
	precision = float64(targeted) / float64(len(suggestions))
	if len(want) > 0 {
		recall = float64(targeted) / float64(len(want))
	}
	if targeted > 0 {
		valueAccuracy = float64(restored) / float64(targeted)
	}
	return precision, recall, valueAccuracy
}

// TruthEntry is one corrupted cell with its original value (the error
// generator's log provides these).
type TruthEntry struct {
	Row, Attr int
	Original  string
}
