package fd

import (
	"math"
	"testing"
	"testing/quick"

	"exptrain/internal/dataset"
	"exptrain/internal/stats"
)

// TestG1PaperExample reproduces Example 1: g₁(Team→City) over Table 1 is
// 1/25 = 0.04 — tuples t1,t2 violate, t3,t4 satisfy.
func TestG1PaperExample(t *testing.T) {
	rel := table1()
	f := MustParse("Team->City", rel.Schema())
	if got := G1(f, rel); math.Abs(got-0.04) > 1e-12 {
		t.Fatalf("g1(Team->City) = %v, want 0.04", got)
	}
	st := ComputeStats(f, rel)
	if st.Violating != 1 {
		t.Fatalf("violating pairs = %d, want 1 (t1,t2)", st.Violating)
	}
	if st.Compliant != 1 {
		t.Fatalf("compliant pairs = %d, want 1 (t3,t4)", st.Compliant)
	}
	if st.Agreeing != 2 {
		t.Fatalf("agreeing pairs = %d, want 2", st.Agreeing)
	}
}

func TestStatusClassification(t *testing.T) {
	rel := table1()
	f := MustParse("Team->City", rel.Schema())
	// t1,t2 share Team=Lakers but differ on City: violating.
	if got := Status(f, rel, dataset.NewPair(0, 1)); got != Violating {
		t.Errorf("(t1,t2) = %v, want violating", got)
	}
	// t3,t4 share Team=Bulls and City=Chicago: compliant.
	if got := Status(f, rel, dataset.NewPair(2, 3)); got != Compliant {
		t.Errorf("(t3,t4) = %v, want compliant", got)
	}
	// t1,t5 differ on Team: neutral.
	if got := Status(f, rel, dataset.NewPair(0, 4)); got != Neutral {
		t.Errorf("(t1,t5) = %v, want neutral", got)
	}
}

func TestStatusStrings(t *testing.T) {
	if Neutral.String() != "neutral" || Compliant.String() != "compliant" || Violating.String() != "violating" {
		t.Error("PairStatus string rendering wrong")
	}
	if PairStatus(99).String() != "unknown" {
		t.Error("unknown status should render 'unknown'")
	}
}

func TestViolatingPairsMatchesStatus(t *testing.T) {
	rel := table1()
	for _, spec := range []string{"Team->City", "City->Team", "Role->Apps", "Apps->Role"} {
		f := MustParse(spec, rel.Schema())
		got := map[dataset.Pair]bool{}
		for _, p := range ViolatingPairs(f, rel) {
			got[p] = true
		}
		for _, p := range dataset.AllPairs(rel.NumRows()) {
			want := Status(f, rel, p) == Violating
			if got[p] != want {
				t.Errorf("%s pair %v: listed=%v statusViolating=%v", spec, p, got[p], want)
			}
		}
	}
}

func TestAgreeingPairsMatchesStatus(t *testing.T) {
	rel := table1()
	f := MustParse("Team->City", rel.Schema())
	got := map[dataset.Pair]bool{}
	for _, p := range AgreeingPairs(f, rel) {
		got[p] = true
	}
	for _, p := range dataset.AllPairs(rel.NumRows()) {
		want := Status(f, rel, p) != Neutral
		if got[p] != want {
			t.Errorf("pair %v: agreeing=%v want=%v", p, got[p], want)
		}
	}
}

func TestConfidence(t *testing.T) {
	rel := table1()
	f := MustParse("Team->City", rel.Schema())
	// 1 compliant of 2 agreeing pairs.
	if got := ComputeStats(f, rel).Confidence(); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("Confidence = %v, want 0.5", got)
	}
	// Player is a key: no agreeing pairs → vacuous confidence 1.
	key := MustParse("Player->Team", rel.Schema())
	if got := ComputeStats(key, rel).Confidence(); got != 1 {
		t.Fatalf("key FD confidence = %v, want 1", got)
	}
}

func TestStatsOnEmptyRelation(t *testing.T) {
	rel := dataset.New(dataset.MustSchema("a", "b"))
	f := MustNew(NewAttrSet(0), 1)
	st := ComputeStats(f, rel)
	if st.G1() != 0 || st.Confidence() != 1 {
		t.Fatalf("empty relation: g1=%v conf=%v", st.G1(), st.Confidence())
	}
}

// TestStatsAgainstBruteForce cross-checks the grouped computation against
// a quadratic scan on random relations.
func TestStatsAgainstBruteForce(t *testing.T) {
	rng := stats.NewRNG(5150)
	f := func(seedRaw uint16) bool {
		n := 3 + int(seedRaw%30)
		rel := dataset.New(dataset.MustSchema("a", "b", "c"))
		vocab := []string{"x", "y", "z"}
		for i := 0; i < n; i++ {
			rel.MustAppend(dataset.Tuple{
				vocab[rng.Intn(3)], vocab[rng.Intn(3)], vocab[rng.Intn(3)],
			})
		}
		fdv := MustNew(NewAttrSet(0, 1), 2)
		st := ComputeStats(fdv, rel)
		var agree, comp int
		for _, p := range dataset.AllPairs(n) {
			switch Status(fdv, rel, p) {
			case Compliant:
				agree++
				comp++
			case Violating:
				agree++
			}
		}
		return st.Agreeing == agree && st.Compliant == comp &&
			st.Violating == agree-comp && st.Rows == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestG1MonotoneUnderLHSExtension(t *testing.T) {
	// Adding attributes to the LHS can only reduce agreeing pairs, so the
	// violating count (and g1) cannot increase: XY→Z has g1 ≤ X→Z.
	rng := stats.NewRNG(8855)
	f := func(seedRaw uint16) bool {
		n := 5 + int(seedRaw%40)
		rel := dataset.New(dataset.MustSchema("a", "b", "c"))
		vocab := []string{"u", "v", "w", "x"}
		for i := 0; i < n; i++ {
			rel.MustAppend(dataset.Tuple{
				vocab[rng.Intn(2)], vocab[rng.Intn(4)], vocab[rng.Intn(3)],
			})
		}
		base := MustNew(NewAttrSet(0), 2)
		ext := MustNew(NewAttrSet(0, 1), 2)
		return G1(ext, rel) <= G1(base, rel)+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
