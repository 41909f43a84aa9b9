package fd

import (
	"testing"
	"testing/quick"

	"exptrain/internal/dataset"
	"exptrain/internal/stats"
)

func TestPartitionOnTable1(t *testing.T) {
	rel := table1()
	team := rel.Schema().MustIndex("Team")
	p := PartitionOn(rel, NewAttrSet(team))
	// Lakers {0,1}, Bulls {2,3}; Clippers {4} is stripped.
	if len(p.Classes) != 2 {
		t.Fatalf("classes = %v, want 2 classes", p.Classes)
	}
	if p.AgreeingPairCount() != 2 {
		t.Fatalf("agreeing pairs = %d, want 2", p.AgreeingPairCount())
	}
}

func TestPartitionRefineMatchesDirect(t *testing.T) {
	rng := stats.NewRNG(99)
	f := func(seedRaw uint16) bool {
		n := 4 + int(seedRaw%40)
		rel := dataset.New(dataset.MustSchema("a", "b", "c"))
		vocab := []string{"p", "q", "r"}
		for i := 0; i < n; i++ {
			rel.MustAppend(dataset.Tuple{
				vocab[rng.Intn(2)], vocab[rng.Intn(3)], vocab[rng.Intn(3)],
			})
		}
		direct := PartitionOn(rel, NewAttrSet(0, 1))
		refined := PartitionOn(rel, NewAttrSet(0)).refine(rel, 1, &pliScratch{})
		if len(direct.Classes) != len(refined.Classes) {
			return false
		}
		// Compare class contents as sets of sorted row lists.
		asKey := func(p *Partition) map[string]bool {
			m := map[string]bool{}
			for _, c := range p.Classes {
				key := ""
				for _, r := range c {
					key += string(rune(r)) + ","
				}
				m[key] = true
			}
			return m
		}
		dk, rk := asKey(direct), asKey(refined)
		for k := range dk {
			if !rk[k] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestPartitionStatsForMatchesComputeStats(t *testing.T) {
	rng := stats.NewRNG(123)
	for trial := 0; trial < 50; trial++ {
		n := 5 + rng.Intn(40)
		rel := dataset.New(dataset.MustSchema("a", "b", "c", "d"))
		vocab := []string{"1", "2", "3", "4"}
		for i := 0; i < n; i++ {
			rel.MustAppend(dataset.Tuple{
				vocab[rng.Intn(2)], vocab[rng.Intn(3)], vocab[rng.Intn(4)], vocab[rng.Intn(2)],
			})
		}
		lhs := NewAttrSet(0, 1)
		f := MustNew(lhs, 3)
		want := ComputeStats(f, rel)
		got := PartitionOn(rel, lhs).StatsFor(rel, 3)
		if got != want {
			t.Fatalf("trial %d: partition stats %+v != direct %+v", trial, got, want)
		}
	}
}

func TestPartitionStrippedInvariant(t *testing.T) {
	rel := table1()
	player := rel.Schema().MustIndex("Player")
	// Player is a key: all classes singleton, so stripped partition empty.
	p := PartitionOn(rel, NewAttrSet(player))
	if len(p.Classes) != 0 {
		t.Fatalf("key partition should be empty, got %v", p.Classes)
	}
	if p.AgreeingPairCount() != 0 {
		t.Fatal("key partition should have no agreeing pairs")
	}
}
