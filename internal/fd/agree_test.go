package fd

import (
	"testing"

	"exptrain/internal/dataset"
	"exptrain/internal/stats"
)

// TestStatusOnMatchesStatus: classifying a pair by its agree set gives
// Status's verdict for every pair and FD, and AppendViolated sets
// exactly the Violating hypotheses of a space spanning two mask words.
func TestStatusOnMatchesStatus(t *testing.T) {
	rng := stats.NewRNG(5)
	rel := randomRelation(rng, 24, 6)
	fds := MustEnumerate(SpaceConfig{Arity: 6, MaxLHS: 2})
	space := MustNewSpace(fds)
	if space.MaskWords() != 2 {
		t.Fatalf("%d-FD space spans %d mask words, want 2", space.Size(), space.MaskWords())
	}
	for _, p := range dataset.AllPairs(rel.NumRows()) {
		agree := AgreeSet(rel, p)
		mask := space.AppendViolated([]uint64{7}, agree)[1:]
		for i, f := range fds {
			want := Status(f, rel, p)
			if got := StatusOn(f, agree); got != want {
				t.Fatalf("pair %v %v: StatusOn = %v, Status = %v", p, f, got, want)
			}
			if bit := mask[i/64]&(1<<uint(i%64)) != 0; bit != (want == Violating) {
				t.Fatalf("pair %v %v: mask bit %v, Status %v", p, f, bit, want)
			}
		}
		for i := len(fds); i < 128; i++ {
			if mask[i/64]&(1<<uint(i%64)) != 0 {
				t.Fatalf("pair %v: mask bit %d set past the space", p, i)
			}
		}
	}
}
