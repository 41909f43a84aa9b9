package sampling

import (
	"fmt"
	"runtime"
	"slices"
	"testing"

	"exptrain/internal/datagen"
	"exptrain/internal/dataset"
	"exptrain/internal/fd"
	"exptrain/internal/stats"
)

// samePool fails unless got and want hold the same pairs, shown bitset
// (the bits past the last position included) and remaining count, with
// the same lengths and no spare capacity on either side.
func samePool(t testing.TB, got, want *Pool, ctx string) {
	t.Helper()
	if !slices.Equal(got.pairs, want.pairs) {
		t.Fatalf("%s: pairs differ: %d pairs, oracle %d", ctx, len(got.pairs), len(want.pairs))
	}
	if !slices.Equal(got.shown, want.shown) {
		t.Fatalf("%s: shown differs", ctx)
	}
	if got.remaining != want.remaining {
		t.Fatalf("%s: %d remaining, oracle %d", ctx, got.remaining, want.remaining)
	}
	for _, c := range [][2]int{
		{cap(got.pairs), cap(want.pairs)}, {cap(got.shown), cap(want.shown)},
	} {
		if c[0] != c[1] {
			t.Fatalf("%s: capacities %d, oracle %d", ctx, c[0], c[1])
		}
	}
}

// TestPoolMatchesOracle: NewPool returns the per-FD construction's pool
// field by field on every paper dataset, from two rows to 240, over the
// paper's 38-FD space and the first 147 FDs of the service's MaxLHS-2
// enumeration (all of it on OMDB), with the
// default sizes, a small cap, a cap above every LHS's agreeing pairs
// (the enumerate-all branch only) and a single random pair.
func TestPoolMatchesOracle(t *testing.T) {
	for _, name := range datagen.AllNames() {
		gen, err := datagen.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, rows := range []int{2, 3, 24, 240} {
			ds := gen(rows, uint64(rows))
			n := ds.Rel.NumRows()
			for _, space := range []*fd.Space{ds.Space(3, 38), enumerated(ds.Rel, 2, 147)} {
				for _, cfg := range []PoolConfig{
					{},
					{MaxAgreeingPerFD: 10, RandomPairs: 40},
					{MaxAgreeingPerFD: n * n},
					{RandomPairs: 1},
				} {
					for _, seed := range []uint64{1, 12} {
						cfg.Seed = seed
						ctx := fmt.Sprintf("%s rows=%d fds=%d %+v", name, n, space.Size(), cfg)
						samePool(t, NewPool(ds.Rel, space, cfg), newPoolOracle(ds.Rel, space, cfg), ctx)
					}
				}
			}
		}
	}
}

// maxWidePoolBytes caps what NewPool allocates over a 100-row,
// 40-column relation and its 31,200-FD MaxLHS-2 space (~1.3 MiB
// measured). Its dedup set was once sized by the add calls, about 200
// per FD, instead of by the 4,950 pairs 100 rows hold: ~177 MiB.
const maxWidePoolBytes = 8 << 20

// TestWidePoolAllocation: a pool over a wide relation allocates for
// the pairs its rows hold, not for the agreeing pairs each of its
// many hypotheses could contribute.
func TestWidePoolAllocation(t *testing.T) {
	rel := randomRelation(stats.NewRNG(40), 100, 40)
	space := enumerated(rel, 2, 0)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	p := NewPool(rel, space, PoolConfig{Seed: 1})
	runtime.ReadMemStats(&after)
	if p.Size() > 100*99/2 {
		t.Fatalf("pool holds %d pairs over 100 rows", p.Size())
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > maxWidePoolBytes {
		t.Fatalf("NewPool over %d FDs and 100 rows allocated %d bytes, ceiling %d", space.Size(), got, maxWidePoolBytes)
	} else {
		t.Logf("NewPool over %d FDs and 100 rows allocated %d bytes (ceiling %d) for %d pairs", space.Size(), got, maxWidePoolBytes, p.Size())
	}
}

// checkRanks decodes ranks of part through a rank table and fails
// unless every pair matches the binary-search oracle's.
func checkRanks(t testing.TB, part *fd.Partition, ranks func(total int, visit func(r int)), ctx string) {
	t.Helper()
	tab := rankTable{part: part, total: part.AgreeingPairCount()}
	tab.index()
	cum := make([]int, 0, len(part.Classes))
	run := 0
	for _, rows := range part.Classes {
		run += len(rows) * (len(rows) - 1) / 2
		cum = append(cum, run)
	}
	ranks(tab.total, func(r int) {
		if got, want := tab.pairAt(r), pairAtOracle(part, cum, r); got != want {
			t.Fatalf("%s: rank %d of %d decodes to %v, oracle %v", ctx, r, tab.total, got, want)
		}
	})
}

// members returns m ascending row indices, spaced so that a member's
// index within its class differs from its row.
func members(m, from int) []int32 {
	rows := make([]int32, m)
	for i := range rows {
		rows[i] = int32(from + 3*i)
	}
	return rows
}

func everyRank(total int, visit func(int)) {
	for r := 0; r < total; r++ {
		visit(r)
	}
}

// TestPairDecodeMatchesOracle: the rank table's bucketed class search
// and closed-form decode return the binary-search oracle's pair for
// every rank of classes of 2 to 300 members, for the ranks at each
// first-member boundary of classes of up to 2²⁰+1 members, and for
// every rank of a partition where one large class sits among thousands
// of two-row classes, so most buckets span many classes.
func TestPairDecodeMatchesOracle(t *testing.T) {
	rng := stats.NewRNG(3)
	var classes [][]int32
	for _, m := range rng.Perm(299) {
		classes = append(classes, members(m+2, 3*len(classes)))
	}
	checkRanks(t, &fd.Partition{Classes: classes}, everyRank, "classes of 2..300 members")

	for k := 2; k <= 20; k++ {
		for _, m := range []int{1<<k - 1, 1 << k, 1<<k + 1, 1<<k + rng.Intn(1<<k)} {
			boundaries := func(total int, visit func(int)) {
				for _, a := range []int{0, 1, 2, m / 3, m / 2, m - 3, m - 2} {
					if a < 0 || a > m-2 {
						continue
					}
					s := a * (2*m - a - 1) / 2 // pairs before first member a
					for _, r := range []int{s - 1, s, s + 1, s + m - a - 2} {
						if r >= 0 && r < total {
							visit(r)
						}
					}
				}
				visit(total - 1)
				for i := 0; i < 50; i++ {
					visit(rng.Intn(total))
				}
			}
			checkRanks(t, &fd.Partition{Classes: [][]int32{members(m, 7)}}, boundaries, fmt.Sprintf("one class of %d", m))
		}
	}

	for _, at := range []int{0, 1500, 3000} {
		var classes [][]int32
		for len(classes) < 3001 {
			if len(classes) == at {
				classes = append(classes, members(1000, 1))
			} else {
				classes = append(classes, members(2, 2))
			}
		}
		checkRanks(t, &fd.Partition{Classes: classes}, everyRank, fmt.Sprintf("large class at %d of 3001", at))
	}
}

// TestIsqrt: isqrt is exact around every square up to (2³¹−1)², where a
// float64 square root alone can round either way.
func TestIsqrt(t *testing.T) {
	rng := stats.NewRNG(5)
	check := func(s int) {
		for _, c := range [][2]int{{-1, s - 1}, {0, s}, {1, s}, {2 * s, s}, {2*s + 1, s + 1}} {
			if x := s*s + c[0]; isqrt(x) != c[1] {
				t.Fatalf("isqrt(%d) = %d, want %d", x, isqrt(x), c[1])
			}
		}
	}
	if isqrt(0) != 0 {
		t.Fatalf("isqrt(0) = %d", isqrt(0))
	}
	for s := 1; s < 5000; s++ {
		check(s)
	}
	for i := 0; i < 100000; i++ {
		check(1 + rng.Intn(1<<31-2))
	}
	for _, s := range []int{1<<26 - 1, 1 << 26, 1<<26 + 1, 94906265, 94906266, 1<<31 - 1} {
		check(s)
	}
}

// TestNewPoolFromMatchesOracle: on random candidate lists full of
// duplicates, including reversed pairs, NewPoolFrom keeps the first
// occurrences the counting-sort oracle keeps.
func TestNewPoolFromMatchesOracle(t *testing.T) {
	rng := stats.NewRNG(8)
	for trial := 0; trial < 300; trial++ {
		n := 2 + rng.Intn(40)
		rel := randomRelation(rng, n, 2)
		cand := make([]dataset.Pair, rng.Intn(600))
		for i := range cand {
			a, b := rng.Intn(n), rng.Intn(n-1)
			if b >= a {
				b++
			}
			cand[i] = dataset.Pair{A: a, B: b}
			if trial%2 == 0 {
				cand[i] = dataset.NewPair(a, b)
			}
		}
		samePool(t, NewPoolFrom(rel, cand), newPoolFromOracle(rel, cand), fmt.Sprintf("trial %d (%d candidates over %d rows)", trial, len(cand), n))
	}
}

// FuzzPoolBuild: NewPool matches the per-FD oracle field by field on a
// fuzzer-chosen random relation, hypothesis space and pool
// configuration.
func FuzzPoolBuild(f *testing.F) {
	f.Add(uint8(12), uint8(3), uint8(2), uint8(5), uint8(7), uint64(1))
	f.Add(uint8(2), uint8(2), uint8(1), uint8(0), uint8(0), uint64(9))
	f.Add(uint8(60), uint8(5), uint8(2), uint8(1), uint8(1), uint64(3))
	f.Add(uint8(33), uint8(4), uint8(3), uint8(200), uint8(0), uint64(4))
	f.Fuzz(func(t *testing.T, rows, arity, maxLHS, maxPer, random uint8, seed uint64) {
		rng := stats.NewRNG(seed)
		rel := randomRelation(rng, int(rows%80), 2+int(arity%4))
		space := enumerated(rel, 1+int(maxLHS%3), int(seed%50))
		cfg := PoolConfig{MaxAgreeingPerFD: int(maxPer), RandomPairs: int(random), Seed: seed}
		samePool(t, NewPool(rel, space, cfg), newPoolOracle(rel, space, cfg), fmt.Sprintf("rows=%d fds=%d %+v", rel.NumRows(), space.Size(), cfg))
	})
}

// BenchmarkNewPool times one pool construction over OMDB-240 with the
// default sizes, over the paper's 38-FD space and the service's 147-FD
// one, through the per-FD oracle (oracle) and NewPool (fast). Each fast
// case also reports x-vs-oracle: the same run's oracle ns/op for its
// space divided by its own.
func BenchmarkNewPool(b *testing.B) {
	ds := datagen.OMDB(240, 1)
	spaces := []*fd.Space{ds.Space(3, 38), enumerated(ds.Rel, 2, 0)}
	oracleNs := map[int]float64{}
	for _, path := range []string{"oracle", "fast"} {
		b.Run(path, func(b *testing.B) {
			for _, space := range spaces {
				b.Run(fmt.Sprintf("fds=%d", space.Size()), func(b *testing.B) {
					cfg := PoolConfig{Seed: 1}
					for i := 0; i < b.N; i++ {
						if path == "oracle" {
							benchPool = newPoolOracle(ds.Rel, space, cfg)
						} else {
							benchPool = NewPool(ds.Rel, space, cfg)
						}
					}
					ns := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
					if path == "oracle" {
						oracleNs[space.Size()] = ns
					} else if ref := oracleNs[space.Size()]; ref > 0 {
						b.ReportMetric(ref/ns, "x-vs-oracle")
					}
				})
			}
		})
	}
}

// benchPool keeps BenchmarkNewPool's result live.
var benchPool *Pool
