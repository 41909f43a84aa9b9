package sampling

import (
	"sort"

	"exptrain/internal/dataset"
	"exptrain/internal/fd"
	"exptrain/internal/stats"
)

// This file keeps the per-FD pool construction NewPool replaced, as its
// oracle: every hypothesis rebuilds its partition's cumulative class
// counts and appends its sampled or enumerated pairs, duplicates
// included, to one candidate list; a stable two-pass counting sort of
// that list keeps each pair's first occurrence. TestPoolMatchesOracle,
// TestPairDecodeMatchesOracle and FuzzPoolBuild hold NewPool to it
// field by field; BenchmarkNewPool times the two.

// newPoolOracle is NewPool built per FD over a duplicate-laden
// candidate list.
func newPoolOracle(rel *dataset.Relation, space *fd.Space, cfg PoolConfig) *Pool {
	maxPer := cfg.MaxAgreeingPerFD
	if maxPer <= 0 {
		maxPer = 200
	}
	randomPairs := cfg.RandomPairs
	if randomPairs <= 0 {
		randomPairs = 2 * rel.NumRows()
	}
	rng := stats.NewRNG(cfg.Seed)
	cache := fd.NewPLICache(rel)

	var cand []dataset.Pair // with duplicates; newPoolFromOracle keeps first occurrences
	var cum []int           // per-class cumulative pair counts, reused across FDs
	for i := 0; i < space.Size(); i++ {
		part := cache.Partition(space.FD(i).LHS)
		total := part.AgreeingPairCount()
		if total > maxPer {
			cum = cum[:0]
			run := 0
			for _, rows := range part.Classes {
				m := len(rows)
				run += m * (m - 1) / 2
				cum = append(cum, run)
			}
			idx := rng.SampleWithoutReplacement(total, maxPer)
			for _, j := range idx {
				cand = append(cand, pairAtOracle(part, cum, j))
			}
		} else {
			for _, rows := range part.Classes {
				for a := 0; a < len(rows); a++ {
					for b := a + 1; b < len(rows); b++ {
						cand = append(cand, dataset.Pair{A: int(rows[a]), B: int(rows[b])})
					}
				}
			}
		}
	}
	n := rel.NumRows()
	if n >= 2 {
		for t := 0; t < randomPairs; t++ {
			a := rng.Intn(n)
			b := rng.Intn(n)
			if a == b {
				continue
			}
			cand = append(cand, dataset.NewPair(a, b))
		}
	}
	return newPoolFromOracle(rel, cand)
}

// newPoolFromOracle is NewPoolFrom by a stable two-pass counting sort of
// every candidate by (A, B), keeping the first occurrence of each run
// of equal pairs.
func newPoolFromOracle(rel *dataset.Relation, cand []dataset.Pair) *Pool {
	rows := 0
	for _, q := range cand {
		rows = max(rows, q.A+1, q.B+1)
	}
	order := make([]int32, len(cand))
	sorted := make([]int32, len(cand))
	for i := range sorted {
		sorted[i] = int32(i)
	}
	count := make([]int32, rows+1)
	radix := func(dst, src []int32, key func(dataset.Pair) int) {
		clear(count)
		for _, i := range src {
			count[key(cand[i])+1]++
		}
		for v := 1; v <= rows; v++ {
			count[v] += count[v-1]
		}
		for _, i := range src {
			k := key(cand[i])
			dst[count[k]] = i
			count[k]++
		}
	}
	radix(order, sorted, func(q dataset.Pair) int { return q.B })
	radix(sorted, order, func(q dataset.Pair) int { return q.A })

	keep := make([]bool, len(cand))
	unique := 0
	for j, i := range sorted {
		if j == 0 || cand[i] != cand[sorted[j-1]] {
			keep[i] = true
			unique++
		}
	}
	p := &Pool{
		rel:       rel,
		pairs:     make([]rowPair, 0, unique),
		shown:     make([]uint64, (unique+63)/64),
		remaining: unique,
	}
	for i, q := range cand {
		if keep[i] {
			p.pairs = append(p.pairs, rowPair{int32(q.A), int32(q.B)})
		}
	}
	for i := unique; i < 64*len(p.shown); i++ {
		p.shown[i/64] |= 1 << uint(i%64)
	}
	return p
}

// pairAtOracle decodes the t-th agreeing pair of p by binary searches:
// the class over cum, the cumulative pair counts per class, then the
// first member a over S(a) = a·(2m−a−1)/2, the number of pairs before
// first-index a in a class of m members.
func pairAtOracle(p *fd.Partition, cum []int, t int) dataset.Pair {
	ci := sort.SearchInts(cum, t+1)
	rows := p.Classes[ci]
	tp := t
	if ci > 0 {
		tp -= cum[ci-1]
	}
	m := len(rows)
	a := sort.Search(m-1, func(x int) bool { return (x+1)*(2*m-x-2)/2 > tp })
	b := a + 1 + tp - a*(2*m-a-1)/2
	return dataset.Pair{A: int(rows[a]), B: int(rows[b])}
}
