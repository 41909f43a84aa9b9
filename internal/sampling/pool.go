package sampling

import (
	"sort"

	"exptrain/internal/dataset"
	"exptrain/internal/fd"
	"exptrain/internal/stats"
)

// Pool supplies candidate pairs for the samplers. FD evidence only flows
// through LHS-agreeing pairs, so the pool is built from the agreeing
// pairs of every hypothesis (deduplicated) plus uniformly random pairs
// for coverage; pairs already presented are excluded so every
// interaction shows fresh examples (Section 2 assumes the learner
// provides a fresh example in each interaction).
//
// The pool owns its candidates densely: every structure is a slice
// indexed by pool position, so nothing keyed by pair grows with the
// pool.
type Pool struct {
	rel *dataset.Relation
	// pairs holds every candidate once, in pool order. It never changes
	// after construction.
	pairs []dataset.Pair
	// byPair lists the positions sorted by pair, so MarkShown and
	// Unshow find a pair by binary search.
	byPair []int32
	// unshown holds the positions not yet presented, ascending (pool
	// order). MarkShown compacts it in place and Unshow rebuilds it
	// from the shown bitset, so the candidate view is O(1) and steady-state
	// allocation-free.
	unshown []int32
	// shown is a bitset over positions.
	shown []uint64
	// classes groups the positions by agree set for scoring; built on
	// the first scoring call.
	classes classTable
}

// PoolConfig sizes the candidate pool.
type PoolConfig struct {
	// MaxAgreeingPerFD caps the agreeing pairs contributed per
	// hypothesis (0 means 200). Hot hypotheses on large relations would
	// otherwise dominate memory.
	MaxAgreeingPerFD int
	// RandomPairs is the number of uniformly random extra pairs (0 means
	// twice the relation size).
	RandomPairs int
	// Seed drives the pool's sub-sampling RNG.
	Seed uint64
}

// NewPool builds the candidate pool for the hypothesis space over rel.
// Hypotheses sharing an LHS (every RHS choice over the same attribute
// set) reuse one stripped partition through a PLI cache, so pool
// construction partitions once per distinct LHS rather than once per
// FD. Agreeing pairs are never materialized: a hypothesis with more
// pairs than the cap has its sample indices decoded arithmetically off
// the partition's class sizes, so construction cost is O(classes +
// cap) per FD instead of O(n²/dictionary) — the difference between
// rows=10⁵ finishing and thrashing.
func NewPool(rel *dataset.Relation, space *fd.Space, cfg PoolConfig) *Pool {
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

	var cand []dataset.Pair // with duplicates; NewPoolFrom keeps first occurrences
	var cum []int           // per-class cumulative pair counts, reused across FDs
	for i := 0; i < space.Size(); i++ {
		part := cache.Partition(space.FD(i).LHS)
		total := part.AgreeingPairCount()
		if total > maxPer {
			// Same RNG draw the materialized version made over the pair
			// list, decoded against the partition's deterministic
			// enumeration order (classes by smallest member, ascending
			// (a,b) within a class) so the pool contents and order are
			// bit-identical to building the full list first.
			cum = cum[:0]
			run := 0
			for _, rows := range part.Classes {
				m := len(rows)
				run += m * (m - 1) / 2
				cum = append(cum, run)
			}
			idx := rng.SampleWithoutReplacement(total, maxPer)
			for _, j := range idx {
				cand = append(cand, pairAt(part, cum, j))
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
	return NewPoolFrom(rel, cand)
}

// NewPoolFrom builds a pool over exactly the given candidates: each
// distinct pair once, in order of first occurrence. Pairs must name
// rows of rel. Deduplication is a stable two-pass counting sort by
// (A, B) — O(len(cand) + rows), no hash map — whose sorted order is
// kept as the pool's pair index.
func NewPoolFrom(rel *dataset.Relation, cand []dataset.Pair) *Pool {
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

	// sorted now runs through the candidates by (A, B), equal pairs
	// adjacent with their first occurrence first: keep that one.
	keep := make([]bool, len(cand))
	unique := 0
	for j, i := range sorted {
		if j == 0 || cand[i] != cand[sorted[j-1]] {
			keep[i] = true
			unique++
		}
	}
	p := &Pool{
		rel:     rel,
		pairs:   make([]dataset.Pair, 0, unique),
		byPair:  make([]int32, 0, unique),
		unshown: make([]int32, unique),
		shown:   make([]uint64, (unique+63)/64),
	}
	pos := order // reused: pos[i] is kept candidate i's pool position
	for i, q := range cand {
		if keep[i] {
			pos[i] = int32(len(p.pairs))
			p.pairs = append(p.pairs, q)
		}
	}
	for _, i := range sorted {
		if keep[i] {
			p.byPair = append(p.byPair, pos[i])
		}
	}
	for i := range p.unshown {
		p.unshown[i] = int32(i)
	}
	return p
}

// pairAt decodes the t-th agreeing pair (0-based, partition enumeration
// order) without expanding any pair list. cum holds the cumulative pair
// counts per class. Within a class of m ascending members, the pairs
// with first index a precede those with a+1, so S(a) = a·(2m−a−1)/2
// pairs come before first-index a; the largest a with S(a) ≤ t′ and
// b = a+1+(t′−S(a)) recover the pair.
func pairAt(p *fd.Partition, cum []int, t int) dataset.Pair {
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

// position returns pair q's pool position, or -1 when q is not a
// candidate.
func (p *Pool) position(q dataset.Pair) int32 {
	lo, hi := 0, len(p.byPair)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		r := p.pairs[p.byPair[mid]]
		if r.A < q.A || (r.A == q.A && r.B < q.B) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(p.byPair) && p.pairs[p.byPair[lo]] == q {
		return p.byPair[lo]
	}
	return -1
}

func (p *Pool) isShown(pos int32) bool { return p.shown[pos/64]&(1<<uint(pos%64)) != 0 }

// Candidates returns the view of the unshown pairs the samplers select
// from. It is invalidated by the next MarkShown or Unshow.
func (p *Pool) Candidates() Candidates { return Candidates{p: p} }

// Remaining returns a copy of the candidate pairs not yet marked shown,
// in pool order.
func (p *Pool) Remaining() []dataset.Pair {
	out := make([]dataset.Pair, len(p.unshown))
	for i, pos := range p.unshown {
		out[i] = p.pairs[pos]
	}
	return out
}

// MarkShown records that the pairs were presented, removing them from
// the candidates. Pairs that are not candidates, or already shown, are
// ignored. The unshown positions are compacted in place, preserving
// order — order-preservation is what keeps seeded sampler runs
// bit-identical to the original filter-on-read implementation (a
// swap-remove would permute what the samplers see).
func (p *Pool) MarkShown(pairs []dataset.Pair) {
	fresh := 0
	for _, q := range pairs {
		if pos := p.position(q); pos >= 0 && !p.isShown(pos) {
			p.shown[pos/64] |= 1 << uint(pos%64)
			fresh++
		}
	}
	if fresh == 0 {
		return
	}
	kept := p.unshown[:0]
	for _, pos := range p.unshown {
		if !p.isShown(pos) {
			kept = append(kept, pos)
		}
	}
	p.unshown = kept
}

// Unshow reverses MarkShown for the given pairs: each shown candidate
// among them returns to its original place in pool order, so the
// samplers see exactly the candidates they saw before it was marked.
func (p *Pool) Unshow(pairs []dataset.Pair) {
	for _, q := range pairs {
		if pos := p.position(q); pos >= 0 {
			p.shown[pos/64] &^= 1 << uint(pos%64)
		}
	}
	p.unshown = p.unshown[:0]
	for pos := range p.pairs {
		if !p.isShown(int32(pos)) {
			p.unshown = append(p.unshown, int32(pos))
		}
	}
}

// RemainingCount returns how many fresh pairs the pool still holds —
// an O(1) counter for callers that only need the number.
func (p *Pool) RemainingCount() int { return len(p.unshown) }

// Size returns the total pool size (shown and unshown).
func (p *Pool) Size() int { return len(p.pairs) }

// ShownCount returns how many pairs have been presented.
func (p *Pool) ShownCount() int { return len(p.pairs) - len(p.unshown) }
