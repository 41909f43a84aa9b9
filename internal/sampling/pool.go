package sampling

import (
	"math"
	"math/bits"
	"slices"

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
// indexed by pool position or by candidate, so nothing keyed by pair
// grows with the pool. A candidate's index is its rank among the
// unshown positions in pool order: the count of clear bits of shown
// below its position.
type Pool struct {
	rel *dataset.Relation
	// pairs holds every candidate once, in pool order. It never changes
	// after construction.
	pairs []rowPair
	// byPair lists the positions sorted by pair, so MarkShown finds a
	// pair by binary search.
	byPair []int32
	// shown is a bitset over positions. The bits past the last position
	// are set, so the clear bits are exactly the candidates.
	shown []uint64
	// remaining counts the clear bits of shown.
	remaining int
	// classes groups the candidates by agree set for scoring; built on
	// the first scoring call.
	classes classTable
	// moved is MarkShown's scratch: the positions that leave the
	// candidates, turned into their candidate indices.
	moved []int32
}

// rowPair is a pair's two rows. Partitions hold rows as int32, so a
// pool position costs 8 bytes of pair instead of a dataset.Pair's 16.
type rowPair struct{ a, b int32 }

func (r rowPair) pair() dataset.Pair { return dataset.Pair{A: int(r.a), B: int(r.b)} }

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
// Work that depends only on an FD's LHS happens once per distinct LHS:
// hypotheses sharing one (every RHS choice over the same attribute set)
// share its stripped partition, through a PLI cache, and its rank
// table. Agreeing pairs are never materialized: a hypothesis with more
// pairs than the cap has its sample indices decoded arithmetically off
// the partition's class sizes, so construction cost is O(classes +
// cap) per LHS and O(cap) per FD instead of O(n²/dictionary) — the
// difference between rows=10⁵ finishing and thrashing. Candidates are
// deduplicated as they are decoded.
func NewPool(rel *dataset.Relation, space *fd.Space, cfg PoolConfig) *Pool {
	maxPer := cfg.MaxAgreeingPerFD
	if maxPer <= 0 {
		maxPer = 200
	}
	randomPairs := cfg.RandomPairs
	if randomPairs <= 0 {
		randomPairs = 2 * rel.NumRows()
	}

	// First pass, no draws: one rank table per distinct LHS, and a bound
	// on the candidates the second pass adds.
	cache := fd.NewPLICache(rel)
	tableOf := make(map[fd.AttrSet]*rankTable)
	fdTable := make([]*rankTable, space.Size())
	bound := randomPairs
	for i := range fdTable {
		x := space.FD(i).LHS
		tab := tableOf[x]
		if tab == nil {
			part := cache.Partition(x)
			tab = &rankTable{part: part, total: part.AgreeingPairCount()}
			tableOf[x] = tab
		}
		fdTable[i] = tab
		bound += min(tab.total, maxPer)
	}

	// Second pass: the draws, in FD order. A hypothesis over the cap
	// draws maxPer ranks into its partition's enumeration order
	// (classes by smallest member, ascending (a, b) within a class);
	// one under it contributes every pair in that order.
	rng := stats.NewRNG(cfg.Seed)
	cs := newCandidateSet(bound)
	var idx []int
	for _, tab := range fdTable {
		if tab.total > maxPer {
			if tab.cum == nil {
				tab.index()
			}
			idx = rng.SampleInto(idx, tab.total, maxPer)
			for _, r := range idx {
				cs.add(tab.pairAt(r))
			}
		} else {
			for _, rows := range tab.part.Classes {
				for a := 0; a < len(rows); a++ {
					for b := a + 1; b < len(rows); b++ {
						cs.add(dataset.Pair{A: int(rows[a]), B: int(rows[b])})
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
			cs.add(dataset.NewPair(a, b))
		}
	}
	return cs.pool(rel)
}

// NewPoolFrom builds a pool over exactly the given candidates: each
// distinct pair once, in order of first occurrence. Pairs must name
// rows of rel.
//
//etlint:ignore unreachable test constructor shared by the tests of sampling and agents
func NewPoolFrom(rel *dataset.Relation, cand []dataset.Pair) *Pool {
	cs := newCandidateSet(len(cand))
	for _, q := range cand {
		cs.add(q)
	}
	return cs.pool(rel)
}

// candidateSet collects candidates into a pool, keeping the first
// occurrence of each pair. Membership is an open-addressing hash set
// of at least twice the candidates the caller bounds, so a lookup is
// O(1) expected and no duplicate is ever stored.
type candidateSet struct {
	// set holds each added pair's key plus one, 0 marking an empty slot.
	set   []uint64
	shift uint
	// keys lists the distinct keys plus one in order of first
	// occurrence: the pool order.
	keys []uint64
}

// newCandidateSet returns a set for at most bound add calls. The hash
// table and the key list share one allocation.
func newCandidateSet(bound int) *candidateSet {
	b := bits.Len(uint(2*max(bound, 1) - 1))
	buf := make([]uint64, 1<<b+bound)
	return &candidateSet{set: buf[:1<<b], shift: uint(64 - b), keys: buf[1<<b : 1<<b]}
}

// add appends q to the pool order unless an earlier call added it.
func (cs *candidateSet) add(q dataset.Pair) {
	k := (uint64(q.A)<<32 | uint64(q.B)) + 1
	mask := uint64(len(cs.set) - 1)
	for h := k * 0x9e3779b97f4a7c15 >> cs.shift; ; h = (h + 1) & mask {
		switch cs.set[h] {
		case k:
			return
		case 0:
			cs.set[h] = k
			cs.keys = append(cs.keys, k)
			return
		}
	}
}

// pool returns the pool over the distinct pairs added, in pool order.
// byPair comes from a stable two-pass counting sort of the positions by
// (A, B): O(distinct pairs + rows), no comparison sort.
func (cs *candidateSet) pool(rel *dataset.Relation) *Pool {
	u := len(cs.keys)
	p := &Pool{
		rel:       rel,
		pairs:     make([]rowPair, u),
		byPair:    make([]int32, u),
		shown:     make([]uint64, (u+63)/64),
		remaining: u,
	}
	if u%64 != 0 {
		p.shown[u/64] = ^uint64(0) << uint(u%64)
	}
	rows := 0
	for i, k := range cs.keys {
		k--
		q := rowPair{a: int32(k >> 32), b: int32(uint32(k))}
		p.pairs[i] = q
		rows = max(rows, int(q.a)+1, int(q.b)+1)
	}
	count := make([]int32, rows+1)
	prefix := func() {
		for v := 1; v <= rows; v++ {
			count[v] += count[v-1]
		}
	}
	order := make([]int32, u) // the positions by B
	for _, q := range p.pairs {
		count[q.b+1]++
	}
	prefix()
	for i, q := range p.pairs {
		order[count[q.b]] = int32(i)
		count[q.b]++
	}
	clear(count)
	for _, q := range p.pairs {
		count[q.a+1]++
	}
	prefix()
	for _, i := range order {
		a := p.pairs[i].a
		p.byPair[count[a]] = i
		count[a]++
	}
	return p
}

// rankTable decodes the agreeing pairs of one LHS partition by rank,
// in the partition's enumeration order, without expanding any pair
// list. index builds cum and first before the first decode.
type rankTable struct {
	part  *fd.Partition
	total int
	// cum[c] counts the pairs of classes 0..c.
	cum []int
	// first[j] is the class holding rank j<<shift, plus one last entry
	// naming the last class: rank r's class lies in
	// [first[r>>shift], first[r>>shift+1]].
	first []int32
	shift uint
}

// index builds cum and first. A bucket spans about total/(2·classes)
// ranks, rounded down to a power of two, so there are about two buckets
// per class and most buckets overlap one or two classes.
func (t *rankTable) index() {
	classes := t.part.Classes
	t.cum = make([]int, len(classes))
	run := 0
	for c, rows := range classes {
		m := len(rows)
		run += m * (m - 1) / 2
		t.cum[c] = run
	}
	t.shift = uint(bits.Len(uint(max(t.total/(2*len(classes)), 1))) - 1)
	buckets := (t.total-1)>>t.shift + 1
	t.first = make([]int32, buckets+1)
	c := 0
	for j := 0; j < buckets; j++ {
		for t.cum[c] <= j<<t.shift {
			c++
		}
		t.first[j] = int32(c)
	}
	t.first[buckets] = int32(len(classes) - 1)
}

// pairAt returns the agreeing pair of rank r: its class by binary
// search within r's bucket, O(log classes) at worst, then its members
// in closed form.
func (t *rankTable) pairAt(r int) dataset.Pair {
	j := r >> t.shift
	lo, hi := int(t.first[j]), int(t.first[j+1])
	for lo < hi { // the first class whose cumulative count exceeds r
		mid := int(uint(lo+hi) >> 1)
		if t.cum[mid] > r {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	if lo > 0 {
		r -= t.cum[lo-1]
	}
	return classPair(t.part.Classes[lo], r)
}

// classPair returns the pair of rank r among a class's pairs (a, b),
// a < b, in ascending (a, b) order. Counted from the end, the pairs
// whose first member is one of the last u+1 number T(u) = u(u+1)/2, so
// with e pairs after rank r, r's first member is m−1−u for the least u
// with T(u) > e: one more than the greatest u with (2u+1)² ≤ 8e+1.
func classPair(rows []int32, r int) dataset.Pair {
	m := len(rows)
	e := m*(m-1)/2 - 1 - r
	u := (isqrt(8*e+1)-1)/2 + 1
	a := m - 1 - u
	b := a + 1 + r - (m*(m-1)-u*(u+1))/2
	return dataset.Pair{A: int(rows[a]), B: int(rows[b])}
}

// isqrt returns ⌊√x⌋ for x ≥ 0: the float estimate corrected by integer
// steps, so the result is exact whatever the rounding.
func isqrt(x int) int {
	s := int(math.Sqrt(float64(x)))
	for s*s > x {
		s--
	}
	for (s+1)*(s+1) <= x {
		s++
	}
	return s
}

// position returns pair q's pool position, or -1 when q is not a
// candidate. A row outside the int32 range names no candidate.
func (p *Pool) position(q dataset.Pair) int32 {
	a, b := int32(q.A), int32(q.B)
	if int(a) != q.A || int(b) != q.B {
		return -1
	}
	lo, hi := 0, len(p.byPair)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		r := p.pairs[p.byPair[mid]]
		if r.a < a || (r.a == a && r.b < b) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(p.byPair) && p.pairs[p.byPair[lo]] == (rowPair{a, b}) {
		return p.byPair[lo]
	}
	return -1
}

func (p *Pool) isShown(pos int32) bool { return p.shown[pos/64]&(1<<uint(pos%64)) != 0 }

// Candidates returns the view of the unshown pairs the samplers select
// from. It is invalidated by the next MarkShown.
func (p *Pool) Candidates() Candidates { return Candidates{p: p} }

// MarkShown records that the pairs were presented, removing them from
// the candidates. Pairs that are not candidates, or already shown, are
// ignored. The class table's candidate list is compacted in place,
// preserving order — order-preservation is what keeps seeded sampler
// runs bit-identical to the original filter-on-read implementation (a
// swap-remove would permute what the samplers see). Before the first
// scoring call there is no list, and only bits change.
func (p *Pool) MarkShown(pairs []dataset.Pair) {
	moved := p.moved[:0]
	for _, q := range pairs {
		if pos := p.position(q); pos >= 0 && !p.isShown(pos) {
			p.shown[pos/64] |= 1 << uint(pos%64)
			moved = append(moved, pos)
		}
	}
	p.remaining -= len(moved)
	if t := &p.classes; t.cand != nil && len(moved) > 0 {
		slices.Sort(moved)
		// A leaving position's index before the call: the candidates
		// still below it plus the leaving ones below it, now set.
		p.clearBelow(moved)
		for j := range moved {
			moved[j] += int32(j)
		}
		t.remove(moved)
	}
	p.moved = moved
}

// clearBelow replaces each of the ascending positions in pos by the
// number of clear bits of shown below it, in one sweep.
func (p *Pool) clearBelow(pos []int32) {
	w, set := 0, 0
	for j, at := range pos {
		for ; w < int(at/64); w++ {
			set += bits.OnesCount64(p.shown[w])
		}
		below := p.shown[w] & (1<<uint(at%64) - 1)
		pos[j] = at - int32(set+bits.OnesCount64(below))
	}
}

// cursor returns a cursor at the first candidate.
func (p *Pool) cursor() cursor { return cursor{shown: p.shown, w: -1} }

// cursor maps ascending candidate indices to positions in one sweep
// over shown: a popcount per word skipped, a bit step per candidate
// passed within a word.
type cursor struct {
	shown []uint64
	// w is the current word; free holds its clear bits not yet passed,
	// the lowest of them candidate i.
	w    int
	free uint64
	i    int
}

// seek returns the position of candidate i, which must not precede the
// cursor's and must be below RemainingCount.
func (c *cursor) seek(i int) int32 {
	for n := bits.OnesCount64(c.free); i >= c.i+n; n = bits.OnesCount64(c.free) {
		c.i += n
		c.w++
		c.free = ^c.shown[c.w]
	}
	for ; c.i < i; c.i++ {
		c.free &= c.free - 1
	}
	return int32(c.w*64 + bits.TrailingZeros64(c.free))
}

// RemainingCount returns how many fresh pairs the pool still holds —
// an O(1) counter for callers that only need the number.
func (p *Pool) RemainingCount() int { return p.remaining }

// Size returns the total pool size (shown and unshown).
func (p *Pool) Size() int { return len(p.pairs) }
