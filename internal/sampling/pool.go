package sampling

import (
	"cmp"
	"fmt"
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
	// shown is a bitset over positions. The bits past the last position
	// are set, so the clear bits are exactly the candidates.
	shown []uint64
	// remaining counts the clear bits of shown.
	remaining int
	// classes groups the candidates by agree set for scoring; built on
	// the first scoring call.
	classes classTable
	// moved is Show's scratch: the candidate indices that leave the
	// candidates.
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
	// one under it contributes every pair in that order. Every pair
	// added has A < B, so the set never holds more than n(n−1)/2
	// distinct pairs, however many calls add them.
	n := rel.NumRows()
	rng := stats.NewRNG(cfg.Seed)
	cs := newCandidateSet(min(bound, n*(n-1)/2))
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

// newCandidateSet returns a set for at most bound distinct pairs. The
// hash table and the key list share one allocation.
func newCandidateSet(bound int) *candidateSet {
	b := bits.Len(uint(2*max(bound, 1) - 1))
	buf := make([]uint64, 1<<b+bound)
	return &candidateSet{set: buf[:1<<b], shift: uint(64 - b), keys: buf[1<<b : 1<<b]}
}

// add appends q to the pool order unless an earlier call added it. It
// probes in a loop of its own: NewPool makes tens of thousands of add
// calls, and one probe helper shared with has made construction ~14%
// slower.
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

// has reports whether an add call added q.
func (cs *candidateSet) has(q rowPair) bool {
	k := (uint64(q.a)<<32 | uint64(q.b)) + 1
	mask := uint64(len(cs.set) - 1)
	for h := k * 0x9e3779b97f4a7c15 >> cs.shift; ; h = (h + 1) & mask {
		switch cs.set[h] {
		case k:
			return true
		case 0:
			return false
		}
	}
}

// pool returns the pool over the distinct pairs added, in pool order.
func (cs *candidateSet) pool(rel *dataset.Relation) *Pool {
	u := len(cs.keys)
	p := &Pool{
		rel:       rel,
		pairs:     make([]rowPair, u),
		shown:     make([]uint64, (u+63)/64),
		remaining: u,
	}
	if u%64 != 0 {
		p.shown[u/64] = ^uint64(0) << uint(u%64)
	}
	for i, k := range cs.keys {
		k--
		p.pairs[i] = rowPair{a: int32(k >> 32), b: int32(uint32(k))}
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

// Candidates returns the view of the unshown pairs the samplers select
// from. It is invalidated by the next Show or MarkShown.
func (p *Pool) Candidates() Candidates { return Candidates{p: p} }

// Show presents the candidates at the distinct indices idx, as a
// Sampler's Select returns them: it returns their pairs, in the order
// of idx, and removes them from the candidates. The indices are mapped
// to positions in one cursor sweep, and they are already positions in
// the class table's candidate list, which is compacted in place,
// preserving order — order-preservation is what keeps seeded sampler
// runs bit-identical to the original filter-on-read implementation (a
// swap-remove would permute what the samplers see). Before the first
// scoring call there is no list, and only bits change. Show panics on
// an index that is out of range or repeated.
func (p *Pool) Show(idx []int) []dataset.Pair {
	order := p.moved[:0] // the entries of idx, by ascending index
	for j := range idx {
		order = append(order, int32(j))
	}
	slices.SortFunc(order, func(a, b int32) int { return cmp.Compare(idx[a], idx[b]) })
	out := make([]dataset.Pair, len(idx))
	at, prev := p.cursor(), -1
	for n, j := range order {
		i := idx[j]
		if i <= prev || i >= p.remaining {
			panic(fmt.Sprintf("sampling: Show of candidate %d: out of range of %d or repeated", i, p.remaining))
		}
		prev = i
		// The cursor has loaded pos's word already and reads no word
		// before it again, so setting the bit cannot move a later seek.
		pos := at.seek(i)
		p.shown[pos/64] |= 1 << uint(pos%64)
		out[j] = p.pairs[pos].pair()
		order[n] = int32(i)
	}
	p.remaining -= len(order)
	if t := &p.classes; t.cand != nil && len(order) > 0 {
		t.remove(order)
	}
	p.moved = order
	return out
}

// MarkShown records that the pairs were presented, removing them from
// the candidates: a resumed session's earlier rounds. Pairs that are
// not candidates, or already shown, are ignored. It makes one pass over
// the pool against a transient set of the pairs, so a session marks
// its whole history at once; the live rounds go through Show. Like
// Show, it compacts the class table's candidate list in order.
func (p *Pool) MarkShown(pairs []dataset.Pair) {
	if len(pairs) == 0 {
		return
	}
	set := newCandidateSet(len(pairs))
	for _, q := range pairs {
		// Pool rows are non-negative int32s; any other row names no
		// candidate, and could alias one in the set's key.
		if q.A >= 0 && q.B >= 0 && q.A <= math.MaxInt32 && q.B <= math.MaxInt32 {
			set.add(q)
		}
	}
	var moved []int32 // the leaving candidates' indices before the call
	i := 0
	for pos, q := range p.pairs {
		w, bit := pos/64, uint64(1)<<uint(pos%64)
		if p.shown[w]&bit != 0 {
			continue
		}
		if set.has(q) {
			p.shown[w] |= bit
			moved = append(moved, int32(i))
		}
		i++
	}
	p.remaining -= len(moved)
	if t := &p.classes; t.cand != nil && len(moved) > 0 {
		t.remove(moved)
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
