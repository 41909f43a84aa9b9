package fd

import (
	"sort"
	"sync"

	"exptrain/internal/dataset"
)

// PLICache memoizes stripped partitions (position-list indexes) of one
// relation per attribute set, deriving multi-attribute partitions
// TANE-style by refining the cached partition on the set minus its
// highest attribute. One cache is shared by every FD-level operation
// over the same relation — pool construction partitions once per
// distinct LHS instead of once per hypothesis, and the per-iteration
// evaluator reuses the partitions of all believed FDs across the whole
// game.
//
// The cache is delta-aware: it snapshots the relation's mutation
// version and, when the relation advances, pulls the per-cell deltas
// recorded by SetValue (dataset.Relation.DeltasSince) and moves exactly
// the affected rows between equivalence classes — promoting each
// touched attribute set to an incrementally maintained index (incPLI)
// on its first edit. Cached sets whose attributes the edits never
// touched keep their partitions as-is. Only when the delta journal
// cannot cover the gap (bulk mutations such as Append, or a journal
// overflow) does the cache fall back to the wholesale flush that used
// to follow every version bump. It is safe for concurrent use.
type PLICache struct {
	mu      sync.Mutex
	rel     *dataset.Relation
	version uint64
	parts   map[AttrSet]*Partition
	// incs holds the incrementally maintained indexes of the sets that
	// have seen at least one single-cell edit. Invariant: if a set is in
	// incs, its whole refinement-chain prefix is too (promotion walks
	// the chain), and its parts entry is served from the inc's stripped
	// view.
	incs map[AttrSet]*incPLI

	// stats memoizes per-FD pair statistics at the current version.
	// Deltas evict selectively: only FDs mentioning an edited column
	// recompute, so a warm cache answers a post-edit Stats sweep mostly
	// from the memo.
	stats map[FD]Stats

	// sc holds the counting scratch the partition constructors and the
	// per-FD stats/minority paths reuse; guarded by mu.
	sc pliScratch
	// affected is replay scratch: the cached sets containing an edited
	// column, sorted so prefixes process before supersets.
	affected []AttrSet
}

// NewPLICache builds an empty cache over rel. Partitions are computed
// lazily on first request.
func NewPLICache(rel *dataset.Relation) *PLICache {
	return &PLICache{
		rel:     rel,
		version: rel.Version(),
		parts:   make(map[AttrSet]*Partition),
		incs:    make(map[AttrSet]*incPLI),
		stats:   make(map[FD]Stats),
	}
}

// Relation returns the relation the cache indexes.
func (c *PLICache) Relation() *dataset.Relation { return c.rel }

// Len returns the number of cached partitions (diagnostics and tests).
func (c *PLICache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.parts)
}

// ensureLocked brings the cache up to the relation's current version:
// a no-op when nothing changed, an incremental delta replay when the
// journal covers the gap, a wholesale flush otherwise.
func (c *PLICache) ensureLocked() {
	v := c.rel.Version()
	if v == c.version {
		return
	}
	deltas, ok := c.rel.DeltasSince(c.version)
	if !ok {
		c.version = v
		c.parts = make(map[AttrSet]*Partition)
		c.incs = make(map[AttrSet]*incPLI)
		clear(c.stats)
		return
	}
	// A single-cell revision — the interactive steady state — can adjust
	// the memoized stats arithmetically; multi-delta batches evict and
	// recount, because the adjustments would need historical cell values.
	live := 0
	for _, d := range deltas {
		if d.Old != d.New {
			live++
		}
	}
	for _, d := range deltas {
		if d.Old == d.New {
			continue
		}
		c.applyDeltaLocked(d, live == 1)
	}
	c.version = v
}

// statsAdjust is one deferred LHS-side stats adjustment: the pre-move
// group measurements of an FD whose LHS contains the edited column,
// completed against the post-move group after the replay relocates the
// row.
type statsAdjust struct {
	f         FD
	othersOld int // group size minus the row itself, pre-move
	sameOld   int // same-RHS-code members (excluding the row), pre-move
}

// applyDeltaLocked relocates one row in every cached set containing the
// edited column. Affected sets are promoted to incremental form first
// (recursively promoting their refinement-chain prefixes), then
// processed in ascending (size, mask) order so a set's prefix has
// already absorbed the delta when the set derives its new group key
// from the prefix's group ids.
//
// The per-FD stats memo is maintained alongside: when adjust is set
// (the delta is the batch's only live edit, so the relation's current
// state differs from the pre-delta state at exactly this cell), each
// memoized stat is corrected arithmetically from the row's old and new
// groups in O(|group|); otherwise affected entries are evicted and
// recounted on demand.
func (c *PLICache) applyDeltaLocked(d dataset.CellDelta, adjust bool) {
	var pending []statsAdjust
	row32 := int32(d.Row)
	for f, st := range c.stats { //etlint:ignore maporder per-FD memo updates are independent of visit order
		switch {
		case f.LHS.Has(d.Col):
			q, ok := c.incs[f.LHS]
			if !adjust || !ok {
				// No pre-delta index to measure the old group against (a
				// fresh promotion would already be at the post-delta
				// state); recount lazily.
				delete(c.stats, f)
				continue
			}
			g := q.members[q.groupOf[row32]]
			codes := c.rel.ColumnCodes(f.RHS)
			same := 0
			for _, s := range g {
				if s != row32 && codes[s] == codes[row32] {
					same++
				}
			}
			pending = append(pending, statsAdjust{f: f, othersOld: len(g) - 1, sameOld: same})
		case f.RHS == d.Col:
			if !adjust {
				delete(c.stats, f)
				continue
			}
			// The LHS partition is untouched by this delta, so promoting
			// it now (at the current state) is exact.
			q := c.promoteLocked(f.LHS)
			g := q.members[q.groupOf[row32]]
			codes := c.rel.ColumnCodes(f.RHS)
			sameOld, sameNew := 0, 0
			for _, s := range g {
				if s == row32 {
					continue
				}
				switch codes[s] {
				case d.Old:
					sameOld++
				case d.New:
					sameNew++
				}
			}
			st.Compliant += sameNew - sameOld
			st.Violating = st.Agreeing - st.Compliant
			c.stats[f] = st
		}
	}
	aff := c.affected[:0]
	for x := range c.parts { // collected set is sorted below before use
		if x.Has(d.Col) {
			aff = append(aff, x)
		}
	}
	for x := range c.incs { // collected set is sorted below before use
		if x.Has(d.Col) {
			if _, dup := c.parts[x]; !dup {
				aff = append(aff, x)
			}
		}
	}
	sort.Slice(aff, func(i, j int) bool {
		if ci, cj := aff[i].Count(), aff[j].Count(); ci != cj {
			return ci < cj
		}
		return aff[i] < aff[j]
	})
	c.affected = aff
	// Phase A: promote every affected set (reads only consistent,
	// current-state data; no group ids move yet).
	for _, x := range aff {
		c.promoteLocked(x)
	}
	// Phase B: apply the move, prefixes before supersets.
	row := int32(d.Row)
	for _, x := range aff {
		q := c.incs[x]
		var k gkey
		switch {
		case x.Count() == 1:
			k = gkey{pg: 0, code: d.New}
		case d.Col == q.last:
			k = gkey{pg: c.incs[q.prefix].groupOf[row], code: d.New}
		default:
			// The edited column is in the prefix, which already moved the
			// row; the last-attribute code is unchanged by this delta.
			k = gkey{pg: c.incs[q.prefix].groupOf[row], code: c.rel.Code(d.Row, q.last)}
		}
		q.moveRow(row, k)
		c.parts[x] = nil // re-derived lazily from the inc's stripped view
	}
	// Complete the deferred LHS-side stats adjustments against the
	// post-move groups.
	for _, p := range pending {
		q := c.incs[p.f.LHS]
		g := q.members[q.groupOf[row32]]
		codes := c.rel.ColumnCodes(p.f.RHS)
		same := 0
		for _, s := range g {
			if s != row32 && codes[s] == codes[row32] {
				same++
			}
		}
		st := c.stats[p.f]
		st.Agreeing += (len(g) - 1) - p.othersOld
		st.Compliant += same - p.sameOld
		st.Violating = st.Agreeing - st.Compliant
		c.stats[p.f] = st
	}
}

// promoteLocked builds (or returns) the incremental index for x from
// the relation's current state, promoting the refinement-chain prefix
// first so group keys have something to reference. Promotion happens at
// most once per set per flush-epoch; afterwards every edit is a single
// moveRow.
func (c *PLICache) promoteLocked(x AttrSet) *incPLI {
	if q, ok := c.incs[x]; ok {
		return q
	}
	attrs := x.Attrs()
	q := &incPLI{attrs: x, last: attrs[len(attrs)-1], lookup: make(map[gkey]int32)}
	n := c.rel.NumRows()
	q.groupOf = make([]int32, n)
	codes := c.rel.ColumnCodes(q.last)
	if len(attrs) == 1 {
		for i := 0; i < n; i++ {
			q.place(int32(i), gkey{pg: 0, code: codes[i]})
		}
	} else {
		q.prefix = x.Remove(q.last)
		pre := c.promoteLocked(q.prefix)
		for i := 0; i < n; i++ {
			q.place(int32(i), gkey{pg: pre.groupOf[i], code: codes[i]})
		}
	}
	c.incs[x] = q
	return q
}

// Partition returns the stripped partition on x, computing and caching
// it (and every prefix partition along the refinement chain) on demand.
// The returned partition is valid until the relation's next mutation:
// after an edit the cache may rewrite the underlying classes in place.
func (c *PLICache) Partition(x AttrSet) *Partition {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ensureLocked()
	return c.partitionLocked(x)
}

func (c *PLICache) partitionLocked(x AttrSet) *Partition {
	if p, ok := c.parts[x]; ok && p != nil {
		return p
	}
	if q, ok := c.incs[x]; ok {
		p := q.strippedView()
		c.parts[x] = p
		return p
	}
	var p *Partition
	if x.Count() <= 1 {
		if x.IsEmpty() {
			p = &Partition{Rows: c.rel.NumRows()}
		} else {
			p = partitionSingle(c.rel, x.Attrs()[0], &c.sc)
		}
	} else {
		attrs := x.Attrs()
		last := attrs[len(attrs)-1]
		p = c.partitionLocked(x.Remove(last)).refine(c.rel, last, &c.sc)
	}
	c.parts[x] = p
	return p
}

// Stats computes f's pair statistics from the cached partition on
// f.LHS — the same values ComputeStats produces from scratch — using
// the cache's pooled counting scratch (no steady-state allocation).
// Results are memoized per FD; an edit evicts only the FDs mentioning
// the edited column.
func (c *PLICache) Stats(f FD) Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ensureLocked()
	if st, ok := c.stats[f]; ok {
		return st
	}
	var st Stats
	if q, ok := c.incs[f.LHS]; ok {
		// Count off the live group lists; deriving the ordered stripped
		// view per edit would dominate the incremental win.
		st = q.statsFor(c.rel, f.RHS, &c.sc)
	} else {
		st = c.partitionLocked(f.LHS).statsFor(c.rel, f.RHS, &c.sc)
	}
	c.stats[f] = st
	return st
}

// minorityInto unions f's minority rows into flagged.
func (c *PLICache) minorityInto(f FD, flagged map[int]struct{}) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ensureLocked()
	minorityFromPartition(c.partitionLocked(f.LHS), c.rel, f.RHS, flagged, &c.sc)
}

// DetectErrors unions MinorityRows over the believed FDs, sharing the
// cached LHS partitions. Called once per game iteration with the
// learner's current model, this is the evaluator's hot path.
func (c *PLICache) DetectErrors(fds []FD) map[int]struct{} {
	out := make(map[int]struct{})
	for _, f := range fds {
		c.minorityInto(f, out)
	}
	return out
}
