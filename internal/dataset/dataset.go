// Package dataset implements the in-memory relational substrate the
// exploratory-training framework operates on: schemas, relations,
// tuple projection and comparison, CSV interchange, deterministic
// sampling, and the train/test splitting used by the evaluation
// (§C.1 holds out 30% of every dataset for F1 measurement).
//
// Functional dependencies only ever compare cell values for equality, so
// values are strings; numeric data keeps its textual form. This matches
// how FD discovery systems (TANE, CORDS) treat relations.
//
// A relation stores each cell once, as a dictionary code: each column
// interns its values to dense int32 codes (first-seen order) and keeps
// one copy of each distinct value, so a cell's string is decoded on
// read (Value, Row). Append, SetValue, Subset, Clone and Project keep
// the codes dense and first-seen. Two cells of a column are equal iff
// their codes are equal, so the FD hot paths (partitioning, pair
// classification, minority detection) run on integer compares and
// counting arrays instead of string concatenation and string-keyed
// maps. Mutations bump a version counter that downstream caches
// (fd.PLICache) use for invalidation.
package dataset

import (
	"fmt"
	"strings"

	"exptrain/internal/stats"
)

// Schema is an ordered list of attribute names with O(1) name→position
// lookup. Attribute positions are stable for the lifetime of a relation;
// the FD machinery identifies attributes by position and renders them by
// name.
type Schema struct {
	names []string
	index map[string]int
}

// NewSchema builds a schema from attribute names. It returns an error if
// names is empty, contains an empty name, or contains duplicates.
func NewSchema(names ...string) (*Schema, error) {
	if len(names) == 0 {
		return nil, fmt.Errorf("dataset: schema needs at least one attribute")
	}
	s := &Schema{
		names: append([]string(nil), names...),
		index: make(map[string]int, len(names)),
	}
	for i, n := range names {
		if n == "" {
			return nil, fmt.Errorf("dataset: empty attribute name at position %d", i)
		}
		if _, dup := s.index[n]; dup {
			return nil, fmt.Errorf("dataset: duplicate attribute %q", n)
		}
		s.index[n] = i
	}
	return s, nil
}

// MustSchema is NewSchema that panics on error, for statically valid
// schemas (tests, generators).
func MustSchema(names ...string) *Schema {
	s, err := NewSchema(names...)
	if err != nil {
		panic(err)
	}
	return s
}

// Arity returns the number of attributes.
func (s *Schema) Arity() int { return len(s.names) }

// Names returns a copy of the attribute names in schema order.
func (s *Schema) Names() []string { return append([]string(nil), s.names...) }

// Name returns the attribute name at position i.
func (s *Schema) Name(i int) string { return s.names[i] }

// Index returns the position of the named attribute and whether it
// exists.
func (s *Schema) Index(name string) (int, bool) {
	i, ok := s.index[name]
	return i, ok
}

// MustIndex is Index that panics when the attribute is unknown.
func (s *Schema) MustIndex(name string) int {
	i, ok := s.index[name]
	if !ok {
		panic(fmt.Sprintf("dataset: unknown attribute %q", name))
	}
	return i
}

// Equal reports whether two schemas have identical attribute lists.
func (s *Schema) Equal(o *Schema) bool {
	if s.Arity() != o.Arity() {
		return false
	}
	for i, n := range s.names {
		if o.names[i] != n {
			return false
		}
	}
	return true
}

// Tuple is one row; len(Tuple) equals the schema arity.
type Tuple []string

// Clone returns a deep copy of the tuple.
func (t Tuple) Clone() Tuple { return append(Tuple(nil), t...) }

// column is one attribute's cells: codes[i] is the dense int32 code of
// row i's value, vals decodes codes back to strings, and index interns
// new values. Codes are assigned in first-seen order and are local to
// one relation.
type column struct {
	index map[string]int32
	vals  []string
	codes []int32
}

func newColumn() *column {
	return &column{index: make(map[string]int32)}
}

// intern returns the code for v, assigning the next dense code on first
// sight.
func (c *column) intern(v string) int32 {
	if code, ok := c.index[v]; ok {
		return code
	}
	code := int32(len(c.vals))
	c.index[v] = code
	c.vals = append(c.vals, v)
	return code
}

// recoded returns a column over cells, given as codes of c, renumbered
// densely in first-seen order: the codes interning the cells' values
// one by one into a fresh column assigns. It rewrites cells in place and
// keeps it as the new column's codes.
func (c *column) recoded(cells []int32) *column {
	out := newColumn()
	remap := make([]int32, len(c.vals))
	for code := range remap {
		remap[code] = -1
	}
	for i, code := range cells {
		nc := remap[code]
		if nc < 0 {
			nc = int32(len(out.vals))
			remap[code] = nc
			v := c.vals[code]
			out.index[v] = nc
			out.vals = append(out.vals, v)
		}
		cells[i] = nc
	}
	out.codes = cells
	return out
}

func (c *column) clone() *column {
	out := &column{
		index: make(map[string]int32, len(c.index)),
		vals:  append([]string(nil), c.vals...),
		codes: append([]int32(nil), c.codes...),
	}
	for v, code := range c.index {
		out.index[v] = code
	}
	return out
}

// CellDelta records one SetValue as a dictionary-code transition: cell
// (Row, Col) went from code Old to code New at mutation Version. Codes
// are the relation's own dictionary codes; because dictionaries only
// grow, Old remains decodable through DictValue even after the cell
// moved on. Old == New is possible (a SetValue writing the value
// already present still bumps the version) and carries no state change.
type CellDelta struct {
	// Version is the relation version this delta produced.
	Version uint64
	// Row and Col locate the mutated cell.
	Row, Col int
	// Old and New are the cell's dictionary codes before and after.
	Old, New int32
}

// maxJournal bounds the delta journal. When it overflows, the oldest
// half is dropped; consumers whose snapshot predates the window fall
// back to a full rebuild via DeltasSince's ok=false.
const maxJournal = 4096

// Relation is a schema plus rows. Rows are identified by their index,
// which the game, sampling, and error-generation layers use as stable
// tuple IDs. The cells live in the columns, one code each.
type Relation struct {
	schema *Schema
	cols   []*column
	// version counts mutations (Append/SetValue); partition caches use
	// it to detect staleness.
	version uint64
	// journal holds the per-cell deltas for versions
	// (journalStart, journalStart+len(journal)]; journal[i].Version ==
	// journalStart+i+1. Append is a bulk mutation the delta protocol
	// cannot express, so it resets the journal (raising the barrier);
	// SetValue appends one entry.
	journal      []CellDelta
	journalStart uint64
}

// New returns an empty relation over the given schema.
func New(schema *Schema) *Relation {
	r := &Relation{schema: schema, cols: make([]*column, schema.Arity())}
	for j := range r.cols {
		r.cols[j] = newColumn()
	}
	return r
}

// Schema returns the relation's schema.
func (r *Relation) Schema() *Schema { return r.schema }

// NumRows returns the number of tuples. A schema has at least one
// attribute, so the first column counts them.
func (r *Relation) NumRows() int { return len(r.cols[0].codes) }

// Append adds a tuple, validating its arity. The relation keeps the
// tuple's values, not the tuple.
func (r *Relation) Append(t Tuple) error {
	if len(t) != r.schema.Arity() {
		return fmt.Errorf("dataset: tuple arity %d does not match schema arity %d", len(t), r.schema.Arity())
	}
	for j, v := range t {
		c := r.cols[j]
		c.codes = append(c.codes, c.intern(v))
	}
	r.version++
	// A row addition is not representable as cell deltas; raise the
	// journal barrier so delta consumers rebuild from scratch.
	r.journal = r.journal[:0]
	r.journalStart = r.version
	return nil
}

// MustAppend is Append that panics on error.
func (r *Relation) MustAppend(t Tuple) {
	if err := r.Append(t); err != nil {
		panic(err)
	}
}

// Row returns a fresh decoded copy of the tuple at index i; writing to
// it leaves the relation unchanged (cells change through SetValue).
func (r *Relation) Row(i int) Tuple {
	t := make(Tuple, len(r.cols))
	for j, c := range r.cols {
		t[j] = c.vals[c.codes[i]]
	}
	return t
}

// Value returns the cell at row i, attribute position j.
func (r *Relation) Value(i, j int) string {
	c := r.cols[j]
	return c.vals[c.codes[i]]
}

// SetValue overwrites one cell; used by the error generator and the
// revision path. It is the only sanctioned cell-mutation path: it keeps
// the dictionary codes in sync, bumps the relation version, and records
// a CellDelta so fd.PLICache can catch up incrementally instead of
// rebuilding.
func (r *Relation) SetValue(i, j int, v string) {
	c := r.cols[j]
	old := c.codes[i]
	nc := c.intern(v)
	c.codes[i] = nc
	r.version++
	if len(r.journal) >= maxJournal {
		half := len(r.journal) / 2
		n := copy(r.journal, r.journal[half:])
		r.journal = r.journal[:n]
		r.journalStart += uint64(half)
	}
	r.journal = append(r.journal, CellDelta{Version: r.version, Row: i, Col: j, Old: old, New: nc})
}

// Code returns the dictionary code of the cell at row i, attribute
// position j. Codes are dense, relation-local, and equal iff the string
// values are equal.
func (r *Relation) Code(i, j int) int32 { return r.cols[j].codes[i] }

// ColumnCodes returns the live code slice of attribute j, indexed by
// row. It is the hot-path view the partition machinery walks; callers
// must treat it as read-only and must not hold it across mutations.
func (r *Relation) ColumnCodes(j int) []int32 { return r.cols[j].codes }

// DictLen returns the number of distinct values interned for attribute
// j; valid codes are [0, DictLen).
func (r *Relation) DictLen(j int) int { return len(r.cols[j].vals) }

// DictValue decodes a code of attribute j back to its string value.
func (r *Relation) DictValue(j int, code int32) string { return r.cols[j].vals[code] }

// Version returns the mutation counter, incremented by every Append and
// SetValue. Caches key their validity on it.
func (r *Relation) Version() uint64 { return r.version }

// DeltasSince returns the cell deltas recorded after version v, in
// mutation order, and ok=true when the journal covers the whole span
// (v, Version]. ok=false means the span is not reconstructible — v
// predates the journal window, a bulk mutation (Append) intervened, or
// v is from a different history — and the caller must rebuild from the
// current state. The returned slice aliases the live journal: consume
// it before the next mutation and do not retain it.
func (r *Relation) DeltasSince(v uint64) ([]CellDelta, bool) {
	if v == r.version {
		return nil, true
	}
	if v < r.journalStart || v > r.version {
		return nil, false
	}
	return r.journal[v-r.journalStart:], true
}

// Clone returns a deep copy sharing the (immutable) schema. The clone's
// dictionaries are copied too, so the two relations can diverge (and be
// mutated from different goroutines) independently.
func (r *Relation) Clone() *Relation {
	c := &Relation{schema: r.schema, cols: make([]*column, len(r.cols))}
	for j, col := range r.cols {
		c.cols[j] = col.clone()
	}
	c.version = r.version
	// The clone starts a fresh delta history at its current version:
	// caches attach to a relation by pointer identity, so deltas recorded
	// on the original are never replayed against the clone.
	c.journalStart = c.version
	return c
}

// ProjectKey returns the concatenation of the row's values at the given
// attribute positions, suitable as a map key for grouping rows by an
// attribute-set value (the core operation behind g₁ computation).
// A unit separator keeps ("ab","c") distinct from ("a","bc").
func (r *Relation) ProjectKey(row int, attrs []int) string {
	var b strings.Builder
	for k, a := range attrs {
		if k > 0 {
			b.WriteByte(0x1f)
		}
		b.WriteString(r.Value(row, a))
	}
	return b.String()
}

// ProjectKeyWith is ProjectKey with the cell reads indirected through
// value, producing keys in the same format (same separator). Incremental
// maintainers use it to rebuild the grouping key a row had at an earlier
// version by overlaying journal-recorded old codes on the current state.
func (r *Relation) ProjectKeyWith(row int, attrs []int, value func(row, attr int) string) string {
	var b strings.Builder
	for k, a := range attrs {
		if k > 0 {
			b.WriteByte(0x1f)
		}
		b.WriteString(value(row, a))
	}
	return b.String()
}

// EqualOn reports whether rows i and j agree on every attribute position
// in attrs. It compares dictionary codes, not strings, so the per-pair
// FD classification the belief layer performs is a handful of int32
// compares.
func (r *Relation) EqualOn(i, j int, attrs []int) bool {
	for _, a := range attrs {
		codes := r.cols[a].codes
		if codes[i] != codes[j] {
			return false
		}
	}
	return true
}

// Project returns a new relation over the named attributes (in the
// given order), copying every row's projection. It errors on unknown
// attribute names. The user-study scenarios present participants with a
// projection of the full dataset (Table 2 lists per-scenario attribute
// subsets). Like Subset, it renumbers each column's codes densely over
// the values its rows hold.
func (r *Relation) Project(names ...string) (*Relation, error) {
	schema, err := NewSchema(names...)
	if err != nil {
		return nil, err
	}
	attrs := make([]int, len(names))
	for i, n := range names {
		j, ok := r.schema.Index(n)
		if !ok {
			return nil, fmt.Errorf("dataset: projecting unknown attribute %q", n)
		}
		attrs[i] = j
	}
	out := &Relation{schema: schema, cols: make([]*column, len(attrs))}
	for k, a := range attrs {
		c := r.cols[a]
		out.cols[k] = c.recoded(append([]int32(nil), c.codes...))
	}
	out.version = uint64(r.NumRows()) // as if appended row by row
	out.journalStart = out.version
	return out, nil
}

// Subset returns a new relation holding copies of the rows at the given
// indices, in the given order. Its codes are dense over the rows it
// actually holds, numbered in first-seen order, as appending the rows
// one by one would number them.
func (r *Relation) Subset(rowIdx []int) *Relation {
	sub := &Relation{schema: r.schema, cols: make([]*column, len(r.cols))}
	for j, c := range r.cols {
		cells := make([]int32, len(rowIdx))
		for k, i := range rowIdx {
			cells[k] = c.codes[i]
		}
		sub.cols[j] = c.recoded(cells)
	}
	sub.version = uint64(len(rowIdx)) // as if appended row by row
	sub.journalStart = sub.version
	return sub
}

// Sample returns k distinct row indices drawn uniformly without
// replacement.
func (r *Relation) Sample(rng *stats.RNG, k int) []int {
	if k > r.NumRows() {
		k = r.NumRows()
	}
	return rng.SampleWithoutReplacement(r.NumRows(), k)
}

// Split partitions the row indices into a train set of the given
// fraction and a test set with the remainder, shuffled by rng. The paper
// separates 30% of each dataset as the test set (§C.1), i.e.
// Split(rng, 0.7).
func (r *Relation) Split(rng *stats.RNG, trainFrac float64) (train, test []int) {
	if trainFrac < 0 {
		trainFrac = 0
	}
	if trainFrac > 1 {
		trainFrac = 1
	}
	perm := rng.Perm(r.NumRows())
	cut := int(float64(r.NumRows()) * trainFrac)
	return perm[:cut], perm[cut:]
}

// Pair identifies an unordered pair of distinct tuples by row index with
// A < B. FD violations are defined over tuple pairs, so pairs are the
// unit the samplers present and the trainer labels.
type Pair struct {
	A, B int
}

// NewPair returns the canonical (sorted) form of the pair {a, b}. It
// panics if a == b: a violation needs two distinct tuples.
func NewPair(a, b int) Pair {
	if a == b {
		panic("dataset: pair of identical rows")
	}
	if a > b {
		a, b = b, a
	}
	return Pair{A: a, B: b}
}

// String renders the pair for logs and error messages.
func (p Pair) String() string { return fmt.Sprintf("(%d,%d)", p.A, p.B) }

// PairsAmong lists every pair of distinct rows in the sample, in the
// slice's order (rows[i] is paired with each later rows[j]). Rows must
// be distinct; duplicate rows would panic in NewPair.
func PairsAmong(rows []int) []Pair {
	if len(rows) < 2 {
		return nil
	}
	out := make([]Pair, 0, len(rows)*(len(rows)-1)/2)
	for i := 0; i < len(rows); i++ {
		for j := i + 1; j < len(rows); j++ {
			out = append(out, NewPair(rows[i], rows[j]))
		}
	}
	return out
}

// AllPairs enumerates every unordered pair over n rows, in lexicographic
// order. Quadratic: a brute-force oracle for tests over small
// relations.
//
//etlint:ignore unreachable brute-force pair oracle shared by the tests of dataset, agents, belief, fd, game and sampling
func AllPairs(n int) []Pair {
	if n < 2 {
		return nil
	}
	out := make([]Pair, 0, n*(n-1)/2)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			out = append(out, Pair{A: i, B: j})
		}
	}
	return out
}
