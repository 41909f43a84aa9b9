package dataset

import (
	"fmt"
	"slices"
	"strings"
	"testing"
)

// tupleRelation is the relation layout Relation replaced: every row
// kept as a string tuple beside the columns' dictionary codes, Subset
// and Project re-interning their copied tuples one by one. It is the
// oracle FuzzRelationOps holds Relation to.
type tupleRelation struct {
	schema       *Schema
	rows         []Tuple
	cols         []*column
	version      uint64
	journal      []CellDelta
	journalStart uint64
}

func newTupleRelation(schema *Schema) *tupleRelation {
	r := &tupleRelation{schema: schema, cols: make([]*column, schema.Arity())}
	for j := range r.cols {
		r.cols[j] = newColumn()
	}
	return r
}

func (r *tupleRelation) NumRows() int { return len(r.rows) }

func (r *tupleRelation) Append(t Tuple) error {
	if len(t) != r.schema.Arity() {
		return fmt.Errorf("dataset: tuple arity %d does not match schema arity %d", len(t), r.schema.Arity())
	}
	r.rows = append(r.rows, t)
	for j, v := range t {
		c := r.cols[j]
		c.codes = append(c.codes, c.intern(v))
	}
	r.version++
	r.journal = r.journal[:0]
	r.journalStart = r.version
	return nil
}

func (r *tupleRelation) Row(i int) Tuple { return r.rows[i] }

func (r *tupleRelation) Value(i, j int) string { return r.rows[i][j] }

func (r *tupleRelation) SetValue(i, j int, v string) {
	c := r.cols[j]
	old := c.codes[i]
	r.rows[i][j] = v
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

func (r *tupleRelation) Code(i, j int) int32 { return r.cols[j].codes[i] }

func (r *tupleRelation) DictLen(j int) int { return len(r.cols[j].vals) }

func (r *tupleRelation) DictValue(j int, code int32) string { return r.cols[j].vals[code] }

func (r *tupleRelation) Version() uint64 { return r.version }

func (r *tupleRelation) DeltasSince(v uint64) ([]CellDelta, bool) {
	if v == r.version {
		return nil, true
	}
	if v < r.journalStart || v > r.version {
		return nil, false
	}
	return r.journal[v-r.journalStart:], true
}

func (r *tupleRelation) Clone() *tupleRelation {
	c := &tupleRelation{schema: r.schema, rows: make([]Tuple, len(r.rows)), cols: make([]*column, len(r.cols))}
	for i, t := range r.rows {
		c.rows[i] = t.Clone()
	}
	for j, col := range r.cols {
		c.cols[j] = col.clone()
	}
	c.version = r.version
	c.journalStart = c.version
	return c
}

func (r *tupleRelation) Project(names ...string) (*tupleRelation, error) {
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
	out := newTupleRelation(schema)
	for i := 0; i < r.NumRows(); i++ {
		t := make(Tuple, len(attrs))
		for k, a := range attrs {
			t[k] = r.rows[i][a]
		}
		if err := out.Append(t); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func (r *tupleRelation) Subset(rowIdx []int) *tupleRelation {
	sub := newTupleRelation(r.schema)
	sub.rows = make([]Tuple, 0, len(rowIdx))
	for _, i := range rowIdx {
		if err := sub.Append(r.rows[i].Clone()); err != nil {
			panic(err)
		}
	}
	return sub
}

// relPair is a Relation and its oracle, built by the same operations.
type relPair struct {
	got  *Relation
	want *tupleRelation
}

// sameRelation reports the first way got answers differently from want:
// rows, cells, codes, dictionaries, version and every DeltasSince
// answer from version 0 to one past the current one.
func sameRelation(got *Relation, want *tupleRelation) error {
	if !got.Schema().Equal(want.schema) {
		return fmt.Errorf("schema %v, want %v", got.Schema().Names(), want.schema.Names())
	}
	if got.NumRows() != want.NumRows() {
		return fmt.Errorf("NumRows %d, want %d", got.NumRows(), want.NumRows())
	}
	arity := want.schema.Arity()
	for i := 0; i < want.NumRows(); i++ {
		if g, w := got.Row(i), want.Row(i); !slices.Equal(g, w) {
			return fmt.Errorf("Row(%d) = %q, want %q", i, g, w)
		}
		for j := 0; j < arity; j++ {
			if g, w := got.Value(i, j), want.Value(i, j); g != w {
				return fmt.Errorf("Value(%d, %d) = %q, want %q", i, j, g, w)
			}
			if g, w := got.Code(i, j), want.Code(i, j); g != w {
				return fmt.Errorf("Code(%d, %d) = %d, want %d", i, j, g, w)
			}
		}
	}
	for j := 0; j < arity; j++ {
		if g, w := got.DictLen(j), want.DictLen(j); g != w {
			return fmt.Errorf("DictLen(%d) = %d, want %d", j, g, w)
		}
		for code := int32(0); int(code) < want.DictLen(j); code++ {
			if g, w := got.DictValue(j, code), want.DictValue(j, code); g != w {
				return fmt.Errorf("DictValue(%d, %d) = %q, want %q", j, code, g, w)
			}
		}
	}
	if g, w := got.Version(), want.Version(); g != w {
		return fmt.Errorf("Version %d, want %d", g, w)
	}
	for v := uint64(0); v <= want.Version()+1; v++ {
		gd, gok := got.DeltasSince(v)
		wd, wok := want.DeltasSince(v)
		if gok != wok || !slices.Equal(gd, wd) {
			return fmt.Errorf("DeltasSince(%d) = %v, %v; want %v, %v", v, gd, gok, wd, wok)
		}
	}
	return nil
}

// fuzzValues is the small value alphabet the scripts draw cells from,
// so columns repeat values and dictionaries stay small.
var fuzzValues = []string{"a", "b", "c", "d", "e", ""}

// FuzzRelationOps replays a byte script of Append, SetValue, Clone,
// Subset and Project against Relation and its tuple-backed oracle, over
// up to four relations at a time (every derived relation joins the set,
// so later mutations also check that derived relations share nothing).
// After each step every relation in the set must answer Row, Value,
// Code, DictLen, DictValue, Version and DeltasSince as its oracle does.
func FuzzRelationOps(f *testing.F) {
	f.Add([]byte{0, 1, 2, 0, 3, 4, 1, 0, 0, 1, 2})
	f.Add([]byte{0, 0, 0, 0, 1, 1, 0, 1, 2, 3, 2, 0, 3, 3, 1, 2, 0, 4, 0, 2, 5})
	f.Add([]byte{0, 5, 5, 5, 0, 1, 2, 3, 1, 0, 1, 4, 3, 0, 1, 0, 2, 1, 4, 1, 2, 1, 1, 0, 0, 9})
	f.Add([]byte(strings.Repeat("\x00\x01\x02\x03\x01\x00\x02\x04", 6)))
	f.Fuzz(func(t *testing.T, script []byte) {
		schema := MustSchema("x", "y", "z")
		set := []relPair{{New(schema), newTupleRelation(schema)}}
		next := func() int {
			if len(script) == 0 {
				return 0
			}
			b := script[0]
			script = script[1:]
			return int(b)
		}
		for step := 0; len(script) > 0 && step < 64; step++ {
			op := next() % 5
			cur := &set[next()%len(set)]
			var derived *relPair
			switch op {
			case 0: // Append
				tup := make(Tuple, cur.want.schema.Arity())
				for j := range tup {
					tup[j] = fuzzValues[next()%len(fuzzValues)]
				}
				gerr := cur.got.Append(tup.Clone())
				werr := cur.want.Append(tup.Clone())
				if (gerr == nil) != (werr == nil) {
					t.Fatalf("step %d: Append errors %v, want %v", step, gerr, werr)
				}
			case 1: // SetValue
				if cur.want.NumRows() == 0 {
					continue
				}
				i, j := next()%cur.want.NumRows(), next()%cur.want.schema.Arity()
				v := fuzzValues[next()%len(fuzzValues)] + fmt.Sprint(next()%3)
				cur.got.SetValue(i, j, v)
				cur.want.SetValue(i, j, v)
			case 2: // Clone
				derived = &relPair{cur.got.Clone(), cur.want.Clone()}
			case 3: // Subset, rows may repeat
				idx := make([]int, next()%6)
				for k := range idx {
					if cur.want.NumRows() == 0 {
						idx = nil
						break
					}
					idx[k] = next() % cur.want.NumRows()
				}
				derived = &relPair{cur.got.Subset(idx), cur.want.Subset(idx)}
			case 4: // Project onto a nonempty ordering of the attributes
				names := cur.want.schema.Names()
				perm := make([]string, 0, len(names))
				for k := next()%len(names) + 1; k > 0; k-- {
					pick := next() % len(names)
					perm = append(perm, names[pick])
					names = append(names[:pick], names[pick+1:]...)
				}
				g, gerr := cur.got.Project(perm...)
				w, werr := cur.want.Project(perm...)
				if (gerr == nil) != (werr == nil) {
					t.Fatalf("step %d: Project errors %v, want %v", step, gerr, werr)
				}
				if gerr == nil {
					derived = &relPair{g, w}
				}
			}
			if derived != nil {
				if len(set) == 4 {
					set = set[1:]
				}
				set = append(set, *derived)
			}
			for k, p := range set {
				if err := sameRelation(p.got, p.want); err != nil {
					t.Fatalf("step %d (op %d), relation %d: %v", step, op, k, err)
				}
			}
		}
	})
}

// TestRowIsACopy pins that a decoded row is the caller's: writing to it
// changes no cell, no code and no version.
func TestRowIsACopy(t *testing.T) {
	rel := New(MustSchema("a", "b"))
	rel.MustAppend(Tuple{"x", "y"})
	v := rel.Version()
	row := rel.Row(0)
	row[0] = "changed"
	if rel.Value(0, 0) != "x" || rel.Code(0, 0) != 0 || rel.Version() != v {
		t.Fatalf("writing Row's tuple reached the relation: Value %q, Code %d, Version %d", rel.Value(0, 0), rel.Code(0, 0), rel.Version())
	}
}
