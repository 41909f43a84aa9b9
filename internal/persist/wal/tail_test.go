package wal

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"exptrain/internal/belief"
	"exptrain/internal/dataset"
	"exptrain/internal/fd"
	"exptrain/internal/persist"
	"exptrain/internal/stats"
)

// oracleTail is the store's committed tail as it was before superseded
// deltas dropped their learner: every delta kept whole (insert is the
// former insertTailLocked) and folded with one ApplyDelta each. It keeps
// its own watermarks and folds over the same inner store as the store
// under test, so both must read the same snapshot.
type oracleTail struct {
	tail  map[string][]*persist.RoundDelta
	water map[string]int
}

func newOracleTail() *oracleTail {
	return &oracleTail{tail: make(map[string][]*persist.RoundDelta), water: make(map[string]int)}
}

func (o *oracleTail) insert(d *persist.RoundDelta) {
	tail := o.tail[d.Session]
	i := sort.Search(len(tail), func(i int) bool { return tail[i].Round >= d.Round })
	if i < len(tail) && tail[i].Round == d.Round {
		tail[i] = d
		return
	}
	tail = append(tail, nil)
	copy(tail[i+1:], tail[i:])
	tail[i] = d
	o.tail[d.Session] = tail
}

// appendRounds mirrors AppendRounds after a successful log append. The
// oracle keeps deep copies, so nothing the store does to a delta can
// reach it.
func (o *oracleTail) appendRounds(deltas []*persist.RoundDelta) {
	for _, d := range deltas {
		if d.Round >= o.water[d.Session] {
			o.insert(cloneDelta(d))
		}
	}
}

func (o *oracleTail) get(ctx context.Context, inner persist.Store, id string) (*persist.Snapshot, error) {
	snap, err := inner.Get(ctx, id)
	if err != nil {
		return nil, err
	}
	for _, d := range o.tail[id] {
		if _, err := persist.ApplyDelta(snap, d); err != nil {
			return nil, fmt.Errorf("replaying wal for %q: %w", id, err)
		}
	}
	return snap, nil
}

// put mirrors Put's watermark and prune once the inner Put landed.
func (o *oracleTail) put(id string, through int) {
	if through > o.water[id] {
		o.water[id] = through
	}
	tail := o.tail[id]
	i := sort.Search(len(tail), func(i int) bool { return tail[i].Round >= o.water[id] })
	switch {
	case i >= len(tail):
		delete(o.tail, id)
	case i > 0:
		o.tail[id] = append([]*persist.RoundDelta(nil), tail[i:]...)
	}
}

func (o *oracleTail) delete(id string) {
	delete(o.tail, id)
	o.water[id] = deletedWatermark
}

// reopen rebuilds the tail from what OpenStore recovered, as OpenStore
// does.
func (o *oracleTail) reopen(rec RecoverResult) {
	o.tail = make(map[string][]*persist.RoundDelta)
	o.water = make(map[string]int)
	for sess, through := range rec.Marks {
		o.water[sess] = through
	}
	for _, d := range rec.Deltas {
		if d.Round >= o.water[d.Session] {
			o.insert(cloneDelta(d))
		}
	}
}

// cloneDelta deep-copies a delta, keeping nil slices nil.
func cloneDelta(d *persist.RoundDelta) *persist.RoundDelta {
	c := *d
	labelings := func(ls []persist.LabelingJSON) []persist.LabelingJSON {
		if ls == nil {
			return nil
		}
		out := make([]persist.LabelingJSON, len(ls))
		for i, l := range ls {
			out[i] = l
			if l.Marked != nil {
				out[i].Marked = append([]int{}, l.Marked...)
			}
		}
		return out
	}
	c.Interaction.Labeled = labelings(d.Interaction.Labeled)
	c.Interaction.Revisions = labelings(d.Interaction.Revisions)
	if d.Interaction.Detection != nil {
		det := *d.Interaction.Detection
		c.Interaction.Detection = &det
	}
	if d.Learner != nil {
		c.Learner = append([]persist.BetaJSON{}, d.Learner...)
	}
	if d.LearnerRNG != nil {
		c.LearnerRNG = append([]uint64{}, d.LearnerRNG...)
	}
	return &c
}

// tailSessions are the sessions a tail script drives: the paper's
// 38-hypothesis space and the service's 147-hypothesis one (every FD
// with at most two LHS attributes over seven attributes).
var tailSessions = []struct {
	id    string
	space int
}{{"a", 38}, {"b", 147}, {"c", 147}}

// scriptBytes feeds a tail script its choices; an exhausted script reads
// zeros.
type scriptBytes struct {
	b []byte
}

func (s *scriptBytes) done() bool { return len(s.b) == 0 }

func (s *scriptBytes) intn(n int) int {
	if len(s.b) == 0 || n <= 1 {
		return 0
	}
	v := int(s.b[0])
	s.b = s.b[1:]
	return v % n
}

// tailRun drives a WAL store and the oracle through one script.
type tailRun struct {
	t      *testing.T
	ctx    context.Context
	dir    string
	inner  *persist.MemStore
	s      *Store
	o      *oracleTail
	schema *dataset.Schema
	spaces map[int]*fd.Space
	// next is each session's next fresh round.
	next map[string]int
	// sent holds every delta handed to AppendRounds beside a deep copy
	// taken before the call.
	sent, copies []*persist.RoundDelta
	// fill drives the values inside deltas and snapshots.
	fill *stats.RNG
	// folds counts Gets that folded a tail of two or more deltas, and
	// misfits the Gets that failed on a learner of the wrong length.
	folds, misfits int
}

func newTailRun(t *testing.T, seed uint64) *tailRun {
	t.Helper()
	names := []string{"a", "b", "c", "d", "e", "f", "g"}
	all := fd.MustEnumerate(fd.SpaceConfig{Arity: len(names), MaxLHS: 2})
	r := &tailRun{
		t:      t,
		ctx:    context.Background(),
		dir:    t.TempDir(),
		inner:  persist.NewMemStore(),
		o:      newOracleTail(),
		schema: dataset.MustSchema(names...),
		spaces: map[int]*fd.Space{38: fd.MustNewSpace(all[:38]), 147: fd.MustNewSpace(all)},
		next:   make(map[string]int),
		fill:   stats.NewRNG(seed),
	}
	if r.spaces[147].Size() != 147 {
		t.Fatalf("the seven-attribute space has %d hypotheses, want 147", r.spaces[147].Size())
	}
	var err error
	if r.s, _, err = OpenStore(r.inner, r.dir, tailStoreConfig); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.s.Close() })
	return r
}

// tailStoreConfig keeps appends from folding, so every fold into the
// inner store is a script step.
var tailStoreConfig = StoreConfig{CompactEvery: 1 << 20}

func (r *tailRun) learner(n int) []persist.BetaJSON {
	out := make([]persist.BetaJSON, n)
	for i := range out {
		out[i] = persist.BetaJSON{Alpha: 1 + 8*r.fill.Float64(), Beta: 1 + 8*r.fill.Float64()}
	}
	return out
}

// delta builds a learner-bearing round delta for session i; wrong gives
// it the other space's learner length.
func (r *tailRun) delta(i, round int, wrong bool) *persist.RoundDelta {
	n := tailSessions[i].space
	if wrong {
		n = 38 + 147 - n
	}
	return &persist.RoundDelta{
		Session: tailSessions[i].id,
		Round:   round,
		Interaction: persist.InteractionJSON{
			Labeled: []persist.LabelingJSON{{Pair: [2]int{round, round + 1 + r.fill.Intn(5)}, Marked: []int{r.fill.Intn(7)}}},
			MAE:     r.fill.Float64(),
			Payoff:  r.fill.Float64(),
		},
		Learner:    r.learner(n),
		LearnerRNG: []uint64{r.fill.Uint64(), r.fill.Uint64(), r.fill.Uint64(), r.fill.Uint64()},
	}
}

// snapshot builds session i's snapshot at the given history length,
// with a learner of the session's length or none.
func (r *tailRun) snapshot(i, rounds int, withLearner bool) *persist.Snapshot {
	history := make([][]belief.Labeling, rounds)
	for j := range history {
		history[j] = []belief.Labeling{{Pair: dataset.NewPair(j, j+1), Marked: fd.NewAttrSet(j % 7)}}
	}
	snap, err := persist.NewSnapshot(r.schema, r.spaces[tailSessions[i].space], nil, nil, history)
	if err != nil {
		r.t.Fatal(err)
	}
	if withLearner {
		snap.Learner = r.learner(tailSessions[i].space)
		snap.LearnerRNG = []uint64{r.fill.Uint64(), r.fill.Uint64(), r.fill.Uint64(), r.fill.Uint64()}
	}
	return snap
}

func (r *tailRun) put(i int, snap *persist.Snapshot) {
	id := tailSessions[i].id
	if err := r.s.Put(r.ctx, id, snap); err != nil {
		r.t.Fatalf("Put(%s): %v", id, err)
	}
	r.o.put(id, len(snap.History))
	if n := len(snap.History); n > r.next[id] {
		r.next[id] = n
	}
}

func (r *tailRun) appendRounds(deltas ...*persist.RoundDelta) {
	for _, d := range deltas {
		r.sent = append(r.sent, d)
		r.copies = append(r.copies, cloneDelta(d))
		if d.Round >= r.next[d.Session] {
			r.next[d.Session] = d.Round + 1
		}
	}
	if err := r.s.AppendRounds(r.ctx, deltas); err != nil {
		r.t.Fatalf("AppendRounds: %v", err)
	}
	r.o.appendRounds(deltas)
}

// compact folds one session through the append's fold path and checks
// the inner store received exactly the oracle's fold.
func (r *tailRun) compact(i int) {
	id := tailSessions[i].id
	want, wantErr := r.o.get(r.ctx, r.inner, id)
	if len(r.o.tail[id]) == 0 {
		want, wantErr = nil, nil // nothing to fold: compactSession does no Get
	}
	err := r.s.compactSession(r.ctx, id)
	r.sameError("compactSession("+id+")", err, wantErr)
	if want != nil && err == nil {
		got, gerr := r.inner.Get(r.ctx, id)
		if gerr != nil {
			r.t.Fatal(gerr)
		}
		r.sameSnapshot("compacted "+id, got, want)
		r.o.put(id, len(want.History))
	}
}

func (r *tailRun) scan() {
	type fold struct {
		want *persist.Snapshot
		err  error
	}
	folds := make(map[string]fold)
	for id := range r.o.tail {
		want, err := r.o.get(r.ctx, r.inner, id)
		folds[id] = fold{want, err}
	}
	if _, err := r.s.Scan(r.ctx); err != nil {
		r.t.Fatalf("Scan: %v", err)
	}
	for id, f := range folds {
		if f.err != nil {
			continue // the scan leaves an unfoldable tail in place
		}
		got, err := r.inner.Get(r.ctx, id)
		if err != nil {
			r.t.Fatal(err)
		}
		r.sameSnapshot("scanned "+id, got, f.want)
		r.o.put(id, len(f.want.History))
	}
}

func (r *tailRun) reopen() {
	if err := r.s.Close(); err != nil {
		r.t.Fatalf("Close: %v", err)
	}
	s, rec, err := OpenStore(r.inner, r.dir, tailStoreConfig)
	if err != nil {
		r.t.Fatalf("reopen: %v", err)
	}
	r.s = s
	r.o.reopen(rec)
}

func (r *tailRun) sameError(what string, got, want error) {
	r.t.Helper()
	class := func(err error) string {
		switch {
		case err == nil:
			return "ok"
		case errors.Is(err, persist.ErrNotFound):
			return "not found"
		case errors.Is(err, persist.ErrCorrupt):
			return "corrupt"
		}
		return "other"
	}
	if class(got) != class(want) || fmt.Sprint(got) != fmt.Sprint(want) {
		r.t.Fatalf("%s: error %v (%s), oracle %v (%s)", what, got, class(got), want, class(want))
	}
}

func (r *tailRun) sameSnapshot(what string, got, want *persist.Snapshot) {
	r.t.Helper()
	g, err := json.Marshal(got)
	if err != nil {
		r.t.Fatal(err)
	}
	w, err := json.Marshal(want)
	if err != nil {
		r.t.Fatal(err)
	}
	if !bytes.Equal(g, w) {
		r.t.Fatalf("%s: snapshot differs from the oracle's fold\n got %.300s\nwant %.300s", what, g, w)
	}
}

// check compares every session's read with the oracle's, and checks
// each tail holds one learner and one RNG state and no delta handed to
// AppendRounds changed.
func (r *tailRun) check(step string) {
	r.t.Helper()
	for _, sess := range tailSessions {
		id := sess.id
		got, err := r.s.Get(r.ctx, id)
		want, wantErr := r.o.get(r.ctx, r.inner, id)
		r.sameError(step+": Get("+id+")", err, wantErr)
		if err == nil {
			r.sameSnapshot(step+": Get("+id+")", got, want)
			if len(r.o.tail[id]) >= 2 {
				r.folds++
			}
		} else if errors.Is(err, persist.ErrCorrupt) && strings.Contains(err.Error(), "learner parameters") {
			r.misfits++
		}
		r.s.mu.Lock()
		tail := r.s.tail[id]
		learners, rngs := 0, 0
		for _, d := range tail {
			if d.Learner != nil {
				learners++
			}
			if d.LearnerRNG != nil {
				rngs++
			}
		}
		r.s.mu.Unlock()
		if len(tail) > 0 && (learners != 1 || rngs != 1) {
			r.t.Fatalf("%s: %s's tail of %d deltas holds %d learners and %d RNG states, want 1 each",
				step, id, len(tail), learners, rngs)
		}
		if len(tail) != len(r.o.tail[id]) {
			r.t.Fatalf("%s: %s's tail holds %d deltas, the oracle's %d", step, id, len(tail), len(r.o.tail[id]))
		}
	}
	for j, d := range r.sent {
		if !reflect.DeepEqual(d, r.copies[j]) {
			r.t.Fatalf("%s: delta %d (%s round %d) handed to AppendRounds was modified", step, j, d.Session, d.Round)
		}
	}
}

// runTailScript plays a script of appends, retries, Puts, folds,
// deletes and reopens against the store and the oracle, checking after
// every step.
func runTailScript(t *testing.T, seed uint64, script []byte) *tailRun {
	r := newTailRun(t, seed)
	sc := &scriptBytes{b: script}
	for i := range tailSessions {
		r.put(i, r.snapshot(i, sc.intn(4), sc.intn(4) != 0))
	}
	r.check("base")
	for step := 0; !sc.done(); step++ {
		op, i := sc.intn(16), sc.intn(len(tailSessions))
		id := tailSessions[i].id
		next := r.next[id]
		var name string
		switch {
		case op <= 5: // a fresh round; a few carry a learner of the wrong length
			name = "append"
			r.appendRounds(r.delta(i, next, sc.intn(32) == 0))
		case op <= 7: // the newest round again
			name = "retry newest"
			r.appendRounds(r.delta(i, max(next-1, 0), false))
		case op == 8: // an older round again: mid-tail or already folded
			name = "retry older"
			r.appendRounds(r.delta(i, sc.intn(max(next, 1)), false))
		case op == 9: // two fresh rounds out of order, plus another session's retry
			name = "out of order"
			j := sc.intn(len(tailSessions))
			r.appendRounds(r.delta(i, next+1, false), r.delta(i, next, false),
				r.delta(j, max(r.next[tailSessions[j].id]-1, 0), false))
		case op <= 11: // a snapshot at a watermark, mostly at or past the current one
			name = "put"
			w, water := sc.intn(next+1), r.o.water[id]
			if sc.intn(4) != 0 && water <= next {
				w = water + sc.intn(next-water+1)
			}
			r.put(i, r.snapshot(i, w, sc.intn(4) != 0))
		case op == 12:
			name = "compact"
			r.compact(i)
		case op == 13:
			name = "scan"
			r.scan()
		case op == 14:
			name = "reopen"
			r.reopen()
		default: // delete, rarely: a deleted session takes no more rounds
			name = "delete"
			if sc.intn(4) != 0 {
				continue
			}
			switch err := r.s.Delete(r.ctx, id); {
			case err == nil:
				r.o.delete(id)
			case !errors.Is(err, persist.ErrNotFound): // a second delete finds nothing and retires nothing
				t.Fatalf("Delete(%s): %v", id, err)
			}
		}
		r.check(fmt.Sprintf("step %d (%s %s)", step, name, id))
	}
	return r
}

// TestWalTailFoldMatchesOracle drives the store and the whole-delta
// oracle with seeded scripts: every read, compaction and scan must
// produce the oracle's snapshot byte for byte, or fail with its error,
// while each session's tail holds one learner.
func TestWalTailFoldMatchesOracle(t *testing.T) {
	// A step reads two to six bytes, so a script plays about a hundred.
	const scripts, scriptLen = 12, 320
	folds, misfits := 0, 0
	for seed := uint64(1); seed <= scripts; seed++ {
		rng := stats.NewRNG(seed)
		script := make([]byte, scriptLen)
		for i := range script {
			script[i] = byte(rng.Intn(256))
		}
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			r := runTailScript(t, seed, script)
			folds += r.folds
			misfits += r.misfits
		})
	}
	// The scripts must reach the cases the change is about: reads over
	// tails of several deltas, and deltas whose learner does not fit.
	if folds == 0 || misfits == 0 {
		t.Fatalf("scripts compared %d multi-delta folds and %d learner-length failures, want both > 0", folds, misfits)
	}
	t.Logf("compared %d multi-delta folds and %d learner-length failures", folds, misfits)
}

// FuzzWalTailFold runs fuzzer-chosen tail scripts against the oracle
// (see TestWalTailFoldMatchesOracle). Wired into `make fuzz`.
func FuzzWalTailFold(f *testing.F) {
	// Each script opens with a (rounds, learner) byte pair per session's
	// base snapshot.
	base := []byte{0, 1, 1, 1, 0, 1}
	seed := func(ops ...byte) []byte { return append(append([]byte(nil), base...), ops...) }
	f.Add([]byte{})
	// Two fresh rounds on b, a retry of the newest, a fold, a reopen.
	f.Add(seed(0, 1, 1, 0, 1, 1, 6, 1, 12, 1, 14, 1))
	// A wrong-length learner on a, superseded by a fresh round, folded.
	f.Add(seed(0, 0, 0, 0, 0, 1, 12, 0))
	// Out of order on b, a Put past the tail, a scan, a delete and an
	// append the delete retires.
	f.Add(seed(1, 1, 1, 1, 1, 1, 9, 1, 2, 10, 1, 3, 1, 2, 1, 13, 0, 15, 1, 0, 0, 1, 1))
	f.Fuzz(func(t *testing.T, script []byte) {
		// Every step rereads each session and re-checks every appended
		// delta, so a long script costs quadratic time; the cases under
		// test take a handful of steps.
		if len(script) > 128 {
			script = script[:128]
		}
		runTailScript(t, 1, script)
	})
}
