package wal

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"exptrain/internal/belief"
	"exptrain/internal/dataset"
	"exptrain/internal/fd"
	"exptrain/internal/persist"
	"exptrain/internal/stats"
)

// mkDelta builds one distinguishable round delta: the MAE doubles as a
// fingerprint so a recovered record can be matched back to the exact
// (session, round) that produced it.
func mkDelta(session string, round int) *persist.RoundDelta {
	return &persist.RoundDelta{
		Session: session,
		Round:   round,
		Interaction: persist.FromRound(persist.Round{
			MAE:    float64(round) + 0.25,
			Payoff: float64(round) * 2,
		}),
	}
}

// testSnap builds a snapshot with the given number of history rounds.
func testSnap(t *testing.T, rounds int) *persist.Snapshot {
	t.Helper()
	schema := dataset.MustSchema("a", "b", "c")
	space := fd.MustNewSpace(fd.MustEnumerate(fd.SpaceConfig{Arity: 3, MaxLHS: 2}))
	trainer := belief.New(space, stats.NewBeta(2, 3))
	learner := belief.New(space, stats.NewBeta(1, 1))
	history := make([][]belief.Labeling, rounds)
	for i := range history {
		history[i] = []belief.Labeling{{Pair: dataset.NewPair(0, i+1), Marked: fd.NewAttrSet(1)}}
	}
	snap, err := persist.NewSnapshot(schema, space, trainer, learner, history)
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

// TestWalAppendRecover is the round-trip property: everything Append
// acked before Close comes back from Open, in commit order, with the
// marks intact and nothing truncated.
func TestWalAppendRecover(t *testing.T) {
	dir := t.TempDir()
	l, rec, err := Open(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Deltas) != 0 || rec.TruncatedBytes != 0 {
		t.Fatalf("fresh directory recovered %+v, want empty", rec)
	}
	want := []*persist.RoundDelta{mkDelta("a", 0), mkDelta("a", 1), mkDelta("b", 0)}
	if err := l.Append(want[:2]); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(want[2:]); err != nil {
		t.Fatal(err)
	}
	if err := l.Mark("a", 1); err != nil {
		t.Fatal(err)
	}
	st := l.Stats()
	if st.Appended != 3 || st.Fsyncs == 0 {
		t.Fatalf("Stats = %+v, want 3 appended records over >0 fsyncs", st)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	_, rec, err = Open(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if rec.TruncatedBytes != 0 || rec.SegmentsDropped != 0 {
		t.Fatalf("clean close recovered %+v, want no truncation", rec)
	}
	if len(rec.Deltas) != len(want) {
		t.Fatalf("recovered %d deltas, want %d", len(rec.Deltas), len(want))
	}
	for i, d := range rec.Deltas {
		if d.Session != want[i].Session || d.Round != want[i].Round || d.Interaction.MAE != want[i].Interaction.MAE {
			t.Fatalf("delta %d = %+v, want %+v", i, d, want[i])
		}
	}
	if rec.Marks["a"] != 1 {
		t.Fatalf("Marks = %v, want a:1", rec.Marks)
	}
}

// TestWalTornTailTruncated models the crash this package exists for:
// garbage appended past the committed frames — a torn header, a torn
// payload, a frame whose checksum fails — must be truncated on Open,
// with every committed record surviving and no error surfaced.
func TestWalTornTailTruncated(t *testing.T) {
	for _, tear := range []struct {
		name string
		junk []byte
	}{
		{"short-header", []byte{0x10, 0x00}},
		{"bad-checksum", []byte{4, 0, 0, 0, 1, 2, 3, 4, 'j', 'u', 'n', 'k'}},
		{"oversize-length", []byte{0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0}},
	} {
		t.Run(tear.name, func(t *testing.T) {
			dir := t.TempDir()
			l, _, err := Open(dir, Config{})
			if err != nil {
				t.Fatal(err)
			}
			if err := l.Append([]*persist.RoundDelta{mkDelta("a", 0), mkDelta("a", 1)}); err != nil {
				t.Fatal(err)
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			// The active segment is the highest-numbered one; tear its tail.
			segs, err := filepath.Glob(filepath.Join(dir, "wal-*"+segExt))
			if err != nil || len(segs) == 0 {
				t.Fatalf("no segments (err %v)", err)
			}
			torn := segs[0] // Close leaves one sealed segment holding the records
			f, err := os.OpenFile(torn, os.O_APPEND|os.O_WRONLY, 0)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.Write(tear.junk); err != nil {
				t.Fatal(err)
			}
			f.Close()

			_, rec, err := Open(dir, Config{})
			if err != nil {
				t.Fatalf("Open after tear: %v", err)
			}
			if rec.TruncatedBytes != int64(len(tear.junk)) {
				t.Fatalf("TruncatedBytes = %d, want %d", rec.TruncatedBytes, len(tear.junk))
			}
			if len(rec.Deltas) != 2 {
				t.Fatalf("recovered %d deltas after tear, want 2", len(rec.Deltas))
			}
		})
	}
}

// TestWalCorruptRecordSurfaces distinguishes a tear from corruption: a
// frame whose checksum holds but whose payload no writer of this
// package could have produced is ErrCorrupt, not a silent truncation.
func TestWalCorruptRecordSurfaces(t *testing.T) {
	recs, tail, err := decodeSegment(appendFrame(nil, []byte(`{"kind":"martian"}`)))
	if !errors.Is(err, persist.ErrCorrupt) {
		t.Fatalf("decodeSegment(checksummed junk) = (%d recs, tail %d, %v), want ErrCorrupt", len(recs), tail, err)
	}
}

// TestWalRotateAndCompact checks the retention story: segments seal
// once they reach MaxSegmentBytes, and Compact drops exactly the sealed
// segments whose every recorded round sits below its session's
// snapshot watermark.
func TestWalRotateAndCompact(t *testing.T) {
	dir := t.TempDir()
	// Every round frame is over 100 bytes and a mark frame under 100, so
	// each round append seals the segment before it, and so does the
	// first mark after a round; a mark after a mark does not.
	l, _, err := Open(dir, Config{MaxSegmentBytes: 100})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	segments := func(want int) {
		t.Helper()
		if got := l.Stats().Segments; got != want {
			t.Fatalf("Segments = %d, want %d", got, want)
		}
	}
	if err := l.Append([]*persist.RoundDelta{mkDelta("a", 0), mkDelta("b", 0)}); err != nil {
		t.Fatal(err)
	}
	if err := l.Append([]*persist.RoundDelta{mkDelta("a", 1)}); err != nil {
		t.Fatal(err)
	}
	segments(2) // [a0 b0] sealed, [a1] active

	// Only session a is folded: the first segment still carries b's
	// round, so it must survive.
	if err := l.Mark("a", 2); err != nil {
		t.Fatal(err)
	}
	segments(3) // [a1] sealed too, the mark active
	dropped, err := l.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if dropped != 1 {
		t.Fatalf("Compact dropped %d segments with b unfolded, want 1 (a's solo segment)", dropped)
	}
	if err := l.Mark("b", 1); err != nil {
		t.Fatal(err)
	}
	segments(2) // both marks share the active segment
	if dropped, err = l.Compact(); err != nil || dropped != 1 {
		t.Fatalf("Compact after folding b dropped %d (err %v), want the remaining sealed segment", dropped, err)
	}
	// The dropped rounds stay gone across a reopen — compaction is
	// durable — while b's watermark survives via its mark record.
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	_, rec, err := Open(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Deltas) != 0 {
		t.Fatalf("recovered %d deltas after full compaction, want 0", len(rec.Deltas))
	}
	if rec.Marks["a"] != 2 || rec.Marks["b"] != 1 {
		t.Fatalf("Marks after compaction = %v, want a:2 b:1", rec.Marks)
	}
}

// TestWalCompactKeepsNewestMark: a sealed segment holding only a
// session's mark must outlive the older kept segment that still holds
// that session's folded rounds. Dropping it lost the mark, and the
// reopen replayed the folded rounds into the tail.
func TestWalCompactKeepsNewestMark(t *testing.T) {
	dir := t.TempDir()
	// Every commit seals the segment before it.
	l, _, err := Open(dir, Config{MaxSegmentBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.Append([]*persist.RoundDelta{mkDelta("a", 0), mkDelta("b", 0)}); err != nil {
		t.Fatal(err)
	}
	if err := l.Append([]*persist.RoundDelta{mkDelta("a", 1)}); err != nil {
		t.Fatal(err)
	}
	if err := l.Mark("a", 2); err != nil {
		t.Fatal(err)
	}
	if err := l.Append([]*persist.RoundDelta{mkDelta("c", 0)}); err != nil {
		t.Fatal(err)
	}
	// Sealed: [a0 b0] (kept for b), [a1] (dead), [mark a]; active: [c0].
	dropped, err := l.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if dropped != 1 {
		t.Fatalf("Compact dropped %d segments, want 1 (a's folded solo segment)", dropped)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	s, rec, err := OpenStore(persist.NewMemStore(), dir, StoreConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if rec.Marks["a"] != 2 {
		t.Fatalf("Marks after reopen = %v, want a:2", rec.Marks)
	}
	// Only b0 and c0 await folding; a's rounds are below its mark.
	if st, _ := s.WalStats(); st.CompactionLag != 2 {
		t.Fatalf("CompactionLag after reopen = %d, want 2 (b0, c0)", st.CompactionLag)
	}
}

// TestWalSegmentRotationBySize checks the automatic rotation bound:
// appends past MaxSegmentBytes roll the active segment so no single
// file grows without bound.
func TestWalSegmentRotationBySize(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Config{MaxSegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		if err := l.Append([]*persist.RoundDelta{mkDelta("a", i)}); err != nil {
			t.Fatal(err)
		}
	}
	if st := l.Stats(); st.Segments < 3 {
		t.Fatalf("Segments = %d after 16 appends over a 256-byte bound, want rotation", st.Segments)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	_, rec, err := Open(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Deltas) != 16 {
		t.Fatalf("recovered %d deltas across rotated segments, want 16", len(rec.Deltas))
	}
}

// TestWalCloseRejectsAppends pins the Close contract: queued appends
// flush, later ones fail with ErrClosed, and Close is idempotent.
func TestWalCloseRejectsAppends(t *testing.T) {
	l, _, err := Open(t.TempDir(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append([]*persist.RoundDelta{mkDelta("a", 0)}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Append([]*persist.RoundDelta{mkDelta("a", 1)}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Append after Close = %v, want ErrClosed", err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestFaultGroupCommitFairness is the group-commit fairness property
// (run under -race by make chaos): with many sessions appending
// concurrently and one session committing a giant round, every batch
// stays within MaxBatchBytes — the giant record commits alone, small
// records never ride an unbounded pile-up — so no session's ack waits
// behind more than one bounded batch. The crash hook doubles as a
// passive batch observer and a slow disk (returning nil injects
// nothing).
func TestFaultGroupCommitFairness(t *testing.T) {
	const maxBatch = 4 << 10
	dir := t.TempDir()
	l, _, err := Open(dir, Config{MaxBatchBytes: maxBatch})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	// Record every batch's byte span between the write and sync steps,
	// and hold each fsync 200µs so appends pile up behind it the way
	// they do behind a slow disk.
	var (
		obsMu   sync.Mutex
		batches []int64
		preSize int64
	)
	l.SetCrashHook(func(step AppendStep, _ string, _, size int64) error {
		obsMu.Lock()
		switch step {
		case StepAppendWrite:
			preSize = size
		case StepAppendSync:
			batches = append(batches, size-preSize)
		}
		obsMu.Unlock()
		if step == StepAppendSync {
			time.Sleep(200 * time.Microsecond)
		}
		return nil
	})

	// The giant round: one delta that alone exceeds the batch bound.
	giant := mkDelta("giant", 0)
	big := make([]belief.Labeling, 0, 512)
	for i := 0; i < 512; i++ {
		big = append(big, belief.Labeling{Pair: dataset.NewPair(i, i+1), Marked: fd.NewAttrSet(1)})
	}
	giant.Interaction = persist.FromRound(persist.Round{Labeled: big})

	const workers, perWorker = 8, 24
	var wg sync.WaitGroup
	errCh := make(chan error, workers+1)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sess := fmt.Sprintf("s%d", w)
			for r := 0; r < perWorker; r++ {
				if err := l.Append([]*persist.RoundDelta{mkDelta(sess, r)}); err != nil {
					errCh <- fmt.Errorf("worker %d round %d: %w", w, r, err)
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := l.Append([]*persist.RoundDelta{giant}); err != nil {
			errCh <- fmt.Errorf("giant append: %w", err)
		}
	}()
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}

	obsMu.Lock()
	defer obsMu.Unlock()
	giantFrame := int64(len(appendFrameForTest(giant, t)))
	if giantFrame <= maxBatch {
		t.Fatalf("fixture giant record is %d bytes, must exceed the %d-byte batch bound", giantFrame, maxBatch)
	}
	oversize := 0
	for i, b := range batches {
		if b > maxBatch {
			// Only the giant record may exceed the bound, and it must have
			// committed alone: the batch is exactly its frame.
			if b != giantFrame {
				t.Fatalf("batch %d is %d bytes: exceeds the %d bound and is not the solo giant frame (%d)", i, b, maxBatch, giantFrame)
			}
			oversize++
		}
	}
	if oversize != 1 {
		t.Fatalf("%d oversize batches, want exactly the giant's solo commit", oversize)
	}
	if len(batches) < 2 {
		t.Fatalf("%d batches for %d records: the bound never split a commit", len(batches), workers*perWorker+1)
	}
	st := l.Stats()
	if st.Appended != uint64(workers*perWorker+1) {
		t.Fatalf("Appended = %d, want %d", st.Appended, workers*perWorker+1)
	}
}

// appendFrameForTest renders one delta as its framed wire bytes.
func appendFrameForTest(d *persist.RoundDelta, t *testing.T) []byte {
	t.Helper()
	payload, err := json.Marshal(record{Kind: "round", Delta: d})
	if err != nil {
		t.Fatal(err)
	}
	return appendFrame(nil, payload)
}

// TestWalStoreFoldsCommittedTail checks the store's snapshot + replay
// read path: Get folds appended rounds over the inner snapshot, and a
// Put prunes the folded prefix so it is not replayed twice.
func TestWalStoreFoldsCommittedTail(t *testing.T) {
	ctx := context.Background()
	inner := persist.NewMemStore()
	s, _, err := OpenStore(inner, t.TempDir(), StoreConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	base := testSnap(t, 1)
	if err := s.Put(ctx, "s", base); err != nil {
		t.Fatal(err)
	}
	deltas := []*persist.RoundDelta{mkDelta("s", 1), mkDelta("s", 2)}
	if err := s.AppendRounds(ctx, deltas); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get(ctx, "s")
	if err != nil {
		t.Fatal(err)
	}
	if len(got.History) != 3 {
		t.Fatalf("Get folded %d rounds, want 3 (1 snapshot + 2 appended)", len(got.History))
	}
	if got.History[2].MAE != deltas[1].Interaction.MAE {
		t.Fatalf("folded round 2 MAE = %v, want %v", got.History[2].MAE, deltas[1].Interaction.MAE)
	}
	// The inner store still holds only the base snapshot: appends did
	// not pay a snapshot rewrite.
	innerSnap, err := inner.Get(ctx, "s")
	if err != nil {
		t.Fatal(err)
	}
	if len(innerSnap.History) != 1 {
		t.Fatalf("inner snapshot has %d rounds, want 1 — an append rewrote it", len(innerSnap.History))
	}

	// A full snapshot supersedes the tail; Get must not double-apply.
	if err := s.Put(ctx, "s", got); err != nil {
		t.Fatal(err)
	}
	again, err := s.Get(ctx, "s")
	if err != nil {
		t.Fatal(err)
	}
	if len(again.History) != 3 {
		t.Fatalf("Get after snapshot = %d rounds, want 3", len(again.History))
	}
	if st, ok := s.WalStats(); !ok || st.CompactionLag != 0 {
		t.Fatalf("WalStats after snapshot = %+v, want zero compaction lag", st)
	}
}

// TestWalStoreReopenReplays is the store-level recovery property: a
// store reopened over the same directory and inner snapshots serves
// exactly the pre-crash state, with the committed tail replayed.
func TestWalStoreReopenReplays(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	inner := persist.NewMemStore() // survives in-process "restarts"
	s, _, err := OpenStore(inner, dir, StoreConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(ctx, "s", testSnap(t, 1)); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendRounds(ctx, []*persist.RoundDelta{mkDelta("s", 1), mkDelta("s", 2)}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, rec, err := OpenStore(inner, dir, StoreConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if len(rec.Deltas) != 2 {
		t.Fatalf("recovered %d deltas, want 2", len(rec.Deltas))
	}
	got, err := s2.Get(ctx, "s")
	if err != nil {
		t.Fatal(err)
	}
	if len(got.History) != 3 {
		t.Fatalf("recovered session has %d rounds, want 3", len(got.History))
	}

	// Scan folds the tail into the inner store (the WAL-aware recovery
	// scan), after which the snapshot alone carries every round.
	if _, err := s2.Scan(ctx); err != nil {
		t.Fatal(err)
	}
	innerSnap, err := inner.Get(ctx, "s")
	if err != nil {
		t.Fatal(err)
	}
	if len(innerSnap.History) != 3 {
		t.Fatalf("inner snapshot after Scan has %d rounds, want 3", len(innerSnap.History))
	}
}

// TestWalStoreDeleteRetiresRounds checks that Delete survives replay: a
// deleted session's logged rounds must not resurrect it on reopen.
func TestWalStoreDeleteRetiresRounds(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	inner := persist.NewMemStore()
	s, _, err := OpenStore(inner, dir, StoreConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(ctx, "s", testSnap(t, 1)); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendRounds(ctx, []*persist.RoundDelta{mkDelta("s", 1)}); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete(ctx, "s"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(ctx, "s"); !errors.Is(err, persist.ErrNotFound) {
		t.Fatalf("Get after Delete = %v, want ErrNotFound", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, _, err := OpenStore(inner, dir, StoreConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if _, err := s2.Get(ctx, "s"); !errors.Is(err, persist.ErrNotFound) {
		t.Fatalf("Get after Delete and reopen = %v, want ErrNotFound", err)
	}
}

// TestWalStoreFoldsInAppend checks the fold: the append that fills a
// session's committed tail to CompactEvery folds it into a fresh inner
// snapshot before it returns, and the log drops the retired segments.
func TestWalStoreFoldsInAppend(t *testing.T) {
	ctx := context.Background()
	inner := persist.NewMemStore()
	s, _, err := OpenStore(inner, t.TempDir(), StoreConfig{
		CompactEvery: 4,
		Wal:          Config{MaxSegmentBytes: 512},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Put(ctx, "s", testSnap(t, 1)); err != nil {
		t.Fatal(err)
	}
	sealed := false
	for r := 1; r <= 12; r++ {
		if err := s.AppendRounds(ctx, []*persist.RoundDelta{mkDelta("s", r)}); err != nil {
			t.Fatal(err)
		}
		snap, err := inner.Get(ctx, "s")
		if err != nil {
			t.Fatal(err)
		}
		st, _ := s.WalStats()
		// Rounds 4, 8 and 12 fill the tail: each of those appends folds
		// it, and fold + tail account for every round (1 genesis + r).
		if want := 1 + r - r%4; len(snap.History) != want || st.CompactionLag != r%4 {
			t.Fatalf("after round %d: inner history %d, lag %d; want %d and %d",
				r, len(snap.History), st.CompactionLag, want, r%4)
		}
		// A fold retires every sealed segment: each holds folded rounds
		// and marks only.
		if r%4 == 0 && st.Segments != 1 {
			t.Fatalf("after the fold at round %d: Segments = %d, want the active one only", r, st.Segments)
		}
		sealed = sealed || st.Segments > 1
	}
	if !sealed {
		t.Fatal("no segment sealed between folds; the test checks no drop")
	}
}

// heldPutStore is an inner MemStore whose first Put of a snapshot with
// rounds rounds waits until hold fires: it closes arrived on getting
// there and landed once that Put returned.
type heldPutStore struct {
	*persist.MemStore
	rounds  int
	hold    <-chan time.Time
	held    atomic.Bool
	arrived chan struct{}
	landed  chan struct{}
}

func (h *heldPutStore) Put(ctx context.Context, id string, snap *persist.Snapshot) error {
	if len(snap.History) == h.rounds && h.held.CompareAndSwap(false, true) {
		close(h.arrived)
		<-h.hold
		defer close(h.landed)
	}
	return h.MemStore.Put(ctx, id, snap)
}

// TestWalStoreFoldLandsBeforeCheckpoint: the fold's snapshot Put
// finishes inside the append that filled the tail, so it can never
// land over a later checkpoint. Were the fold to run after the append
// returned, a slow inner Put of the 4-round fold would overwrite the
// 5-round snapshot a park checkpointed meanwhile, and the checkpoint's
// prune would already have dropped round 4 from the tail.
func TestWalStoreFoldLandsBeforeCheckpoint(t *testing.T) {
	ctx := context.Background()
	inner := &heldPutStore{
		MemStore: persist.NewMemStore(),
		rounds:   4,
		hold:     time.NewTimer(200 * time.Millisecond).C,
		arrived:  make(chan struct{}),
		landed:   make(chan struct{}),
	}
	s, _, err := OpenStore(inner, t.TempDir(), StoreConfig{CompactEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Put(ctx, "s", testSnap(t, 0)); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 4; r++ {
		if err := s.AppendRounds(ctx, []*persist.RoundDelta{mkDelta("s", r)}); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case <-inner.arrived:
	case <-time.After(time.Second):
		t.Fatal("the fold's Put never reached the inner store")
	}
	if err := s.AppendRounds(ctx, []*persist.RoundDelta{mkDelta("s", 4)}); err != nil {
		t.Fatal(err)
	}
	park, err := s.Get(ctx, "s")
	if err != nil {
		t.Fatal(err)
	}
	if len(park.History) != 5 {
		t.Fatalf("Get before the checkpoint read %d rounds, want 5", len(park.History))
	}
	if err := s.Put(ctx, "s", park); err != nil {
		t.Fatal(err)
	}
	select {
	case <-inner.landed:
	case <-time.After(time.Second):
		t.Fatal("the fold's held Put never returned")
	}
	got, err := s.Get(ctx, "s")
	if err != nil {
		t.Fatal(err)
	}
	if len(got.History) != 5 {
		t.Fatalf("Get after the checkpoint read %d rounds, want 5", len(got.History))
	}
}
