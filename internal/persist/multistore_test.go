package persist

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// twoSnapshots builds an "old" and a strictly fresher "new" snapshot of
// the same session (new has one more recorded round), plus their exact
// encodings for old-or-new byte comparisons.
func twoSnapshots(t *testing.T) (oldSnap, newSnap *Snapshot, oldBytes, newBytes string) {
	t.Helper()
	schema, space, trainer, learner, history := fixture(t)
	var err error
	if oldSnap, err = NewSnapshot(schema, space, trainer, learner, history[:1]); err != nil {
		t.Fatal(err)
	}
	if newSnap, err = NewSnapshot(schema, space, trainer, learner, history); err != nil {
		t.Fatal(err)
	}
	return oldSnap, newSnap, encode(t, oldSnap), encode(t, newSnap)
}

func encode(t *testing.T, snap *Snapshot) string {
	t.Helper()
	var sb strings.Builder
	if err := snap.Write(&sb); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// brokenStore fails every operation with a transient error.
type brokenStore struct{ err error }

func (b brokenStore) Put(context.Context, string, *Snapshot) error   { return b.err }
func (b brokenStore) Get(context.Context, string) (*Snapshot, error) { return nil, b.err }
func (b brokenStore) Delete(context.Context, string) error           { return b.err }
func (b brokenStore) List(context.Context) ([]string, error)         { return nil, b.err }

func newTestMulti(t *testing.T, n, w int) (*MultiStore, []*MemStore) {
	t.Helper()
	mems := make([]*MemStore, n)
	replicas := make([]Store, n)
	for i := range mems {
		mems[i] = NewMemStore()
		replicas[i] = mems[i]
	}
	ms, err := NewMultiStore(replicas, w)
	if err != nil {
		t.Fatal(err)
	}
	return ms, mems
}

func TestMultiStoreConstruction(t *testing.T) {
	if _, err := NewMultiStore(nil, 0); err == nil {
		t.Fatal("zero replicas should be rejected")
	}
	if _, err := NewMultiStore([]Store{NewMemStore()}, 2); err == nil {
		t.Fatal("quorum above replica count should be rejected")
	}
	if _, err := NewMultiStore([]Store{NewMemStore()}, -1); err == nil {
		t.Fatal("negative quorum should be rejected")
	}
	ms, _ := newTestMulti(t, 5, 0)
	if got := ms.WriteQuorum(); got != 3 {
		t.Fatalf("majority quorum over 5 = %d, want 3", got)
	}
	if got := ms.Replicas(); got != 5 {
		t.Fatalf("Replicas() = %d, want 5", got)
	}
}

func TestMultiStoreRoundTripAllReplicas(t *testing.T) {
	ctx := context.Background()
	ms, mems := newTestMulti(t, 3, 0)
	_, newSnap, _, newBytes := twoSnapshots(t)

	if err := ms.Put(ctx, "sess-1", newSnap); err != nil {
		t.Fatal(err)
	}
	for i, mem := range mems {
		got, err := mem.Get(ctx, "sess-1")
		if err != nil {
			t.Fatalf("replica %d missing the write: %v", i, err)
		}
		if encode(t, got) != newBytes {
			t.Fatalf("replica %d holds different bytes", i)
		}
	}
	back, err := ms.Get(ctx, "sess-1")
	if err != nil {
		t.Fatal(err)
	}
	if encode(t, back) != newBytes {
		t.Fatal("multistore Get returned different bytes")
	}

	ids, err := ms.List(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 1 || ids[0] != "sess-1" {
		t.Fatalf("List = %v", ids)
	}

	if err := ms.Delete(ctx, "sess-1"); err != nil {
		t.Fatal(err)
	}
	if _, err := ms.Get(ctx, "sess-1"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get after Delete = %v, want ErrNotFound", err)
	}
	if err := ms.Delete(ctx, "sess-1"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("second Delete = %v, want ErrNotFound", err)
	}
}

func TestMultiStorePutToleratesMinorityFailure(t *testing.T) {
	ctx := context.Background()
	boom := errors.New("disk on fire")
	mems := []*MemStore{NewMemStore(), NewMemStore()}
	ms, err := NewMultiStore([]Store{mems[0], brokenStore{boom}, mems[1]}, 0)
	if err != nil {
		t.Fatal(err)
	}
	_, newSnap, _, newBytes := twoSnapshots(t)
	if err := ms.Put(ctx, "sess-1", newSnap); err != nil {
		t.Fatalf("put with one dead replica: %v", err)
	}
	for i, mem := range mems {
		if got, err := mem.Get(ctx, "sess-1"); err != nil || encode(t, got) != newBytes {
			t.Fatalf("healthy replica %d: %v", i, err)
		}
	}
	// Reads also survive the dead replica.
	if got, err := ms.Get(ctx, "sess-1"); err != nil || encode(t, got) != newBytes {
		t.Fatalf("get with one dead replica: %v", err)
	}
	stats := ms.Stats()
	if stats[1].Failures == 0 || stats[1].LastErr == "" {
		t.Fatalf("dead replica's failures not counted: %+v", stats[1])
	}
}

func TestMultiStorePutFailsBelowQuorum(t *testing.T) {
	ctx := context.Background()
	boom := errors.New("disk on fire")
	ms, err := NewMultiStore([]Store{NewMemStore(), brokenStore{boom}, brokenStore{boom}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	_, newSnap, _, _ := twoSnapshots(t)
	if err := ms.Put(ctx, "sess-1", newSnap); !errors.Is(err, boom) {
		t.Fatalf("put below quorum = %v, want the replica error", err)
	}
}

// gatedStore is a MemStore replica that fails every operation while
// failing is set and, when hold is non-nil, keeps its first Put waiting
// until hold fires, closing landed once that Put returned.
type gatedStore struct {
	mem     *MemStore
	failing atomic.Bool
	hold    <-chan time.Time
	puts    atomic.Int64
	landed  chan struct{}
}

var errGated = errors.New("replica down")

func (g *gatedStore) Put(ctx context.Context, id string, snap *Snapshot) error {
	if g.failing.Load() {
		return errGated
	}
	if g.puts.Add(1) == 1 && g.hold != nil {
		<-g.hold
		defer close(g.landed)
	}
	return g.mem.Put(ctx, id, snap)
}

func (g *gatedStore) Get(ctx context.Context, id string) (*Snapshot, error) {
	if g.failing.Load() {
		return nil, errGated
	}
	return g.mem.Get(ctx, id)
}

func (g *gatedStore) Delete(ctx context.Context, id string) error {
	if g.failing.Load() {
		return errGated
	}
	return g.mem.Delete(ctx, id)
}

func (g *gatedStore) List(ctx context.Context) ([]string, error) {
	if g.failing.Load() {
		return nil, errGated
	}
	return g.mem.List(ctx)
}

// TestMultiStorePutWaitsForEveryReplica: a slow replica's write
// finishes inside the Put that issued it, so it can never land over a
// newer committed write. Were the Put to return at its quorum and leave
// replica 2's first write straggling, that write would overwrite the
// second Put's snapshot there, and once replica 0 died a read quorum of
// replicas 1 and 2 would hand back the first Put's round only.
func TestMultiStorePutWaitsForEveryReplica(t *testing.T) {
	ctx := context.Background()
	oldSnap, newSnap, _, _ := twoSnapshots(t)
	reps := make([]*gatedStore, 3)
	stores := make([]Store, 3)
	for i := range reps {
		reps[i] = &gatedStore{mem: NewMemStore()}
		stores[i] = reps[i]
	}
	reps[2].hold = time.NewTimer(200 * time.Millisecond).C
	reps[2].landed = make(chan struct{})
	ms, err := NewMultiStore(stores, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := ms.Put(ctx, "sess-1", oldSnap); err != nil {
		t.Fatal(err)
	}
	reps[1].failing.Store(true)
	if err := ms.Put(ctx, "sess-1", newSnap); err != nil {
		t.Fatalf("put with replica 1 down: %v", err)
	}
	reps[1].failing.Store(false)
	select {
	case <-reps[2].landed:
	case <-time.After(time.Second):
		t.Fatal("replica 2's held Put never returned")
	}
	reps[0].failing.Store(true)
	got, err := ms.Get(ctx, "sess-1")
	if err != nil {
		t.Fatal(err)
	}
	if want := len(newSnap.History); len(got.History) != want {
		t.Fatalf("Get read %d round(s), want the committed %d", len(got.History), want)
	}
}

func TestMultiStoreReadRepairStaleAndMissing(t *testing.T) {
	ctx := context.Background()
	ms, mems := newTestMulti(t, 3, 0)
	oldSnap, newSnap, _, newBytes := twoSnapshots(t)

	// Replica 0 is stale, replica 1 fresh, replica 2 empty.
	if err := mems[0].Put(ctx, "sess-1", oldSnap); err != nil {
		t.Fatal(err)
	}
	if err := mems[1].Put(ctx, "sess-1", newSnap); err != nil {
		t.Fatal(err)
	}
	got, err := ms.Get(ctx, "sess-1")
	if err != nil {
		t.Fatal(err)
	}
	if encode(t, got) != newBytes {
		t.Fatal("Get did not resolve to the freshest replica")
	}
	for i, mem := range mems {
		healed, err := mem.Get(ctx, "sess-1")
		if err != nil {
			t.Fatalf("replica %d not repaired: %v", i, err)
		}
		if encode(t, healed) != newBytes {
			t.Fatalf("replica %d repaired to wrong bytes", i)
		}
	}
	stats := ms.Stats()
	if got := stats[0].Repairs + stats[1].Repairs + stats[2].Repairs; got != 2 {
		t.Fatalf("total repairs = %d, want 2 (stale + missing)", got)
	}
}

func TestMultiStoreGetErrorClassification(t *testing.T) {
	ctx := context.Background()
	_, newSnap, _, _ := twoSnapshots(t)

	t.Run("all absent is not-found", func(t *testing.T) {
		ms, _ := newTestMulti(t, 3, 0)
		if _, err := ms.Get(ctx, "sess-1"); !errors.Is(err, ErrNotFound) {
			t.Fatalf("got %v, want ErrNotFound", err)
		}
	})
	t.Run("a read quorum of not-founds is not-found", func(t *testing.T) {
		// W=2 of 3: two authoritative absences intersect any committed
		// write, so the third replica being down cannot hide a snapshot.
		boom := errors.New("disk on fire")
		ms, err := NewMultiStore([]Store{NewMemStore(), brokenStore{boom}, NewMemStore()}, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ms.Get(ctx, "sess-1"); !errors.Is(err, ErrNotFound) {
			t.Fatalf("got %v, want ErrNotFound (2 of 3 answered)", err)
		}
	})
	t.Run("below the read quorum transient failure dominates", func(t *testing.T) {
		// W=2 of 3 needs 2 answers: with only one replica reachable, a
		// committed write may be hiding entirely on the broken ones, so
		// Get must fail transiently even though the one answer is a
		// perfectly intact snapshot — returning it could be stale.
		boom := errors.New("disk on fire")
		mem := NewMemStore()
		if err := mem.Put(ctx, "sess-1", newSnap); err != nil {
			t.Fatal(err)
		}
		ms, err := NewMultiStore([]Store{mem, brokenStore{boom}, brokenStore{boom}}, 0)
		if err != nil {
			t.Fatal(err)
		}
		_, err = ms.Get(ctx, "sess-1")
		if err == nil || errors.Is(err, ErrNotFound) {
			t.Fatalf("got %v, want a transient quorum failure", err)
		}
		if !errors.Is(err, boom) {
			t.Fatalf("got %v, want the replica error", err)
		}
	})
	t.Run("corrupt everywhere is corrupt", func(t *testing.T) {
		dirs := make([]Store, 2)
		for i := range dirs {
			dir, err := NewDirStore(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if err := dir.Put(ctx, "sess-1", newSnap); err != nil {
				t.Fatal(err)
			}
			corruptReplicaFile(t, dir, "sess-1")
			dirs[i] = dir
		}
		ms, err := NewMultiStore(dirs, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ms.Get(ctx, "sess-1"); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("got %v, want ErrCorrupt", err)
		}
	})
	t.Run("one intact replica outvotes corruption", func(t *testing.T) {
		dir, err := NewDirStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		if err := dir.Put(ctx, "sess-1", newSnap); err != nil {
			t.Fatal(err)
		}
		corruptReplicaFile(t, dir, "sess-1")
		mem := NewMemStore()
		if err := mem.Put(ctx, "sess-1", newSnap); err != nil {
			t.Fatal(err)
		}
		ms, err := NewMultiStore([]Store{dir, mem}, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ms.Get(ctx, "sess-1"); err != nil {
			t.Fatalf("intact replica should win: %v", err)
		}
		// The corrupt replica was repaired in place.
		if _, err := dir.Get(ctx, "sess-1"); err != nil {
			t.Fatalf("corrupt replica not repaired: %v", err)
		}
	})
}

// corruptReplicaFile flips bytes in the middle of a stored snapshot so
// its checksum fails.
func corruptReplicaFile(t *testing.T, dir *DirStore, id string) {
	t.Helper()
	path := filepath.Join(dir.Dir(), id+".snapshot.json")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	copy(data[len(data)/2:], "XXXXXXXX")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestMultiStoreDeleteStaysStrict(t *testing.T) {
	ctx := context.Background()
	boom := errors.New("disk on fire")
	mem := NewMemStore()
	ms, err := NewMultiStore([]Store{mem, brokenStore{boom}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	_, newSnap, _, _ := twoSnapshots(t)
	if err := mem.Put(ctx, "sess-1", newSnap); err != nil {
		t.Fatal(err)
	}
	// A delete that cannot reach every replica must fail: the surviving
	// copy would otherwise resurrect via read-repair.
	if err := ms.Delete(ctx, "sess-1"); !errors.Is(err, boom) {
		t.Fatalf("delete with unreachable replica = %v, want failure", err)
	}
}

func TestMultiStoreScanReconciles(t *testing.T) {
	ctx := context.Background()
	dirs := make([]*DirStore, 3)
	replicas := make([]Store, 3)
	for i := range dirs {
		dir, err := NewDirStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		dirs[i] = dir
		replicas[i] = dir
	}
	ms, err := NewMultiStore(replicas, 0)
	if err != nil {
		t.Fatal(err)
	}
	oldSnap, newSnap, _, newBytes := twoSnapshots(t)

	// a: fresh on 0 and 1, stale on 2. b: only on replica 1, torn on 0.
	for _, d := range dirs[:2] {
		if err := d.Put(ctx, "sess-a", newSnap); err != nil {
			t.Fatal(err)
		}
	}
	if err := dirs[2].Put(ctx, "sess-a", oldSnap); err != nil {
		t.Fatal(err)
	}
	if err := dirs[1].Put(ctx, "sess-b", newSnap); err != nil {
		t.Fatal(err)
	}
	if err := dirs[0].Put(ctx, "sess-b", newSnap); err != nil {
		t.Fatal(err)
	}
	corruptReplicaFile(t, dirs[0], "sess-b")

	res, err := ms.Scan(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"sess-a", "sess-b"}; fmt.Sprint(res.OK) != fmt.Sprint(want) {
		t.Fatalf("OK = %v, want %v", res.OK, want)
	}
	if fmt.Sprint(res.Repaired) != fmt.Sprint([]string{"sess-a", "sess-b"}) {
		t.Fatalf("Repaired = %v", res.Repaired)
	}
	if len(res.Failed) != 0 {
		t.Fatalf("Failed = %v", res.Failed)
	}
	if res.ReplicaScans[0] == nil || len(res.ReplicaScans[0].Quarantined) != 1 {
		t.Fatalf("replica 0 scan should quarantine sess-b: %+v", res.ReplicaScans[0])
	}
	// Every replica converged onto the freshest copy of both ids.
	for i, d := range dirs {
		for _, id := range []string{"sess-a", "sess-b"} {
			got, err := d.Get(ctx, id)
			if err != nil {
				t.Fatalf("replica %d %s after scan: %v", i, id, err)
			}
			if encode(t, got) != newBytes {
				t.Fatalf("replica %d %s not converged", i, id)
			}
		}
	}
}

// Dir returns the backing directory.
func (s *DirStore) Dir() string { return s.dir }
