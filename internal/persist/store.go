package persist

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// ErrNotFound is the sentinel wrapped by Store implementations when a
// snapshot id has nothing stored under it; test with errors.Is.
var ErrNotFound = errors.New("persist: snapshot not found")

// ErrBadID is the sentinel wrapped when a snapshot id is empty or
// contains characters outside [A-Za-z0-9._-]. Restricting the alphabet
// keeps ids usable verbatim as file names and URL path segments.
var ErrBadID = errors.New("persist: invalid snapshot id")

// Store is a keyed snapshot repository — the durability boundary of
// the session service. Implementations must be safe for concurrent use
// and must copy on Put/Get so callers cannot alias stored state.
type Store interface {
	// Put saves the snapshot under id, replacing any previous value.
	Put(ctx context.Context, id string, snap *Snapshot) error
	// Get loads the snapshot stored under id (ErrNotFound if absent).
	Get(ctx context.Context, id string) (*Snapshot, error)
	// Delete removes the snapshot under id (ErrNotFound if absent).
	Delete(ctx context.Context, id string) error
	// List returns the stored ids in lexicographic order.
	List(ctx context.Context) ([]string, error)
}

// ValidateID checks a snapshot id against the store alphabet.
func ValidateID(id string) error {
	if id == "" {
		return fmt.Errorf("%w: empty", ErrBadID)
	}
	for _, r := range id {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
		case r == '.' || r == '_' || r == '-':
		default:
			return fmt.Errorf("%w: %q contains %q", ErrBadID, id, r)
		}
	}
	if id == "." || id == ".." {
		return fmt.Errorf("%w: %q", ErrBadID, id)
	}
	return nil
}

// MemStore is an in-memory Store. Snapshots are held in encoded form so
// stored state never aliases live session state.
type MemStore struct {
	mu sync.RWMutex
	m  map[string][]byte
}

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore {
	return &MemStore{m: make(map[string][]byte)}
}

// Put implements Store.
func (s *MemStore) Put(ctx context.Context, id string, snap *Snapshot) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if err := ValidateID(id); err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := snap.Write(&buf); err != nil {
		return err
	}
	s.mu.Lock()
	s.m[id] = buf.Bytes()
	s.mu.Unlock()
	return nil
}

// Get implements Store.
func (s *MemStore) Get(ctx context.Context, id string) (*Snapshot, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s.mu.RLock()
	b, ok := s.m[id]
	s.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	return Read(bytes.NewReader(b))
}

// Delete implements Store.
func (s *MemStore) Delete(ctx context.Context, id string) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.m[id]; !ok {
		return fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	delete(s.m, id)
	return nil
}

// List implements Store.
func (s *MemStore) List(ctx context.Context) ([]string, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s.mu.RLock()
	ids := make([]string, 0, len(s.m))
	for id := range s.m {
		ids = append(ids, id)
	}
	s.mu.RUnlock()
	sort.Strings(ids)
	return ids, nil
}

// snapExt is the file suffix DirStore uses, so unrelated files in the
// directory are ignored.
const snapExt = ".snapshot.json"

// corruptExt is the suffix Scan quarantines unreadable snapshots under:
// "<id>.corrupt". Quarantined files are invisible to Get/List but the
// bytes stay on disk for forensics.
const corruptExt = ".corrupt"

// PutStep identifies one step of DirStore.Put's commit protocol, in
// execution order. The crash hook (SetCrashHook) observes each step
// before it runs, so a fault injector can simulate the process dying at
// any point of the protocol.
type PutStep int

const (
	// StepWriteTemp writes the snapshot bytes into the temp file.
	StepWriteTemp PutStep = iota + 1
	// StepSyncTemp fsyncs the temp file, making its bytes durable.
	StepSyncTemp
	// StepCloseTemp closes the temp file.
	StepCloseTemp
	// StepRename atomically renames the temp file over the live name —
	// the commit point.
	StepRename
	// StepSyncDir fsyncs the parent directory, making the rename itself
	// durable.
	StepSyncDir
)

// String renders the step for logs and test failure messages.
func (s PutStep) String() string {
	switch s {
	case StepWriteTemp:
		return "write-temp"
	case StepSyncTemp:
		return "sync-temp"
	case StepCloseTemp:
		return "close-temp"
	case StepRename:
		return "rename"
	case StepSyncDir:
		return "sync-dir"
	default:
		return fmt.Sprintf("PutStep(%d)", int(s))
	}
}

// PutSteps lists the commit protocol in execution order, for
// crash-point sweeps that must cover every step.
func PutSteps() []PutStep {
	return []PutStep{StepWriteTemp, StepSyncTemp, StepCloseTemp, StepRename, StepSyncDir}
}

// CrashHook observes DirStore.Put's commit protocol. It is called with
// each upcoming step and the temp file's path; returning a non-nil
// error aborts Put at that point, leaving exactly the on-disk state a
// crash there would leave (completed steps persist, the temp file is
// not cleaned up). It exists for fault injection — see persist/faulty.
type CrashHook func(step PutStep, tmpPath string) error

// DirStore is a directory-backed Store: one "<id>.snapshot.json" file
// per snapshot, written atomically (temp file + fsync + rename + parent
// directory fsync) so a crashed writer never leaves a torn snapshot
// under a live id and a completed Put survives power loss.
type DirStore struct {
	dir string
	// mu serializes same-process writers; cross-process safety comes
	// from the atomic rename.
	mu sync.Mutex
	// crash is the fault-injection hook (nil in production); guarded by mu.
	crash CrashHook
}

// NewDirStore ensures the directory exists and returns a store over it.
func NewDirStore(dir string) (*DirStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("persist: %w", err)
	}
	return &DirStore{dir: dir}, nil
}

func (s *DirStore) path(id string) string {
	return filepath.Join(s.dir, id+snapExt)
}

// SetCrashHook installs (or clears, with nil) the fault-injection hook
// observed by Put. The hook is store-global: callers that need per-Put
// hooks must serialize their Puts.
func (s *DirStore) SetCrashHook(h CrashHook) {
	s.mu.Lock()
	s.crash = h
	s.mu.Unlock()
}

// Put implements Store. The commit protocol is: write temp file, fsync
// it, close, rename over the live name, fsync the parent directory. A
// crash anywhere in the protocol leaves either the old snapshot or the
// new one under the live id — never a torn mix — and the fsyncs
// guarantee a completed Put is durable, not just atomic.
func (s *DirStore) Put(ctx context.Context, id string, snap *Snapshot) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if err := ValidateID(id); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	tmp, err := os.CreateTemp(s.dir, "."+id+".tmp-*")
	if err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	// A simulated crash must leave the temp file on disk exactly as a
	// real crash would (Scan removes orphans); only a clean failure
	// cleans up after itself.
	crashed := false
	defer func() {
		if !crashed {
			os.Remove(tmp.Name())
		}
	}()
	step := func(st PutStep) error {
		if s.crash == nil {
			return nil
		}
		if err := s.crash(st, tmp.Name()); err != nil {
			crashed = true
			return err
		}
		return nil
	}
	if err := step(StepWriteTemp); err != nil {
		tmp.Close()
		return err
	}
	if err := snap.Write(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := step(StepSyncTemp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("persist: %w", err)
	}
	if err := step(StepCloseTemp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	if err := step(StepRename); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), s.path(id)); err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	if err := step(StepSyncDir); err != nil {
		return err
	}
	if err := syncDir(s.dir); err != nil {
		return err
	}
	return nil
}

// syncDir fsyncs a directory so a rename inside it is durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	err = d.Sync()
	cerr := d.Close()
	if err != nil {
		return fmt.Errorf("persist: syncing %s: %w", dir, err)
	}
	if cerr != nil {
		return fmt.Errorf("persist: %w", cerr)
	}
	return nil
}

// Get implements Store.
func (s *DirStore) Get(ctx context.Context, id string) (*Snapshot, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := ValidateID(id); err != nil {
		return nil, err
	}
	snap, err := ReadFile(s.path(id))
	if errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	return snap, err
}

// Delete implements Store.
func (s *DirStore) Delete(ctx context.Context, id string) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if err := ValidateID(id); err != nil {
		return err
	}
	if err := os.Remove(s.path(id)); err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return fmt.Errorf("%w: %q", ErrNotFound, id)
		}
		return fmt.Errorf("persist: %w", err)
	}
	return nil
}

// List implements Store.
func (s *DirStore) List(ctx context.Context) ([]string, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("persist: %w", err)
	}
	var ids []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, snapExt) || strings.HasPrefix(name, ".") {
			continue
		}
		ids = append(ids, strings.TrimSuffix(name, snapExt))
	}
	sort.Strings(ids)
	return ids, nil
}

// ScanResult reports what a recovery Scan found.
type ScanResult struct {
	// OK lists the ids whose snapshots decode and checksum cleanly,
	// sorted.
	OK []string
	// Quarantined lists the ids whose snapshots were unreadable and were
	// moved aside to "<id>.corrupt", sorted.
	Quarantined []string
	// TempsRemoved counts orphaned temp files from crashed writers that
	// were deleted.
	TempsRemoved int
}

// Scan verifies every snapshot in the store — the startup recovery
// path. Unreadable snapshots are quarantined (renamed to "<id>.corrupt"
// so the rest of the store stays serviceable and the bytes remain
// available for forensics) and orphaned temp files from crashed writers
// are removed. Scan fails only on I/O errors walking the directory,
// never on bad snapshot contents: one rotten checkpoint must not take
// down the whole service.
func (s *DirStore) Scan(ctx context.Context) (ScanResult, error) {
	s.mu.Lock() // exclude concurrent writers for the duration
	defer s.mu.Unlock()
	var res ScanResult
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return res, fmt.Errorf("persist: %w", err)
	}
	for _, e := range entries {
		if err := ctx.Err(); err != nil {
			return res, err
		}
		name := e.Name()
		if e.IsDir() {
			continue
		}
		if strings.HasPrefix(name, ".") && strings.Contains(name, ".tmp-") {
			if err := os.Remove(filepath.Join(s.dir, name)); err != nil {
				return res, fmt.Errorf("persist: removing orphaned temp: %w", err)
			}
			res.TempsRemoved++
			continue
		}
		if !strings.HasSuffix(name, snapExt) || strings.HasPrefix(name, ".") {
			continue
		}
		id := strings.TrimSuffix(name, snapExt)
		if _, err := ReadFile(filepath.Join(s.dir, name)); err != nil {
			dst := filepath.Join(s.dir, id+corruptExt)
			if rerr := os.Rename(filepath.Join(s.dir, name), dst); rerr != nil {
				return res, fmt.Errorf("persist: quarantining %s: %w", name, rerr)
			}
			res.Quarantined = append(res.Quarantined, id)
			continue
		}
		res.OK = append(res.OK, id)
	}
	sort.Strings(res.OK)
	sort.Strings(res.Quarantined)
	return res, nil
}
