// Package wal is the crash-safe write-ahead round log behind the
// session store: an append-only, CRC-framed log of per-round session
// deltas (persist.RoundDelta) with a group committer that batches
// records across sessions into one fsync. Durability cost becomes
// O(round) instead of O(session): a submitted round is durable once
// its delta's group commit returns, and a full snapshot is only
// rewritten at compaction points.
//
// The commit rule is the same old-or-new contract the snapshot store's
// five-step protocol gives, applied per record: a record is committed
// exactly when the fsync covering it returned. On open, the log
// truncates the tail at the first frame that fails its length or
// checksum — the bytes a dying kernel half-flushed — so replay sees
// every committed record and nothing else. Recovery is snapshot +
// replay: wal.Store folds the committed suffix over the inner store's
// snapshots on every read, and the append that fills a session's tail
// folds it into a fresh snapshot so the log can drop dead segments.
package wal

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"exptrain/internal/persist"
)

// ErrClosed is returned by appends against a closed log.
var ErrClosed = errors.New("wal: log closed")

// frameHeader is [4B little-endian payload length][4B CRC-32 of payload].
const frameHeader = 8

// maxRecordBytes bounds one record's payload — far above any real
// round delta, low enough that a corrupted length field cannot make
// the decoder chase gigabytes of garbage.
const maxRecordBytes = 16 << 20

// segExt is the log segment file suffix; segments are numbered
// "wal-%08d.seg" and replayed in index order.
const segExt = ".seg"

// record is the wire form of one log entry.
type record struct {
	// Kind is "round" (a committed round delta) or "mark" (a snapshot
	// watermark: rounds below Through are folded into the inner store).
	Kind string `json:"kind"`
	// Delta is the round payload (kind "round").
	Delta *persist.RoundDelta `json:"delta,omitempty"`
	// Session and Through are the watermark payload (kind "mark").
	Session string `json:"session,omitempty"`
	Through int    `json:"through,omitempty"`
}

// validate rejects records no writer of this package produces.
func (r *record) validate() error {
	switch r.Kind {
	case "round":
		if r.Delta == nil {
			return fmt.Errorf("round record without a delta")
		}
		if err := persist.ValidateID(r.Delta.Session); err != nil {
			return err
		}
		if r.Delta.Round < 0 {
			return fmt.Errorf("negative round %d", r.Delta.Round)
		}
	case "mark":
		if err := persist.ValidateID(r.Session); err != nil {
			return err
		}
		if r.Through < 0 {
			return fmt.Errorf("negative watermark %d", r.Through)
		}
	default:
		return fmt.Errorf("unknown record kind %q", r.Kind)
	}
	return nil
}

// appendFrame encodes one record payload as a CRC-framed entry.
func appendFrame(buf, payload []byte) []byte {
	var hdr [frameHeader]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(payload))
	buf = append(buf, hdr[:]...)
	return append(buf, payload...)
}

// decodeSegment parses segment bytes into records. tail is the offset
// of the clean prefix: everything before it decoded and checksummed,
// everything from it on is a torn or corrupt suffix the caller must
// truncate. A frame that is short, oversized, or fails its CRC is a
// tear (err == nil — exactly what a crash mid-append leaves); a frame
// whose checksum holds but whose payload is not a record this package
// writes is ErrCorrupt — bytes no crashed writer could have produced.
// decodeSegment never panics on arbitrary input (see FuzzWalDecode).
func decodeSegment(data []byte) (recs []record, tail int, err error) {
	off := 0
	for off < len(data) {
		if len(data)-off < frameHeader {
			return recs, off, nil // torn header
		}
		n := int(binary.LittleEndian.Uint32(data[off : off+4]))
		sum := binary.LittleEndian.Uint32(data[off+4 : off+8])
		if n > maxRecordBytes || n > len(data)-off-frameHeader {
			return recs, off, nil // torn or insane length
		}
		payload := data[off+frameHeader : off+frameHeader+n]
		if crc32.ChecksumIEEE(payload) != sum {
			return recs, off, nil // torn payload
		}
		var r record
		if uerr := json.Unmarshal(payload, &r); uerr != nil {
			return recs, off, fmt.Errorf("%w: wal record at offset %d: %v", persist.ErrCorrupt, off, uerr)
		}
		if verr := r.validate(); verr != nil {
			return recs, off, fmt.Errorf("%w: wal record at offset %d: %v", persist.ErrCorrupt, off, verr)
		}
		recs = append(recs, r)
		off += frameHeader + n
	}
	return recs, off, nil
}

// AppendStep identifies one step of the group committer's commit
// protocol, for crash-point fault injection (SetCrashHook).
type AppendStep int

const (
	// StepAppendWrite is observed before the batch's frames are written
	// into the active segment.
	StepAppendWrite AppendStep = iota + 1
	// StepAppendSync is observed after the write, before the fsync that
	// commits the batch. A hook here may truncate the segment's unsynced
	// suffix — the torn tail a power cut mid-flush leaves.
	StepAppendSync
	// StepAppendAck is observed after the fsync, before waiters are
	// acked: the records are durable but every caller sees failure — the
	// ambiguous crash the old-or-new replay contract absorbs.
	StepAppendAck
)

// String renders the step for logs and test failure messages.
func (s AppendStep) String() string {
	switch s {
	case StepAppendWrite:
		return "append-write"
	case StepAppendSync:
		return "append-sync"
	case StepAppendAck:
		return "append-ack"
	default:
		return fmt.Sprintf("AppendStep(%d)", int(s))
	}
}

// AppendSteps lists the commit protocol in execution order, for
// crash-point sweeps that must cover every step.
func AppendSteps() []AppendStep {
	return []AppendStep{StepAppendWrite, StepAppendSync, StepAppendAck}
}

// CrashHook observes the group committer. It is called with each
// upcoming step, the active segment's path, its durable (synced) byte
// offset and its current size; returning non-nil poisons the log at
// that point — every queued and future append fails, exactly as if the
// process died — leaving the segment bytes as the simulated crash made
// them. Reopen the directory to model the restart.
type CrashHook func(step AppendStep, segPath string, synced, size int64) error

// Config shapes a log.
type Config struct {
	// MaxSegmentBytes seals the active segment once it exceeds this
	// (default 4 MiB). Compaction can only drop sealed segments, so the
	// bound is also the compaction granularity.
	MaxSegmentBytes int64
	// MaxBatchBytes bounds one group commit's payload bytes (default
	// 1 MiB). The bound is the fairness mechanism: a session's giant
	// round caps how much rides its fsync, so other sessions' acks are
	// delayed by at most one bounded batch, never an unbounded pile-up.
	// Batch formation never waits — the committer takes whatever queued
	// during the previous fsync — so there is no added latency deadline
	// to tune.
	MaxBatchBytes int
}

func (c Config) withDefaults() Config {
	if c.MaxSegmentBytes <= 0 {
		c.MaxSegmentBytes = 4 << 20
	}
	if c.MaxBatchBytes <= 0 {
		c.MaxBatchBytes = 1 << 20
	}
	return c
}

// segInfo is one sealed segment's compaction metadata.
type segInfo struct {
	path string
	// frontier maps session id → one past the highest round the segment
	// records for it. The segment is dead once every session's snapshot
	// watermark reached its frontier and no mark it holds is needed.
	frontier map[string]int
	// marks holds the sessions the segment records a watermark for. The
	// segment stays while an older kept segment holds rounds of one of
	// them: dropping it would lose that session's mark, and a reopen
	// would re-tail rounds already folded.
	marks map[string]bool
}

// commitReq is one queued append awaiting the group committer.
type commitReq struct {
	buf     []byte // encoded frames
	records int    // round records in buf
	// frontier and marks are the metadata updates the commit applies.
	frontier map[string]int
	marks    map[string]int
	done     chan error
}

// fsyncWindow is the ring size of retained fsync latencies for the p99.
const fsyncWindow = 128

// Log is an append-only, CRC-framed, segmented record log with group
// commit. Safe for concurrent use.
type Log struct {
	dir string
	cfg Config

	mu sync.Mutex
	// pending is the committer's inbox, drained in arrival order;
	// guarded by mu.
	pending []*commitReq
	// pendingRecords counts round records in pending; guarded by mu.
	pendingRecords int
	// segIdx, segSize and synced describe the active segment: its index,
	// bytes written, and durable byte prefix; guarded by mu.
	segIdx  int
	segSize int64
	synced  int64
	// sealed lists rotated segments oldest-first; guarded by mu.
	sealed []segInfo
	// frontier is the active segment's per-session round frontier, and
	// segMarks the sessions it records marks for; guarded by mu.
	frontier map[string]int
	segMarks map[string]bool
	// marks is the latest snapshot watermark per session; guarded by mu.
	marks map[string]int
	// crash is the fault-injection hook (nil in production); guarded by mu.
	crash CrashHook
	// broken poisons the log after a simulated crash or an I/O failure;
	// guarded by mu.
	broken error
	// closed rejects new appends once Close begins; guarded by mu.
	closed bool
	// appended, fsyncs, lastBatch, fsyncNs and fsyncN are the Stats
	// counters; guarded by mu.
	appended  uint64
	fsyncs    uint64
	lastBatch int
	fsyncNs   [fsyncWindow]int64
	fsyncN    int

	// seg is the active segment file, owned by the committer goroutine
	// between Open and its exit.
	seg *os.File

	// kick wakes the committer (capacity 1, non-blocking sends).
	kick chan struct{}
	// quit asks the committer to flush and exit.
	quit chan struct{}
	wg   sync.WaitGroup
}

// RecoverResult reports what Open found in an existing log directory.
type RecoverResult struct {
	// Deltas are the committed round deltas in commit order.
	Deltas []*persist.RoundDelta
	// Marks is the latest snapshot watermark per session.
	Marks map[string]int
	// Segments counts surviving segment files (before the fresh active
	// segment is added).
	Segments int
	// TruncatedBytes counts torn-tail bytes discarded.
	TruncatedBytes int64
	// SegmentsDropped counts segments discarded after a tear or a
	// corrupt record — only ever non-zero when damage was not confined
	// to the final segment's tail.
	SegmentsDropped int
}

// segPath renders segment idx's file path.
func segPath(dir string, idx int) string {
	return filepath.Join(dir, fmt.Sprintf("wal-%08d%s", idx, segExt))
}

// Open replays the log directory (creating it if needed), truncates
// any torn tail, and returns a log ready for appends plus what the
// replay recovered. Replay order is strictly sequential — segments by
// index, frames by offset — and ends at the first frame that fails its
// checksum: a crash can only tear the tail, so everything before the
// tear is exactly the committed prefix.
func Open(dir string, cfg Config) (*Log, RecoverResult, error) {
	cfg = cfg.withDefaults()
	var res RecoverResult
	res.Marks = make(map[string]int)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, res, fmt.Errorf("wal: %w", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, res, fmt.Errorf("wal: %w", err)
	}
	type seg struct {
		idx  int
		path string
	}
	var segs []seg
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasPrefix(name, "wal-") || !strings.HasSuffix(name, segExt) {
			continue
		}
		idx, perr := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(name, "wal-"), segExt))
		if perr != nil {
			continue
		}
		segs = append(segs, seg{idx: idx, path: filepath.Join(dir, name)})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].idx < segs[j].idx })

	l := &Log{
		dir:      dir,
		cfg:      cfg,
		frontier: make(map[string]int),
		segMarks: make(map[string]bool),
		marks:    res.Marks,
		kick:     make(chan struct{}, 1),
		quit:     make(chan struct{}),
	}
	torn := false
	for _, s := range segs {
		if torn {
			// Everything after a tear is unreachable by replay; drop it so
			// the surviving log is self-consistent.
			if rerr := os.Remove(s.path); rerr != nil {
				return nil, res, fmt.Errorf("wal: dropping post-tear segment: %w", rerr)
			}
			res.SegmentsDropped++
			continue
		}
		data, rerr := os.ReadFile(s.path)
		if rerr != nil {
			return nil, res, fmt.Errorf("wal: %w", rerr)
		}
		recs, tail, derr := decodeSegment(data)
		if tail < len(data) || derr != nil {
			torn = true
			res.TruncatedBytes += int64(len(data) - tail)
			if terr := os.Truncate(s.path, int64(tail)); terr != nil {
				return nil, res, fmt.Errorf("wal: truncating torn tail: %w", terr)
			}
		}
		info := segInfo{path: s.path, frontier: make(map[string]int), marks: make(map[string]bool)}
		for i := range recs {
			r := &recs[i]
			switch r.Kind {
			case "round":
				d := r.Delta
				res.Deltas = append(res.Deltas, d)
				if d.Round+1 > info.frontier[d.Session] {
					info.frontier[d.Session] = d.Round + 1
				}
			case "mark":
				info.marks[r.Session] = true
				if r.Through > res.Marks[r.Session] {
					res.Marks[r.Session] = r.Through
				}
			}
		}
		l.sealed = append(l.sealed, info)
		res.Segments++
		if s.idx >= l.segIdx {
			l.segIdx = s.idx + 1
		}
	}

	// Start a fresh active segment: recovered segments stay sealed, so
	// the committer never has to reason about a pre-existing tail.
	f, err := os.OpenFile(segPath(dir, l.segIdx), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, res, fmt.Errorf("wal: %w", err)
	}
	if err := syncDir(dir); err != nil {
		f.Close()
		return nil, res, err
	}
	l.seg = f
	l.wg.Add(1)
	go l.committer()
	return l, res, nil
}

// syncDir fsyncs a directory so renames and creations in it are durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	serr := d.Sync()
	cerr := d.Close()
	if serr != nil {
		return fmt.Errorf("wal: syncing %s: %w", dir, serr)
	}
	if cerr != nil {
		return fmt.Errorf("wal: %w", cerr)
	}
	return nil
}

// SetCrashHook installs (or clears, with nil) the fault-injection hook
// observed by the group committer. The hook is log-global: callers
// needing per-append hooks must serialize their appends.
func (l *Log) SetCrashHook(h CrashHook) {
	l.mu.Lock()
	l.crash = h
	l.mu.Unlock()
}

// enqueue hands a request to the committer and waits for its ack.
func (l *Log) enqueue(req *commitReq) error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return ErrClosed
	}
	if l.broken != nil {
		err := l.broken
		l.mu.Unlock()
		return err
	}
	l.pending = append(l.pending, req)
	l.pendingRecords += req.records
	l.mu.Unlock()
	select {
	case l.kick <- struct{}{}:
	default:
	}
	return <-req.done
}

// Append durably commits the given round deltas: they are framed,
// queued, and acked once the group commit covering them fsynced. Many
// concurrent Appends share one fsync — that is the whole point — and a
// batch is bounded by MaxBatchBytes so no caller waits behind an
// unbounded pile-up. A nil error means the rounds are durable; any
// error means the caller must not count them as committed (they may
// still surface on recovery — the old-or-new contract).
func (l *Log) Append(deltas []*persist.RoundDelta) error {
	if len(deltas) == 0 {
		return nil
	}
	req := &commitReq{frontier: make(map[string]int), done: make(chan error, 1)}
	for _, d := range deltas {
		if d == nil {
			return fmt.Errorf("wal: nil round delta")
		}
		if err := persist.ValidateID(d.Session); err != nil {
			return err
		}
		if d.Round < 0 {
			return fmt.Errorf("wal: negative round %d for %q", d.Round, d.Session)
		}
		payload, err := json.Marshal(record{Kind: "round", Delta: d})
		if err != nil {
			return fmt.Errorf("wal: encoding delta: %w", err)
		}
		if len(payload) > maxRecordBytes {
			return fmt.Errorf("wal: round delta for %q encodes to %d bytes (max %d)", d.Session, len(payload), maxRecordBytes)
		}
		req.buf = appendFrame(req.buf, payload)
		req.records++
		if d.Round+1 > req.frontier[d.Session] {
			req.frontier[d.Session] = d.Round + 1
		}
	}
	return l.enqueue(req)
}

// Mark durably records that rounds below through are folded into the
// inner store's snapshot for session — the watermark compaction and
// recovery prune against.
func (l *Log) Mark(session string, through int) error {
	if err := persist.ValidateID(session); err != nil {
		return err
	}
	if through < 0 {
		return fmt.Errorf("wal: negative watermark %d", through)
	}
	payload, err := json.Marshal(record{Kind: "mark", Session: session, Through: through})
	if err != nil {
		return fmt.Errorf("wal: encoding mark: %w", err)
	}
	req := &commitReq{
		buf:   appendFrame(nil, payload),
		marks: map[string]int{session: through},
		done:  make(chan error, 1),
	}
	return l.enqueue(req)
}

// committer is the single goroutine that owns the active segment: it
// drains the pending queue in bounded batches, writes and fsyncs each
// batch, and acks every rider. One fsync per batch, shared across
// however many Appends queued during the previous commit — group
// commit's natural batching.
func (l *Log) committer() {
	defer l.wg.Done()
	for {
		select {
		case <-l.quit:
			// Graceful close: flush whatever is queued, then release the file.
			for {
				batch, bytes := l.takeBatch()
				if len(batch) == 0 {
					break
				}
				l.commit(batch, bytes)
			}
			l.failPending(ErrClosed) // anything enqueued after the flush races closed
			l.seg.Close()
			return
		case <-l.kick:
		}
		for {
			batch, bytes := l.takeBatch()
			if len(batch) == 0 {
				break
			}
			l.commit(batch, bytes)
		}
	}
}

// takeBatch pops queued requests up to the batch byte bound (always at
// least one, so an oversized record still commits — alone).
func (l *Log) takeBatch() (batch []*commitReq, bytes int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for len(l.pending) > 0 {
		req := l.pending[0]
		if len(batch) > 0 && bytes+len(req.buf) > l.cfg.MaxBatchBytes {
			break
		}
		l.pending = l.pending[1:]
		l.pendingRecords -= req.records
		batch = append(batch, req)
		bytes += len(req.buf)
	}
	if len(l.pending) == 0 {
		l.pending = nil // release the drained backing array
	}
	return batch, bytes
}

// failPending acks every queued request with err.
func (l *Log) failPending(err error) {
	l.mu.Lock()
	pending := l.pending
	l.pending = nil
	l.pendingRecords = 0
	l.mu.Unlock()
	for _, req := range pending {
		req.done <- err
	}
}

// ack resolves one batch.
func ack(batch []*commitReq, err error) {
	for _, req := range batch {
		req.done <- err
	}
}

// poison marks the log dead with err: queued and future appends fail.
// Used for simulated crashes and real I/O failures alike — a log whose
// segment state is unknown must not take further writes.
func (l *Log) poison(err error) {
	l.mu.Lock()
	if l.broken == nil {
		l.broken = err
	}
	l.mu.Unlock()
	l.failPending(err)
}

// commit writes and fsyncs one batch, honoring the crash hook at every
// protocol step.
func (l *Log) commit(batch []*commitReq, bytes int) {
	l.mu.Lock()
	if l.broken != nil {
		err := l.broken
		l.mu.Unlock()
		ack(batch, err)
		return
	}
	hook := l.crash
	rotate := l.segSize >= l.cfg.MaxSegmentBytes && l.segSize > 0
	path := segPath(l.dir, l.segIdx)
	synced, size := l.synced, l.segSize
	l.mu.Unlock()

	if rotate {
		if err := l.rotate(); err != nil {
			l.poison(err)
			ack(batch, err)
			return
		}
		l.mu.Lock()
		path = segPath(l.dir, l.segIdx)
		synced, size = l.synced, l.segSize
		l.mu.Unlock()
	}

	if hook != nil {
		if err := hook(StepAppendWrite, path, synced, size); err != nil {
			l.poison(err)
			ack(batch, err)
			return
		}
	}
	var n int64
	for _, req := range batch {
		w, err := l.seg.Write(req.buf)
		n += int64(w)
		if err != nil {
			l.poison(fmt.Errorf("wal: %w", err))
			ack(batch, fmt.Errorf("wal: %w", err))
			return
		}
	}
	l.mu.Lock()
	l.segSize += n
	size = l.segSize
	l.mu.Unlock()

	if hook != nil {
		if err := hook(StepAppendSync, path, synced, size); err != nil {
			l.poison(err)
			ack(batch, err)
			return
		}
	}
	t0 := time.Now()
	if err := l.seg.Sync(); err != nil {
		l.poison(fmt.Errorf("wal: %w", err))
		ack(batch, fmt.Errorf("wal: %w", err))
		return
	}
	dur := time.Since(t0)

	records := 0
	l.mu.Lock()
	l.synced = l.segSize
	for _, req := range batch {
		records += req.records
		for sess, hi := range req.frontier {
			if hi > l.frontier[sess] {
				l.frontier[sess] = hi
			}
		}
		for sess, through := range req.marks {
			l.segMarks[sess] = true
			if through > l.marks[sess] {
				l.marks[sess] = through
			}
		}
	}
	l.appended += uint64(records)
	l.fsyncs++
	l.lastBatch = records
	l.fsyncNs[l.fsyncN%fsyncWindow] = dur.Nanoseconds()
	l.fsyncN++
	l.mu.Unlock()

	if hook != nil {
		if err := hook(StepAppendAck, path, size, size); err != nil {
			// The records ARE durable; the callers see failure — the
			// ambiguous crash. Replay surfaces them as "new".
			l.poison(err)
			ack(batch, err)
			return
		}
	}
	ack(batch, nil)
}

// rotate seals the active segment and opens the next one. Only the
// committer calls it, so the file handle never races.
func (l *Log) rotate() error {
	if err := l.seg.Sync(); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if err := l.seg.Close(); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	l.mu.Lock()
	info := segInfo{path: segPath(l.dir, l.segIdx), frontier: l.frontier, marks: l.segMarks}
	l.sealed = append(l.sealed, info)
	l.segIdx++
	nextPath := segPath(l.dir, l.segIdx)
	l.frontier = make(map[string]int)
	l.segMarks = make(map[string]bool)
	l.segSize = 0
	l.synced = 0
	l.mu.Unlock()
	f, err := os.OpenFile(nextPath, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if err := syncDir(l.dir); err != nil {
		f.Close()
		return err
	}
	l.seg = f
	return nil
}

// Compact deletes sealed segments whose every recorded round is below
// its session's snapshot watermark — the "fold committed runs into
// snapshots, then drop the log prefix" half of compaction (wal.Store
// does the folding). A segment holding a session's mark stays while an
// older kept segment holds rounds of that session, so a reopen never
// loses a mark over rounds it still replays. It returns how many
// segments were dropped.
func (l *Log) Compact() (dropped int, err error) {
	l.mu.Lock()
	var dead []segInfo
	keep := l.sealed[:0]
	// kept holds the sessions with rounds in a kept segment so far.
	kept := make(map[string]bool)
	for _, info := range l.sealed {
		live := false
		for sess, hi := range info.frontier {
			if l.marks[sess] < hi {
				live = true
				break
			}
		}
		for sess := range info.marks {
			if kept[sess] {
				live = true
				break
			}
		}
		if live {
			keep = append(keep, info)
			for sess := range info.frontier {
				kept[sess] = true
			}
		} else {
			dead = append(dead, info)
		}
	}
	l.sealed = keep
	l.mu.Unlock()
	for _, info := range dead {
		if rerr := os.Remove(info.path); rerr != nil && !errors.Is(rerr, os.ErrNotExist) {
			return dropped, fmt.Errorf("wal: dropping compacted segment: %w", rerr)
		}
		dropped++
	}
	return dropped, nil
}

// Stats reports the log's operational counters. CompactionLag here
// counts only records queued for fsync; wal.Store adds the committed
// tail awaiting folds.
func (l *Log) Stats() persist.WalStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	s := persist.WalStats{
		Appended:     l.appended,
		Unflushed:    l.pendingRecords,
		BatchRecords: l.lastBatch,
		Fsyncs:       l.fsyncs,
		Segments:     len(l.sealed) + 1,
	}
	n := l.fsyncN
	if n > fsyncWindow {
		n = fsyncWindow
	}
	if n > 0 {
		window := make([]int64, n)
		copy(window, l.fsyncNs[:n])
		sort.Slice(window, func(i, j int) bool { return window[i] < window[j] })
		i := int(0.99*float64(n)+0.5) - 1
		if i < 0 {
			i = 0
		}
		if i >= n {
			i = n - 1
		}
		s.FsyncP99Ms = float64(window[i]) / 1e6
	}
	return s
}

// Broken reports the poisoning error, nil while the log is healthy.
//
//etlint:ignore unreachable poisoning probe for the WAL crash tests of internal/persist/faulty
func (l *Log) Broken() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.broken
}

// Close flushes queued appends, fsyncs, and releases the segment file.
// Appends issued after Close fail with ErrClosed.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		l.wg.Wait()
		return nil
	}
	l.closed = true
	l.mu.Unlock()
	close(l.quit)
	l.wg.Wait()
	return nil
}
