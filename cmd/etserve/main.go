// Command etserve hosts many live exploratory-training sessions behind
// an HTTP/JSON API. Each session is an independent learner an annotator
// (or a driving program) advances one round at a time; idle sessions
// are checkpointed to the store and transparently resumed on their next
// request, and a graceful shutdown checkpoints every live session so no
// submitted round is lost.
//
// Usage:
//
//	etserve [-addr :8080] [-store DIR] [-max-sessions 128]
//	        [-replicas 1] [-replica-dirs a,b,c]
//	        [-idle-ttl 15m] [-sweep 1m] [-timeout 30s]
//	        [-retry-attempts 4] [-retry-base 5ms] [-retry-max 250ms]
//	        [-max-queued 64] [-heartbeat 15s]
//
// Besides the interactive next/submit loop, clients can POST whole
// windows of labeled rounds to /v1/sessions/{id}/submissions, which
// applies every round the window completes before it answers, and watch
// rounds apply over the SSE stream at /v1/sessions/{id}/rounds?stream=1
// (see API.md). -max-queued caps each session's admission queue (the
// rounds a window carries plus those waiting behind a gap), and
// -heartbeat paces the SSE keep-alive comments.
//
// Without -store, sessions live in memory for the life of the process.
// With -store, the directory gets a crash-safe write-ahead log (its
// "wal" subdirectory) in front of its snapshots: a new or resumed
// session first lands a base snapshot, then each submitted round
// appends a CRC-framed delta record, batches of records across sessions
// ride one fsync (group commit), and a submit acks once its batch is
// durable — O(round) bytes per submit instead of an O(history)
// snapshot. Sessions survive restarts, crashes included (resume one
// with POST /v1/sessions {"resume": "<id>", ...}): on startup the log
// is replayed onto the last snapshots (torn tails from a crash are
// truncated, never trusted) and every replayed tail is folded into a
// fresh snapshot.
//
// -replicas N gives each of N replica directories (DIR/replica-0..N-1,
// or the explicit comma-separated -replica-dirs list) its own log and
// snapshots behind a write-majority quorum: a checkpoint or an append
// acks once ⌈(N+1)/2⌉ replicas have it durably, reads take the
// freshest intact copy and repair stale or corrupt replicas in passing,
// so losing a full replica directory loses no submitted round.
//
// On startup every store directory is scanned: snapshots that fail
// their checksum are quarantined to "<id>.corrupt" (and logged) so one
// rotten checkpoint cannot block the rest from resuming, orphaned temp
// files from crashed writers are removed, and with replicas the scan
// reconciles the replica set, re-writing any replica that missed a
// checkpoint. Store operations retry with exponential backoff per the
// -retry-* flags; a session whose checkpoint or append keeps failing
// stays live in degraded mode (GET /v1/healthz reports it and flips to
// 503 so a load balancer can route around the replica). GET /v1/healthz
// also reports appended/pending round counts and log-level fsync
// metrics.
//
// Sessions created with "eval": true additionally score the learner's
// believed model on a held-out split every round; GET
// /v1/sessions/{id}/rounds serves the per-round MAE/payoff (and
// detection F1) series either way. See the README for the API routes
// and a curl transcript.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"exptrain/internal/persist"
	"exptrain/internal/persist/wal"
	"exptrain/internal/service"
)

// config is the flag surface of the server.
type config struct {
	addr          string
	storeDir      string
	replicas      int
	replicaDirs   string
	maxSessions   int
	idleTTL       time.Duration
	sweepEvery    time.Duration
	timeout       time.Duration
	retryAttempts int
	retryBase     time.Duration
	retryMax      time.Duration
	maxQueued     int
	heartbeat     time.Duration
}

func main() {
	var cfg config
	flag.StringVar(&cfg.addr, "addr", ":8080", "listen address")
	flag.StringVar(&cfg.storeDir, "store", "", "store directory: snapshots plus a write-ahead log of submitted rounds (default: in-memory store)")
	flag.IntVar(&cfg.replicas, "replicas", 1, "store replicas behind a write-majority quorum (requires -store)")
	flag.StringVar(&cfg.replicaDirs, "replica-dirs", "", "comma-separated replica directories (default: STORE/replica-0..N-1)")
	flag.IntVar(&cfg.maxSessions, "max-sessions", 128, "resident session cap; LRU-idle sessions are parked beyond it")
	flag.DurationVar(&cfg.idleTTL, "idle-ttl", 15*time.Minute, "park sessions idle longer than this")
	flag.DurationVar(&cfg.sweepEvery, "sweep", time.Minute, "idle-session sweep interval")
	flag.DurationVar(&cfg.timeout, "timeout", 30*time.Second, "per-request timeout")
	flag.IntVar(&cfg.retryAttempts, "retry-attempts", 4, "store operation attempts before degrading (1 disables retries)")
	flag.DurationVar(&cfg.retryBase, "retry-base", 5*time.Millisecond, "store retry backoff before the second attempt (doubles per attempt)")
	flag.DurationVar(&cfg.retryMax, "retry-max", 250*time.Millisecond, "store retry backoff cap")
	flag.IntVar(&cfg.maxQueued, "max-queued", 64, "per-session labelpool admission queue capacity")
	flag.DurationVar(&cfg.heartbeat, "heartbeat", 15*time.Second, "SSE stream keep-alive comment interval")
	flag.Parse()
	if err := run(cfg); err != nil {
		log.Fatal(err)
	}
}

func run(cfg config) error {
	app, err := start(cfg)
	if err != nil {
		return err
	}
	log.Printf("etserve listening on %s (max %d sessions, idle TTL %s)",
		app.addr, cfg.maxSessions, cfg.idleTTL)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-app.serveErr:
		app.stopSweeper()
		return err
	case s := <-sig:
		log.Printf("received %s, shutting down", s)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := app.shutdown(ctx); err != nil {
		return err
	}
	log.Printf("all sessions checkpointed; bye")
	return nil
}

// app is a running server: an HTTP listener, the session manager
// behind it, and the background idle-session sweeper.
type app struct {
	addr     net.Addr
	mgr      *service.Manager
	srv      *http.Server
	serveErr chan error
	// walStores are the per-directory write-ahead logs to close on
	// shutdown (after the manager drains, so every late append lands).
	walStores []*wal.Store

	stopSweep context.CancelFunc
	sweepDone chan struct{}
}

// scanStore runs a store directory's recovery scan: verify every
// checkpoint, quarantine the rotten ones instead of letting a single
// bad file block startup, clean up temp files a crashed writer left
// behind, and fold every committed log tail into a fresh snapshot, so
// the directory alone carries every durable round before serving
// begins.
func scanStore(st *wal.Store, path string) error {
	res, err := st.Scan(context.Background())
	if err != nil {
		return fmt.Errorf("scanning store %s: %w", path, err)
	}
	for _, id := range res.Quarantined {
		log.Printf("store %s: snapshot %q failed verification; quarantined to %s.corrupt", path, id, id)
	}
	if res.TempsRemoved > 0 {
		log.Printf("store %s: removed %d orphaned temp file(s) from a crashed writer", path, res.TempsRemoved)
	}
	log.Printf("store: %d snapshot(s) verified in %s", len(res.OK), path)
	return nil
}

// openDir opens one store directory: its snapshots, with a write-ahead
// log in front of them in a "wal" subdirectory (DirStore scans skip
// subdirectories, so the two coexist). It logs what recovery found:
// replayed committed deltas, torn tail bytes truncated, unreadable
// segments dropped.
func openDir(dir string) (*wal.Store, error) {
	snaps, err := persist.NewDirStore(dir)
	if err != nil {
		return nil, fmt.Errorf("opening store: %w", err)
	}
	ws, rec, err := wal.OpenStore(snaps, filepath.Join(dir, "wal"), wal.StoreConfig{})
	if err != nil {
		return nil, fmt.Errorf("opening WAL under %s: %w", dir, err)
	}
	if rec.TruncatedBytes > 0 {
		log.Printf("wal %s: truncated %d torn tail byte(s) left by a crash", dir, rec.TruncatedBytes)
	}
	if rec.SegmentsDropped > 0 {
		log.Printf("wal %s: dropped %d spent or unreadable segment(s)", dir, rec.SegmentsDropped)
	}
	log.Printf("wal %s: replayed %d committed round delta(s) from %d segment(s)",
		dir, len(rec.Deltas), rec.Segments)
	return ws, nil
}

// buildStore assembles the store from the flag surface: nil (in-memory)
// without -store or -replica-dirs; otherwise a write-ahead log over
// snapshots in each store directory — the -store directory alone, or N
// replica directories behind a write-majority MultiStore. Every
// directory is scanned (and a replica set reconciled) before serving
// begins, so a replica that missed checkpoints while down converges
// first. The second return value lists the WAL stores the caller must
// close on shutdown.
func buildStore(cfg config) (persist.Store, []*wal.Store, error) {
	var dirs []string
	switch {
	case cfg.replicaDirs != "":
		dirs = strings.Split(cfg.replicaDirs, ",")
		if cfg.replicas > 1 && cfg.replicas != len(dirs) {
			return nil, nil, fmt.Errorf("-replicas %d but -replica-dirs names %d directories", cfg.replicas, len(dirs))
		}
	case cfg.replicas > 1:
		if cfg.storeDir == "" {
			return nil, nil, fmt.Errorf("-replicas %d requires -store (or -replica-dirs)", cfg.replicas)
		}
		for i := 0; i < cfg.replicas; i++ {
			dirs = append(dirs, filepath.Join(cfg.storeDir, fmt.Sprintf("replica-%d", i)))
		}
	case cfg.storeDir != "":
		dirs = []string{cfg.storeDir}
	default:
		return nil, nil, nil
	}
	var walStores []*wal.Store
	for _, d := range dirs {
		ws, err := openDir(d)
		if err != nil {
			closeAll(walStores)
			return nil, nil, err
		}
		walStores = append(walStores, ws)
	}
	var store persist.Store = walStores[0]
	var err error
	if cfg.replicaDirs == "" && cfg.replicas <= 1 {
		err = scanStore(walStores[0], dirs[0]) // a lone directory: no replica set to reconcile
	} else {
		store, err = reconcile(walStores, dirs)
	}
	if err != nil {
		closeAll(walStores)
		return nil, nil, err
	}
	return store, walStores, nil
}

// reconcile puts replica stores behind a write-majority quorum and runs
// the reconciling startup scan, logging what each replica's own scan
// quarantined or removed and which snapshots had to be re-replicated.
func reconcile(walStores []*wal.Store, dirs []string) (*persist.MultiStore, error) {
	replicas := make([]persist.Store, len(walStores))
	for i, ws := range walStores {
		replicas[i] = ws
	}
	ms, err := persist.NewMultiStore(replicas, 0) // 0: write-majority quorum
	if err != nil {
		return nil, err
	}
	res, err := ms.Scan(context.Background())
	if err != nil {
		return nil, fmt.Errorf("reconciling replicas: %w", err)
	}
	for i, rs := range res.ReplicaScans {
		if rs == nil {
			continue
		}
		for _, id := range rs.Quarantined {
			log.Printf("replica %d (%s): snapshot %q failed verification; quarantined", i, dirs[i], id)
		}
		if rs.TempsRemoved > 0 {
			log.Printf("replica %d (%s): removed %d orphaned temp file(s)", i, dirs[i], rs.TempsRemoved)
		}
	}
	for _, id := range res.Repaired {
		log.Printf("store: snapshot %q re-replicated to a stale or missing replica", id)
	}
	for _, id := range res.Failed {
		log.Printf("store: snapshot %q unreadable on every replica; it cannot be resumed", id)
	}
	log.Printf("store: %d snapshot(s) verified across %d replicas (write quorum %d)",
		len(res.OK), ms.Replicas(), ms.WriteQuorum())
	return ms, nil
}

// closeAll closes write-ahead logs, logging (not returning) failures:
// it runs on paths that already have an error or a shutdown to report.
func closeAll(walStores []*wal.Store) {
	for _, ws := range walStores {
		if err := ws.Close(); err != nil {
			log.Printf("wal close: %v", err)
		}
	}
}

// start builds the store + manager + server and begins serving on
// cfg.addr (use port 0 for an ephemeral port; app.addr has the one
// actually bound).
func start(cfg config) (*app, error) {
	store, walStores, err := buildStore(cfg)
	if err != nil {
		return nil, err
	}
	mgr := service.NewManager(service.Options{
		MaxSessions: cfg.maxSessions,
		IdleTTL:     cfg.idleTTL,
		Store:       store,
		Retry: service.RetryPolicy{
			MaxAttempts: cfg.retryAttempts,
			BaseDelay:   cfg.retryBase,
			MaxDelay:    cfg.retryMax,
		},
		MaxQueuedSubmissions: cfg.maxQueued,
	})
	srv := &http.Server{
		Handler: service.NewServer(mgr, service.ServerOptions{
			RequestTimeout:  cfg.timeout,
			StreamHeartbeat: cfg.heartbeat,
		}),
	}
	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		return nil, err
	}

	a := &app{
		addr:      ln.Addr(),
		mgr:       mgr,
		srv:       srv,
		serveErr:  make(chan error, 1),
		walStores: walStores,
		sweepDone: make(chan struct{}),
	}

	// Park idle sessions in the background so a quiet server's memory
	// is bounded by its snapshots, not its session count.
	var sweepCtx context.Context
	sweepCtx, a.stopSweep = context.WithCancel(context.Background())
	go func() {
		defer close(a.sweepDone)
		tick := time.NewTicker(cfg.sweepEvery)
		defer tick.Stop()
		for {
			select {
			case <-sweepCtx.Done():
				return
			case <-tick.C:
				if swept, err := mgr.Sweep(sweepCtx); err != nil {
					log.Printf("sweep: %v", err)
				} else if len(swept) > 0 {
					log.Printf("parked %d idle session(s): %v", len(swept), swept)
				}
			}
		}
	}()

	go func() { a.serveErr <- srv.Serve(ln) }()
	return a, nil
}

func (a *app) stopSweeper() {
	a.stopSweep()
	<-a.sweepDone
}

// shutdown drains the manager first — that checkpoints every live
// session and closes attached SSE streams with their `event: drain`
// goodbye — and only then waits out the HTTP
// server. The other order deadlocks until the context cap: Server.
// Shutdown waits for in-flight handlers, but a stream handler only
// exits on the manager's drain signal. Requests arriving mid-drain get
// 503 shutting_down, which is the designed fail-over answer.
func (a *app) shutdown(ctx context.Context) error {
	a.stopSweeper()
	mgrErr := a.mgr.Shutdown(ctx)
	// The drain above checkpointed and appended everything it could, and
	// every store write (on every replica) finished inside its call;
	// closing the logs now fsyncs any tail batch before the process
	// exits.
	closeAll(a.walStores)
	if err := a.srv.Shutdown(ctx); err != nil {
		log.Printf("http shutdown: %v", err)
	}
	if mgrErr != nil {
		return fmt.Errorf("checkpointing sessions: %w", mgrErr)
	}
	if err := <-a.serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}
