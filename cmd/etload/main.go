// Command etload load-tests an exploratory-training server through the
// public client, comparing the request-per-round submission path
// against the batched labelpool pipeline and reporting sustained
// throughput plus latency percentiles in `go test -bench` line format,
// so the numbers pipe straight into benchjson:
//
//	etload -inproc -sessions 16 -rounds 8 | benchjson > BENCH_Labelpool.json
//
// Two workload modes, both playing every session for exactly -rounds
// abstain-all rounds:
//
//   - baseline: the interactive path — each round is one GET /next plus
//     one POST /submit, the client blocking on both (closed loop).
//   - pool: the batched path — submissions enqueue in windows of
//     -window rounds per POST /submissions, and one SSE stream per
//     session observes the applied rounds.
//
// -mode both (the default) runs baseline then pool against separate
// sessions and emits a BenchmarkLabelpoolSpeedup line with the
// throughput ratio. -rate switches pool mode from closed-loop to
// open-loop: enqueue requests are paced at the given aggregate
// requests/sec regardless of completion, which surfaces queueing delay
// that a closed loop hides.
//
// The target is either a running etserve (-addr) or an in-process
// manager+server on a loopback listener (-inproc), which is what
// `make loadsmoke` uses: same HTTP stack, no network noise, no daemon
// to manage.
//
// -net-delay injects a symmetric client-side network delay around
// every request (half before send, half after receive), modelling the
// remote annotator the batched pipeline exists for: on a LAN or
// loopback the request-per-round baseline is compute-bound and
// batching saves only the per-request overhead, but with tens of
// milliseconds of RTT the baseline's closed loop serializes two round
// trips per submission while the pool amortizes one round trip over a
// whole window. `make loadsmoke` records that configuration.
//
// -park switches to the parking smoke `make loadsmoke` also records: a
// Sweep parks the whole fleet after every round through a store with
// -store-delay latency per operation, and the next round unparks it.
// Emits BenchmarkParkServe and a BenchmarkParkOverlap line: the mean
// number of store waits in flight (1.0 = serial).
//
// -wal switches to the durability comparison `make walbench` records:
// the same submit workload is played twice against a simulated
// fsync-bound disk (-store-delay per disk operation), once making each
// submit durable with a full snapshot Put — serialized, because one
// disk has one fsync queue — and once through the write-ahead log,
// whose group committer batches every session waiting on the same
// fsync and writes O(round) delta bytes instead of O(history)
// snapshots. Emits BenchmarkWalSnapshot, BenchmarkWalCommit, and a
// BenchmarkWalSpeedup ratio line.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"exptrain/client"
	"exptrain/internal/persist"
	"exptrain/internal/persist/wal"
	"exptrain/internal/sampling"
	"exptrain/internal/service"
)

// config is etload's flag surface.
type config struct {
	addr     string
	inproc   bool
	sessions int
	rounds   int
	window   int
	mode     string
	rate     float64
	dataset  string
	rows     int
	k        int
	seed     uint64
	netDelay time.Duration

	park       bool
	storeDelay time.Duration
	walCompare bool
}

func main() {
	var cfg config
	flag.StringVar(&cfg.addr, "addr", "", "base URL of a running server (e.g. http://localhost:8080)")
	flag.BoolVar(&cfg.inproc, "inproc", false, "serve an in-process manager on a loopback listener instead of -addr")
	flag.IntVar(&cfg.sessions, "sessions", 16, "concurrent sessions per mode")
	flag.IntVar(&cfg.rounds, "rounds", 8, "rounds played per session")
	flag.IntVar(&cfg.window, "window", 4, "rounds per enqueue request in pool mode")
	flag.StringVar(&cfg.mode, "mode", "both", "workload: baseline, pool or both")
	flag.Float64Var(&cfg.rate, "rate", 0, "open-loop enqueue requests/sec across all pool workers (0 = closed loop)")
	flag.StringVar(&cfg.dataset, "dataset", "OMDB", "synthetic dataset name")
	flag.IntVar(&cfg.rows, "rows", 60, "synthetic dataset rows")
	flag.IntVar(&cfg.k, "k", 4, "pairs per round")
	flag.Uint64Var(&cfg.seed, "seed", 1, "base seed; session i uses seed+i")
	flag.DurationVar(&cfg.netDelay, "net-delay", 0, "simulated client-side round-trip delay per request (e.g. 10ms)")
	flag.BoolVar(&cfg.park, "park", false, "run the park-heavy workload (a Sweep parks the fleet after every round) over a store with -store-delay latency; drives the manager directly and ignores -mode/-addr")
	flag.DurationVar(&cfg.storeDelay, "store-delay", 4*time.Millisecond, "simulated checkpoint-store latency per operation in -park and -wal runs")
	flag.BoolVar(&cfg.walCompare, "wal", false, "compare snapshot-per-submit durability against WAL group commit on a simulated fsync-bound disk; drives the manager directly and ignores -mode/-addr")
	flag.Parse()
	if err := run(cfg); err != nil {
		log.Fatal("etload: ", err)
	}
}

func run(cfg config) error {
	if cfg.walCompare {
		return runWalCompare(cfg)
	}
	if cfg.park {
		return runPark(cfg)
	}
	if cfg.mode != "baseline" && cfg.mode != "pool" && cfg.mode != "both" {
		return fmt.Errorf("unknown -mode %q", cfg.mode)
	}
	if cfg.window < 1 || cfg.window > cfg.rounds {
		cfg.window = cfg.rounds
	}
	base := cfg.addr
	if cfg.inproc || base == "" {
		if base != "" {
			return fmt.Errorf("-addr and -inproc are mutually exclusive")
		}
		stop, url, err := serveInproc()
		if err != nil {
			return err
		}
		defer stop()
		base = url
		fmt.Fprintf(os.Stderr, "etload: in-process server on %s\n", base)
	}
	hc := &http.Client{}
	if cfg.netDelay > 0 {
		hc.Transport = &delayTransport{rtt: cfg.netDelay, next: http.DefaultTransport}
	}
	c := client.New(base, client.Options{HTTP: hc})

	var baseline, pool result
	if cfg.mode != "pool" {
		r, err := runBaseline(c, cfg)
		if err != nil {
			return fmt.Errorf("baseline: %w", err)
		}
		baseline = r
		emit("LabelpoolBaseline", r)
	}
	if cfg.mode != "baseline" {
		r, err := runPool(c, cfg)
		if err != nil {
			return fmt.Errorf("pool: %w", err)
		}
		pool = r
		emit("LabelpoolPool", r)
	}
	if cfg.mode == "both" && baseline.throughput() > 0 {
		fmt.Printf("BenchmarkLabelpoolSpeedup 1 %.2f x-vs-baseline\n",
			pool.throughput()/baseline.throughput())
	}
	return nil
}

// delayTransport injects a symmetric simulated network delay: half the
// round trip before the request leaves, half before the response is
// seen. Streaming bodies are only delayed at connection time, which is
// how real propagation delay treats a long-lived SSE stream too.
type delayTransport struct {
	rtt  time.Duration
	next http.RoundTripper
}

func (d *delayTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	half := d.rtt / 2
	select {
	case <-req.Context().Done():
		return nil, req.Context().Err()
	case <-time.After(half):
	}
	resp, err := d.next.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	select {
	case <-req.Context().Done():
		resp.Body.Close()
		return nil, req.Context().Err()
	case <-time.After(half):
	}
	return resp, nil
}

// serveInproc starts a manager + HTTP server on an ephemeral loopback
// port and returns a shutdown func and the base URL.
func serveInproc() (stop func(), url string, err error) {
	mgr := service.NewManager(service.Options{MaxSessions: 1024})
	srv := &http.Server{Handler: service.NewServer(mgr, service.ServerOptions{})}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	go func() { _ = srv.Serve(ln) }()
	stop = func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = mgr.Shutdown(ctx)
		_ = srv.Shutdown(ctx)
	}
	return stop, "http://" + ln.Addr().String(), nil
}

// result is one mode's measurements.
type result struct {
	rounds    int           // submissions applied across all sessions
	elapsed   time.Duration // wall time of the phase
	latencies []time.Duration
}

func (r result) throughput() float64 {
	if r.elapsed <= 0 {
		return 0
	}
	return float64(r.rounds) / r.elapsed.Seconds()
}

// percentile returns the q-quantile (0..1) of the recorded request
// latencies by nearest rank.
func (r result) percentile(q float64) time.Duration {
	if len(r.latencies) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), r.latencies...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(q*float64(len(s))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// emit prints one benchjson-parseable result line: iterations are the
// applied submissions, ns/op the mean wall time per submission, plus
// throughput and per-request latency percentiles as custom metrics.
func emit(name string, r result) {
	fmt.Printf("Benchmark%s %d %d ns/op %.1f submissions/sec %d p50-req-ns %d p99-req-ns\n",
		name, r.rounds, int64(r.elapsed.Nanoseconds())/int64(max(r.rounds, 1)),
		r.throughput(), r.percentile(0.50).Nanoseconds(), r.percentile(0.99).Nanoseconds())
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// spec builds session i's create request.
func (cfg config) spec(i int) client.CreateSession {
	return client.CreateSession{
		Dataset: cfg.dataset,
		Rows:    cfg.rows,
		K:       cfg.k,
		Method:  "StochasticUS",
		Seed:    cfg.seed + uint64(i),
	}
}

// runBaseline plays every session interactively: one Next and one
// Submit round trip per round, each worker blocking on its own chain.
func runBaseline(c *client.Client, cfg config) (result, error) {
	ctx := context.Background()
	ids, err := createAll(ctx, c, cfg)
	if err != nil {
		return result{}, err
	}
	var (
		mu  sync.Mutex
		res result
		wg  sync.WaitGroup
		ec  = make(chan error, len(ids))
	)
	start := time.Now()
	for _, id := range ids {
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			var lats []time.Duration
			for r := 0; r < cfg.rounds; r++ {
				t0 := time.Now()
				if _, err := c.Next(ctx, id); err != nil {
					ec <- fmt.Errorf("next %s round %d: %w", id, r, err)
					return
				}
				if _, err := c.Submit(ctx, id, r, nil); err != nil {
					ec <- fmt.Errorf("submit %s round %d: %w", id, r, err)
					return
				}
				lats = append(lats, time.Since(t0))
			}
			mu.Lock()
			res.rounds += cfg.rounds
			res.latencies = append(res.latencies, lats...)
			mu.Unlock()
		}(id)
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	select {
	case err := <-ec:
		return result{}, err
	default:
	}
	return res, nil
}

// runPool plays every session through the labelpool: windows of
// cfg.window abstain-all submissions per enqueue request, with one SSE
// stream per session counting the applied rounds. With -rate set the
// enqueue requests across all workers are paced open-loop by a shared
// ticker instead of each worker running as fast as its session drains.
func runPool(c *client.Client, cfg config) (result, error) {
	ctx := context.Background()
	ids, err := createAll(ctx, c, cfg)
	if err != nil {
		return result{}, err
	}
	var pace <-chan time.Time
	if cfg.rate > 0 {
		t := time.NewTicker(time.Duration(float64(time.Second) / cfg.rate))
		defer t.Stop()
		pace = t.C
	}
	var (
		mu  sync.Mutex
		res result
		wg  sync.WaitGroup
		ec  = make(chan error, 2*len(ids))
	)
	start := time.Now()
	for _, id := range ids {
		wg.Add(1)
		go func(id string) {
			defer wg.Done()

			// The stream is the completion signal: cancel once every
			// round of the window has been observed applied.
			sctx, cancel := context.WithCancel(ctx)
			defer cancel()
			streamDone := make(chan struct{})
			go func() {
				defer close(streamDone)
				seen := 0
				err := c.StreamRounds(sctx, id, 0, func(ev client.StreamEvent) error {
					if ev.Type == "round" {
						if seen++; seen >= cfg.rounds {
							cancel()
						}
					}
					return nil
				})
				if err != nil && sctx.Err() == nil {
					ec <- fmt.Errorf("stream %s: %w", id, err)
				}
			}()

			var lats []time.Duration
			for lo := 0; lo < cfg.rounds; lo += cfg.window {
				hi := lo + cfg.window
				if hi > cfg.rounds {
					hi = cfg.rounds
				}
				subs := make([]client.Submission, 0, hi-lo)
				for r := lo; r < hi; r++ {
					subs = append(subs, client.Submission{Round: r})
				}
				if pace != nil {
					<-pace
				}
				t0 := time.Now()
				if _, err := c.Enqueue(ctx, id, subs); err != nil {
					ec <- fmt.Errorf("enqueue %s rounds [%d,%d): %w", id, lo, hi, err)
					cancel()
					return
				}
				lats = append(lats, time.Since(t0))
			}
			<-streamDone
			mu.Lock()
			res.rounds += cfg.rounds
			res.latencies = append(res.latencies, lats...)
			mu.Unlock()
		}(id)
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	select {
	case err := <-ec:
		return result{}, err
	default:
	}
	return res, nil
}

// createAll provisions one session per worker up front so creation
// cost stays out of the measured window.
func createAll(ctx context.Context, c *client.Client, cfg config) ([]string, error) {
	ids := make([]string, cfg.sessions)
	var wg sync.WaitGroup
	ec := make(chan error, cfg.sessions)
	for i := range ids {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			info, err := c.Create(ctx, cfg.spec(i))
			if err != nil {
				ec <- fmt.Errorf("create session %d: %w", i, err)
				return
			}
			ids[i] = info.ID
		}(i)
	}
	wg.Wait()
	select {
	case err := <-ec:
		return nil, err
	default:
	}
	return ids, nil
}

// delayStore simulates a remote checkpoint store — a network
// filesystem, an object store, a database — by sleeping a fixed
// latency before every operation over an in-memory store, and counts
// the operations. Any number of its calls can wait at once, which no
// store etserve opens allows (a directory store commits one Put at a
// time), so the -park overlap figure is a record of how many store
// waits the manager keeps in flight, not a throughput a deployment
// sees.
type delayStore struct {
	d     time.Duration
	inner persist.Store
	calls atomic.Int64
}

func (s *delayStore) wait(ctx context.Context) error {
	s.calls.Add(1)
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-time.After(s.d):
		return nil
	}
}

func (s *delayStore) Put(ctx context.Context, id string, snap *persist.Snapshot) error {
	if err := s.wait(ctx); err != nil {
		return err
	}
	return s.inner.Put(ctx, id, snap)
}

func (s *delayStore) Get(ctx context.Context, id string) (*persist.Snapshot, error) {
	if err := s.wait(ctx); err != nil {
		return nil, err
	}
	return s.inner.Get(ctx, id)
}

func (s *delayStore) Delete(ctx context.Context, id string) error {
	if err := s.wait(ctx); err != nil {
		return err
	}
	return s.inner.Delete(ctx, id)
}

func (s *delayStore) List(ctx context.Context) ([]string, error) {
	if err := s.wait(ctx); err != nil {
		return nil, err
	}
	return s.inner.List(ctx)
}

// runPark drives a service.Manager directly (no HTTP) through a
// park-heavy access pattern: every round each session plays one
// Next/Submit, then a Sweep parks the whole fleet through the delayed
// store and the next round's requests transparently unpark it. It
// emits the throughput line and the store-overlap ratio:
//
//	BenchmarkParkServe ...
//	BenchmarkParkOverlap 1 1.40 x-vs-serial-store
//
// The ratio is store calls in the timed window × store delay ÷ elapsed
// time: the mean number of store waits in flight, so 1.0 means the
// manager waited on the store one call at a time. Sweep parks one
// session at a time; what overlap there is comes from the workers'
// concurrent unparks.
func runPark(cfg config) error {
	ctx := context.Background()
	store := &delayStore{d: cfg.storeDelay, inner: persist.NewMemStore()}
	m := service.NewManager(service.Options{
		// The whole fleet fits: parking comes from the per-round Sweep,
		// not from capacity churn.
		MaxSessions: cfg.sessions,
		IdleTTL:     time.Nanosecond, // every session is sweep-eligible the moment it goes idle
		Store:       store,
	})
	ids := make([]string, cfg.sessions)
	for i := range ids {
		info, err := m.Create(ctx, service.Spec{
			Source: service.Source{Dataset: cfg.dataset, Rows: cfg.rows, Seed: cfg.seed + uint64(i)},
			Method: sampling.MethodStochasticUS,
			K:      cfg.k,
			Seed:   cfg.seed + uint64(i),
		})
		if err != nil {
			return fmt.Errorf("create session %d: %w", i, err)
		}
		ids[i] = info.ID
	}
	workers := cfg.sessions
	if workers > 32 {
		workers = 32
	}
	var (
		mu  sync.Mutex
		res result
		ec  = make(chan error, workers)
	)
	callsBefore := store.calls.Load()
	start := time.Now()
	for r := 0; r < cfg.rounds; r++ {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				var lats []time.Duration
				for i := w; i < len(ids); i += workers {
					t0 := time.Now()
					if _, err := m.Next(ctx, ids[i]); err != nil {
						ec <- fmt.Errorf("next %s round %d: %w", ids[i], r, err)
						return
					}
					if _, err := m.Submit(ctx, ids[i], r, nil); err != nil {
						ec <- fmt.Errorf("submit %s round %d: %w", ids[i], r, err)
						return
					}
					lats = append(lats, time.Since(t0))
				}
				mu.Lock()
				res.latencies = append(res.latencies, lats...)
				mu.Unlock()
			}(w)
		}
		wg.Wait()
		select {
		case err := <-ec:
			return err
		default:
		}
		if _, err := m.Sweep(ctx); err != nil {
			return fmt.Errorf("sweep round %d: %w", r, err)
		}
	}
	res.rounds = cfg.sessions * cfg.rounds
	res.elapsed = time.Since(start)
	calls := store.calls.Load() - callsBefore
	if err := m.Shutdown(ctx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	emit("ParkServe", res)
	fmt.Printf("BenchmarkParkOverlap 1 %.2f x-vs-serial-store\n",
		float64(calls)*cfg.storeDelay.Seconds()/res.elapsed.Seconds())
	return nil
}

// serialDiskStore models one disk with one fsync queue: every Put
// holds the disk for a fixed latency, so concurrent checkpointers
// serialize exactly the way fsyncs on a single spindle do. The WAL
// side of the comparison gives its log the same per-fsync latency via
// wal.Config.SyncDelay (the committer goroutine is its own serial
// queue), so the measured difference is purely how many sessions'
// rounds ride each fsync and how many bytes each one carries. Reads
// stay cheap: recovery and resume are off the measured path.
type serialDiskStore struct {
	d     time.Duration
	mu    sync.Mutex
	inner persist.Store
}

func (s *serialDiskStore) Put(ctx context.Context, id string, snap *persist.Snapshot) error {
	// Only the simulated disk time is serialized; the in-memory write
	// happens outside the lock (MemStore synchronizes itself).
	s.mu.Lock()
	select {
	case <-ctx.Done():
		s.mu.Unlock()
		return ctx.Err()
	case <-time.After(s.d):
	}
	s.mu.Unlock()
	return s.inner.Put(ctx, id, snap)
}

func (s *serialDiskStore) Get(ctx context.Context, id string) (*persist.Snapshot, error) {
	return s.inner.Get(ctx, id)
}

func (s *serialDiskStore) Delete(ctx context.Context, id string) error {
	return s.inner.Delete(ctx, id)
}

func (s *serialDiskStore) List(ctx context.Context) ([]string, error) {
	return s.inner.List(ctx)
}

// runWalCompare measures the cost of making every submitted round
// durable, two ways, over the same fsync-bound disk:
//
//	BenchmarkWalSnapshot ...   each submit Puts a full snapshot
//	BenchmarkWalCommit ...     each submit rides a WAL group commit
//	BenchmarkWalSpeedup 1 12.41 x-vs-snapshot
func runWalCompare(cfg config) error {
	snap, err := runWalWorkload(cfg, &serialDiskStore{d: cfg.storeDelay, inner: persist.NewMemStore()}, true)
	if err != nil {
		return fmt.Errorf("snapshot mode: %w", err)
	}
	emit("WalSnapshot", snap)

	dir, err := os.MkdirTemp("", "etload-wal-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	ws, _, err := wal.OpenStore(
		&serialDiskStore{d: cfg.storeDelay, inner: persist.NewMemStore()},
		dir,
		wal.StoreConfig{Wal: wal.Config{SyncDelay: cfg.storeDelay}},
	)
	if err != nil {
		return fmt.Errorf("opening wal: %w", err)
	}
	defer ws.Close()
	committed, err := runWalWorkload(cfg, ws, false)
	if err != nil {
		return fmt.Errorf("wal mode: %w", err)
	}
	emit("WalCommit", committed)

	if snap.throughput() > 0 {
		fmt.Printf("BenchmarkWalSpeedup 1 %.2f x-vs-snapshot\n",
			committed.throughput()/snap.throughput())
	}
	return nil
}

// runWalWorkload drives a service.Manager directly through the
// durability-bound submit pattern: every worker plays Next/Submit
// rounds across its slice of the fleet, and each submit only counts
// once it is durable — via an explicit full snapshot in snapshotEach
// mode, or by the submit itself acking off its WAL group commit
// otherwise. Session creation (and the WAL mode's base snapshots)
// happens before the clock starts.
func runWalWorkload(cfg config, store persist.Store, snapshotEach bool) (result, error) {
	ctx := context.Background()
	m := service.NewManager(service.Options{
		MaxSessions: 2 * cfg.sessions,
		IdleTTL:     time.Hour,
		Store:       store,
	})
	ids := make([]string, cfg.sessions)
	for i := range ids {
		info, err := m.Create(ctx, service.Spec{
			Source: service.Source{Dataset: cfg.dataset, Rows: cfg.rows, Seed: cfg.seed + uint64(i)},
			Method: sampling.MethodStochasticUS,
			K:      cfg.k,
			Seed:   cfg.seed + uint64(i),
		})
		if err != nil {
			return result{}, fmt.Errorf("create session %d: %w", i, err)
		}
		ids[i] = info.ID
	}
	workers := cfg.sessions
	if workers > 32 {
		workers = 32
	}
	var (
		mu  sync.Mutex
		res result
		ec  = make(chan error, workers)
	)
	start := time.Now()
	for r := 0; r < cfg.rounds; r++ {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				var lats []time.Duration
				for i := w; i < len(ids); i += workers {
					t0 := time.Now()
					if _, err := m.Next(ctx, ids[i]); err != nil {
						ec <- fmt.Errorf("next %s round %d: %w", ids[i], r, err)
						return
					}
					if _, err := m.Submit(ctx, ids[i], r, nil); err != nil {
						ec <- fmt.Errorf("submit %s round %d: %w", ids[i], r, err)
						return
					}
					if snapshotEach {
						if _, err := m.Snapshot(ctx, ids[i]); err != nil {
							ec <- fmt.Errorf("snapshot %s round %d: %w", ids[i], r, err)
							return
						}
					}
					lats = append(lats, time.Since(t0))
				}
				mu.Lock()
				res.latencies = append(res.latencies, lats...)
				mu.Unlock()
			}(w)
		}
		wg.Wait()
		select {
		case err := <-ec:
			return result{}, err
		default:
		}
	}
	res.rounds = cfg.sessions * cfg.rounds
	res.elapsed = time.Since(start)
	if err := m.Shutdown(ctx); err != nil {
		return result{}, fmt.Errorf("shutdown: %w", err)
	}
	return res, nil
}
