// Command etload load-tests an exploratory-training server through the
// public client, comparing the request-per-round submission path
// against the batched labelpool pipeline and reporting sustained
// throughput plus latency percentiles in `go test -bench` line format,
// so the numbers pipe straight into benchjson:
//
//	etload -sessions 16 -rounds 8 | benchjson > BENCH_Labelpool.json
//
// Both paths play every session for exactly -rounds abstain-all rounds,
// against separate sessions:
//
//   - baseline: the interactive path — each round is one GET /next plus
//     one POST /submit, the client blocking on both (closed loop).
//   - pool: the batched path — submissions enqueue in windows of
//     -window rounds per POST /submissions, and one SSE stream per
//     session observes the applied rounds.
//
// A BenchmarkLabelpoolSpeedup line closes the output with the pool's
// throughput over the baseline's.
//
// The target is a running etserve (-addr) or, when -addr is empty, an
// in-process manager+server on a loopback listener, which is what
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
// whole window. `make loadsmoke` records that configuration; the delay
// is a labelled model of the network, not a measured one.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"

	"exptrain/client"
	"exptrain/internal/service"
)

// config is etload's flag surface.
type config struct {
	addr     string
	sessions int
	rounds   int
	window   int
	dataset  string
	rows     int
	k        int
	seed     uint64
	netDelay time.Duration
}

func main() {
	var cfg config
	flag.StringVar(&cfg.addr, "addr", "", "base URL of a running server (e.g. http://localhost:8080); empty serves an in-process manager on a loopback listener")
	flag.IntVar(&cfg.sessions, "sessions", 16, "concurrent sessions per path")
	flag.IntVar(&cfg.rounds, "rounds", 8, "rounds played per session")
	flag.IntVar(&cfg.window, "window", 4, "rounds per enqueue request on the pool path")
	flag.StringVar(&cfg.dataset, "dataset", "OMDB", "synthetic dataset name")
	flag.IntVar(&cfg.rows, "rows", 60, "synthetic dataset rows")
	flag.IntVar(&cfg.k, "k", 4, "pairs per round")
	flag.Uint64Var(&cfg.seed, "seed", 1, "base seed; session i uses seed+i")
	flag.DurationVar(&cfg.netDelay, "net-delay", 0, "simulated client-side round-trip delay per request (e.g. 10ms)")
	flag.Parse()
	if err := run(os.Stdout, cfg); err != nil {
		log.Fatal("etload: ", err)
	}
}

// run plays the baseline, then the pool path, and writes their result
// lines and the speedup line to w.
func run(w io.Writer, cfg config) error {
	if cfg.window < 1 || cfg.window > cfg.rounds {
		cfg.window = cfg.rounds
	}
	base := cfg.addr
	if base == "" {
		stop, url, err := serveInproc()
		if err != nil {
			return err
		}
		defer stop()
		base = url
	}
	hc := &http.Client{}
	if cfg.netDelay > 0 {
		hc.Transport = &delayTransport{rtt: cfg.netDelay, next: http.DefaultTransport}
	}
	c := client.New(base, client.Options{HTTP: hc})

	baseline, err := runBaseline(c, cfg)
	if err != nil {
		return fmt.Errorf("baseline: %w", err)
	}
	emit(w, "LabelpoolBaseline", baseline)
	pool, err := runPool(c, cfg)
	if err != nil {
		return fmt.Errorf("pool: %w", err)
	}
	emit(w, "LabelpoolPool", pool)
	if baseline.throughput() > 0 {
		fmt.Fprintf(w, "BenchmarkLabelpoolSpeedup 1 %.2f x-vs-baseline\n",
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
func emit(w io.Writer, name string, r result) {
	fmt.Fprintf(w, "Benchmark%s %d %d ns/op %.1f submissions/sec %d p50-req-ns %d p99-req-ns\n",
		name, r.rounds, int64(r.elapsed.Nanoseconds())/int64(max(r.rounds, 1)),
		r.throughput(), r.percentile(0.50).Nanoseconds(), r.percentile(0.99).Nanoseconds())
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
// stream per session counting the applied rounds.
func runPool(c *client.Client, cfg config) (result, error) {
	ctx := context.Background()
	ids, err := createAll(ctx, c, cfg)
	if err != nil {
		return result{}, err
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
