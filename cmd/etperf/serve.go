package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"exptrain/client"
	"exptrain/internal/persist"
	"exptrain/internal/persist/wal"
	"exptrain/internal/service"
)

// servingSpec is the shape of one HTTP workload. Every serving workload
// is a closed loop: an annotator waits for its pairs before labelling.
// The work comes in passes of a fixed set of sessions, each pass on a
// fresh server; passes repeat until the run's seconds are spent. A pass
// always completes, so the first one is the same in every run of a seed
// and carries the correctness checks.
type servingSpec struct {
	name        string
	dataset     string
	rows, k     int
	rounds      int // rounds per session
	sessions    int // sessions per pass at -scale 1
	maxSessions int
	disk        bool // write-ahead log and snapshot directory on disk
	evictAfter  int  // evict each session after this many rounds (0 = never)
	window      int  // rounds per POST /submissions (0 = /next+/submit)
	depth       int  // windows a batched session keeps in flight
}

var (
	interactiveSpec = servingSpec{name: "interactive", dataset: "OMDB", rows: 240, k: 10, rounds: 48,
		sessions: 24, maxSessions: 256}
	durableSpec = servingSpec{name: "durable", dataset: "OMDB", rows: 24, k: 2, rounds: 40,
		sessions: 64, maxSessions: 1024, disk: true, evictAfter: 20}
	// batchedSpec crosses the WAL's CompactEvery of 64 rounds, so
	// background compaction runs. depth*window stays within the
	// labelpool's default bound of 64 queued submissions.
	batchedSpec = servingSpec{name: "batched", dataset: "OMDB", rows: 24, k: 2, rounds: 96,
		sessions: 64, maxSessions: 1024, disk: true, window: 8, depth: 4}
)

const (
	// setupsPerBlock is how many times a run sets its workload up before
	// each measured block; setup_s is the median. Spreading the set-ups
	// over the run keeps a passing burst of slow fsyncs on a shared disk
	// from deciding it.
	setupsPerBlock = 3
	// oracleSessions of the first pass are replayed through the engine.
	oracleSessions = 8
)

// workers is the number of client workers: one per CPU, each with one
// keep-alive connection, or for batched one per two CPUs, each holding
// a request connection and an SSE stream.
func (sp servingSpec) workers() int {
	if sp.window > 0 {
		return max(1, runtime.NumCPU()/2)
	}
	return runtime.NumCPU()
}

func (sp servingSpec) perPass(scale float64) int {
	return max(1, int(math.Round(float64(sp.sessions)*scale)))
}

func (sp servingSpec) create(seed uint64) client.CreateSession {
	return client.CreateSession{Dataset: sp.dataset, Rows: sp.rows, K: sp.k, Method: "StochasticUS", Seed: seed}
}

// stack is one in-process server: the real service handler on a
// loopback listener, driven through the public client.
type stack struct {
	mgr    *service.Manager
	srv    *http.Server
	served sync.WaitGroup
	hc     *http.Transport
	c      *client.Client
	ws     *wal.Store // nil without a disk store
	dir    string
}

// open builds a stack and waits until it answers. With a tracer the
// handler and both store layers are wrapped in timing spans.
func (sp servingSpec) open(ctx context.Context, workdir string, tr *tracer) (st *stack, err error) {
	st = &stack{}
	defer func() {
		if err != nil {
			_ = st.close() // the open error is the one to report
			st = nil
		}
	}()
	opts := service.Options{MaxSessions: sp.maxSessions}
	if sp.disk {
		if st.dir, err = os.MkdirTemp(workdir, "etperf-"+sp.name+"-"); err != nil {
			return st, err
		}
		ds, err := persist.NewDirStore(filepath.Join(st.dir, "snapshots"))
		if err != nil {
			return st, err
		}
		var inner persist.Store = ds
		if tr != nil {
			inner = &timedStore{inner: ds, layer: "persist", tr: tr}
		}
		if st.ws, _, err = wal.OpenStore(inner, filepath.Join(st.dir, "wal"), wal.StoreConfig{}); err != nil {
			return st, err
		}
		opts.Store = st.ws
		if tr != nil {
			opts.Store = &timedStore{inner: st.ws, layer: "wal", tr: tr}
		}
	}
	st.mgr = service.NewManager(opts)
	var h http.Handler = service.NewServer(st.mgr, service.ServerOptions{})
	if tr != nil {
		h = &timedHandler{next: h, tr: tr}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return st, err
	}
	st.srv = &http.Server{Handler: h}
	st.served.Add(1)
	go func() {
		defer st.served.Done()
		_ = st.srv.Serve(ln) // returns ErrServerClosed once close shuts it down
	}()
	st.hc = &http.Transport{MaxIdleConnsPerHost: 2 * runtime.NumCPU()}
	// No retries: a refused request (429) counts as failed.
	st.c = client.New("http://"+ln.Addr().String(), client.Options{
		HTTP: &http.Client{Transport: st.hc}, Retry: client.RetryPolicy{MaxAttempts: 1},
	})
	if _, err := st.c.Health(ctx); err != nil {
		return st, err
	}
	return st, nil
}

// close drains the manager (which checkpoints every live session),
// stops the server, closes the log and removes the run's files.
func (st *stack) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	var errs []error
	if st.mgr != nil {
		errs = append(errs, st.mgr.Shutdown(ctx))
	}
	if st.srv != nil {
		errs = append(errs, st.srv.Shutdown(ctx))
		st.served.Wait()
	}
	if st.hc != nil {
		st.hc.CloseIdleConnections()
	}
	if st.ws != nil {
		errs = append(errs, st.ws.Close())
	}
	if st.dir != "" {
		errs = append(errs, os.RemoveAll(st.dir))
	}
	return errors.Join(errs...)
}

// sessionRun is what playing one session observed.
type sessionRun struct {
	id         string
	seed       uint64
	want, got  int // rounds the session must end with; rounds the server reported
	firstPairs time.Duration
	rounds     []time.Duration
	lags       []time.Duration // batched: enqueue response → round frame
	ops        int64
	failed     int64
	rejected   int64 // 429 submission_backlog
	frames     int64
	err        error
	// labels (and, where the client saw them, pairs) of every round,
	// kept for the sessions the oracle replays.
	labels [][]client.Labeling
	pairs  [][]client.Pair
}

func (r *sessionRun) fail(err error) {
	r.failed++
	if errors.Is(err, client.ErrSubmissionBacklog) {
		r.rejected++
	}
	if r.err == nil {
		r.err = err
	}
}

// playInteractive plays one session through /next and /submit.
func (sp servingSpec) playInteractive(ctx context.Context, c *client.Client, seed uint64, keep bool, tr *tracer) (run sessionRun) {
	run = sessionRun{seed: seed, want: sp.rounds}
	an := newAnnotator(seed)
	t0 := time.Now()
	info, err := c.Create(ctx, sp.create(seed))
	run.ops++
	if err != nil {
		run.fail(err)
		return run
	}
	run.id = info.ID
	tr.since("client.create", run.id, -1, t0)
	for r := 0; r < sp.rounds; r++ {
		if sp.evictAfter > 0 && r == sp.evictAfter {
			te := time.Now()
			err := c.Evict(ctx, run.id)
			run.ops++
			tr.since("client.evict", run.id, r, te)
			if err != nil {
				run.fail(err)
				return run
			}
		}
		tn := time.Now()
		pairs, err := c.Next(ctx, run.id)
		run.ops++
		tl := time.Now()
		tr.add("client.next", run.id, r, tn, tl, 0)
		if err != nil {
			run.fail(err)
			return run
		}
		if r == 0 {
			run.firstPairs = tl.Sub(t0)
		}
		labels := an.interactive(r, pairs)
		ts := time.Now()
		info, err = c.Submit(ctx, run.id, r, labels)
		run.ops++
		t1 := time.Now()
		tr.add("client.submit", run.id, r, ts, t1, 0)
		tr.add("client.round", run.id, r, tn, t1, 0)
		if err != nil {
			run.fail(err)
			return run
		}
		if r > 0 {
			run.rounds = append(run.rounds, t1.Sub(tn))
		}
		run.got = info.Rounds
		if keep {
			run.labels = append(run.labels, labels)
			run.pairs = append(run.pairs, pairs)
		}
	}
	return run
}

// playBatched plays one session through the labelpool: a /next for
// round 0's pairs, then windows of rounds per POST /submissions with up
// to depth windows in flight, while an SSE stream reports each applied
// round. A round's latency runs from its window's send to its frame.
func (sp servingSpec) playBatched(ctx context.Context, c *client.Client, seed uint64, keep bool, tr *tracer) (run sessionRun) {
	run = sessionRun{seed: seed}
	an := newAnnotator(seed)
	t0 := time.Now()
	info, err := c.Create(ctx, sp.create(seed))
	run.ops++
	if err != nil {
		run.fail(err)
		return run
	}
	run.id = info.ID
	tr.since("client.create", run.id, -1, t0)
	// A session never plays past its pool; small relations can hold
	// fewer candidate pairs than rounds × k.
	rounds := min(sp.rounds, info.Remaining/sp.k)
	run.want = rounds
	first, err := c.Next(ctx, run.id)
	run.ops++
	if err != nil {
		run.fail(err)
		return run
	}
	run.firstPairs = time.Since(t0)

	sctx, cancel := context.WithCancel(ctx)
	defer cancel()
	arrived := make([]time.Time, rounds)
	progress := make(chan struct{}, rounds) // one send per applied round
	streamDone := make(chan error, 1)
	run.ops++
	go func() {
		streamDone <- c.StreamRounds(sctx, run.id, 0, func(ev client.StreamEvent) error {
			run.frames++
			if ev.Type == "round" && ev.Round.Round < rounds {
				arrived[ev.Round.Round] = time.Now()
				progress <- struct{}{}
			}
			return nil
		})
	}()
	applied := 0
	// await blocks until n rounds have been applied or the stream ends.
	// The server ends the stream once the pool is empty, so the last
	// round frames and the stream's end can be ready together: frames
	// already delivered count before the end is judged early.
	await := func(n int) error {
		for applied < n {
			select {
			case <-progress:
				applied++
			case err := <-streamDone:
				streamDone <- err
				for applied < n && len(progress) > 0 {
					<-progress
					applied++
				}
				if applied >= n {
					return nil
				}
				if err == nil {
					err = errors.New("stream ended early")
				}
				return err
			}
		}
		return nil
	}

	windows := (rounds + sp.window - 1) / sp.window
	sent := make([]time.Time, windows)
	acked := make([]time.Time, windows)
	var werr error
	for w := 0; w < windows && werr == nil; w++ {
		if werr = await((w - sp.depth + 1) * sp.window); werr != nil {
			break
		}
		tw := time.Now()
		lo, hi := w*sp.window, min((w+1)*sp.window, rounds)
		subs := make([]client.Submission, 0, hi-lo)
		for r := lo; r < hi; r++ {
			labels := an.batched(r, first)
			subs = append(subs, client.Submission{Round: r, Labels: labels})
			if keep {
				run.labels = append(run.labels, labels)
				run.pairs = append(run.pairs, nil)
			}
		}
		if keep && lo == 0 {
			run.pairs[0] = first
		}
		sent[w] = time.Now()
		_, werr = c.Enqueue(ctx, run.id, subs)
		run.ops++
		acked[w] = time.Now()
		tr.add("client.enqueue", run.id, lo, sent[w], acked[w], 0)
		tr.add("client.window", run.id, lo, tw, acked[w], 0)
	}
	if werr == nil {
		werr = await(rounds)
	}
	cancel()
	if serr := <-streamDone; serr != nil && !errors.Is(serr, context.Canceled) && werr == nil {
		werr = serr
	}
	if werr != nil {
		run.fail(werr)
		return run
	}
	run.got = applied
	for r := 0; r < rounds; r++ {
		w := r / sp.window
		run.rounds = append(run.rounds, arrived[r].Sub(sent[w]))
		run.lags = append(run.lags, max(arrived[r].Sub(acked[w]), 0))
	}
	return run
}

// phase is what a run of passes measured.
type phase struct {
	blocks            []block   // one per measured pass
	setups            []float64 // s, setupsPerBlock before each measured pass
	lags              []float64 // ms
	roundsDone        int
	resident          int // sessions per pass
	cost              runtimeCost
	attempted, failed int64
	rejected, frames  int64
	walStats          persist.WalStats
	walBytes          int64
	digest            string
	problems          []string
	timers            []*engineTimer // of the replayed sessions
}

func (p *phase) problem(format string, args ...any) {
	p.problems = append(p.problems, fmt.Sprintf(format, args...))
}

// phase plays passes while the given time lasts — or only the first
// pass when seconds is 0 — recording spans into tr during the passes.
// A pass always completes; none starts after the deadline.
func (sp servingSpec) phase(ctx context.Context, o options, seconds int, tr *tracer) (*phase, error) {
	out := &phase{}
	deadline := time.Now().Add(time.Duration(seconds) * time.Second)
	for pass := 0; pass == 0 || seconds > 0 && (pass == 1 || time.Now().Before(deadline)); pass++ {
		// The first pass runs while the process warms up — its heap
		// grows from nothing, and it ran ~25% slower than later ones —
		// so it is measured only when it is the only pass.
		measured := pass > 0 || seconds == 0
		for i := 0; measured && i < setupsPerBlock; i++ {
			d, err := sp.setUp(ctx, o)
			out.attempted += 3
			if err != nil {
				return nil, fmt.Errorf("set-up: %w", err)
			}
			out.setups = append(out.setups, d.Seconds())
		}
		st, err := sp.open(ctx, o.workdir, tr)
		if err != nil {
			return nil, err
		}
		hw := watchHeap()
		tr.enable(true)
		mark := markRuntime()
		runs, busy := sp.pass(ctx, st.c, o, pass, tr)
		out.resident = len(runs)
		out.cost.since(mark)
		tr.enable(false)
		hw.settle()
		blk := block{heapMB: hw.close()}

		done, games := 0, 0
		for _, r := range runs {
			out.attempted += r.ops
			out.failed += r.failed
			out.rejected += r.rejected
			out.frames += r.frames
			if r.err != nil {
				out.problem("session %s (seed %d): %v", r.id, r.seed, r.err)
				continue
			}
			if r.got != r.want {
				out.problem("session %s ended with %d rounds, want %d", r.id, r.got, r.want)
			}
			done += r.got
			games++
			blk.firstPairs = append(blk.firstPairs, ms(r.firstPairs))
			for _, d := range r.rounds {
				blk.rounds = append(blk.rounds, ms(d))
			}
			for _, d := range r.lags {
				out.lags = append(out.lags, ms(d))
			}
		}
		out.roundsDone += done
		blk.rate = float64(done) / busy.Seconds()
		blk.gameRate = float64(games) / busy.Seconds()
		if measured {
			out.blocks = append(out.blocks, blk)
		}
		if pass == 0 {
			sp.verify(ctx, st.c, runs, out, tr)
		}
		if st.ws != nil {
			ws, _ := st.ws.WalStats()
			out.walStats.Appended += ws.Appended
			out.walStats.Fsyncs += ws.Fsyncs
			out.walStats.FsyncP99Ms = max(out.walStats.FsyncP99Ms, ws.FsyncP99Ms)
			out.walStats.CompactionLag = max(out.walStats.CompactionLag, ws.CompactionLag)
			out.walBytes += dirBytes(filepath.Join(st.dir, "wal"))
		}
		if err := st.close(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// pass plays one pass's sessions on a pool of client workers. Session i
// of pass p uses seed+p*n+i.
func (sp servingSpec) pass(ctx context.Context, c *client.Client, o options, pass int, tr *tracer) ([]sessionRun, time.Duration) {
	n := sp.perPass(o.scale)
	stride := max(1, n/oracleSessions)
	runs := make([]sessionRun, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < sp.workers(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				seed := o.seed + uint64(pass*n+i)
				keep := pass == 0 && i%stride == 0 && i/stride < oracleSessions
				if sp.window > 0 {
					runs[i] = sp.playBatched(ctx, c, seed, keep, tr)
				} else {
					runs[i] = sp.playInteractive(ctx, c, seed, keep, tr)
				}
			}
		}()
	}
	wg.Wait()
	return runs, time.Since(start)
}

// verify fetches every first-pass session's served series, digests
// them and replays the sampled sessions. It runs before the pass's
// server is torn down, so the replay sees the heap — and so the garbage
// collector pacing — the served rounds saw.
func (sp servingSpec) verify(ctx context.Context, c *client.Client, runs []sessionRun, out *phase, tr *tracer) {
	h := newDigest()
	replays := 0
	for i, r := range runs {
		if r.err != nil {
			out.problem("first pass: session %d did not complete", i)
			continue
		}
		series, err := c.Rounds(ctx, r.id)
		out.attempted++
		if err != nil {
			out.failed++
			out.problem("GET /rounds of %s: %v", r.id, err)
			continue
		}
		if len(series) != r.want {
			out.problem("session %s serves %d rounds, want %d", r.id, len(series), r.want)
		}
		for _, v := range series {
			fmt.Fprintf(h, "%d %d %d %d %x %x\n", i, v.Round, v.Labeled, v.Revised, math.Float64bits(v.MAE), math.Float64bits(v.Payoff))
		}
		if r.labels == nil {
			continue
		}
		replays++
		tr.enable(true)
		t, err := sp.replay(ctx, r, series, tr)
		tr.enable(false)
		if err != nil {
			out.problem("%v", err)
			continue
		}
		out.timers = append(out.timers, t)
	}
	if replays == 0 {
		out.problem("no session was replayed")
	}
	out.digest = h.sum()
}

// run measures a serving workload: the measured passes with their
// set-ups, the replay oracle and, when traced, one more traced pass.
func (sp servingSpec) run(ctx context.Context, o options, tr *tracer) (*result, error) {
	res := &result{correct: true}
	a, err := sp.phase(ctx, o, o.seconds, nil)
	if err != nil {
		return nil, err
	}
	check(res, a)
	res.digest = a.digest
	res.add("setup_s", percentile(a.setups, 0.5), "s", len(a.setups))
	reportBlocks(res, a.blocks)
	if tr == nil || !res.correct {
		return res, nil
	}

	b, err := sp.phase(ctx, o, 0, tr)
	if err != nil {
		return nil, err
	}
	if b.digest != a.digest {
		res.fail("the traced pass served digest %s, the untraced one %s", b.digest, a.digest)
	}
	check(res, b)
	res.spans = tr.link()
	sp.layers(res, res.spans, a, b)
	return res, nil
}

// check folds a phase's problems and operation counts into the result.
func check(res *result, p *phase) {
	res.attempted += p.attempted
	res.failed += p.failed
	for _, msg := range p.problems {
		res.fail("%s", msg)
	}
}

// layers derives the per-layer metrics of a serving workload from the
// traced pass b (with its replays) and the untraced phase a.
func (sp servingSpec) layers(res *result, s []span, a, b *phase) {
	reportEngine(res, s)
	a.cost.report(res, a.roundsDone)
	root := "client.round"
	if sp.window > 0 {
		root = "client.window"
	}
	res.add("trace.unattributed_share", unattributed(s, root), "ratio", 0)
	rate := func(b block) float64 { return b.rate }
	res.add("trace.overhead", blockMedian(b.blocks, rate)/blockMedian(a.blocks, rate), "ratio", 0)

	// The rest are printed where the workload exercises the layer.
	addP := func(name string, xs []float64, q float64, unit string) {
		if len(xs) > 0 {
			res.add(name, percentile(xs, q), unit, len(xs))
		}
	}
	type key struct {
		sess  string
		round int
	}
	clientMs := map[key]float64{}
	handlerMs := map[key]float64{}
	handlerSelfMs := map[key]float64{}
	engineMs := map[key]float64{}
	for _, x := range s {
		k := key{x.Sess, x.Round}
		switch x.Name {
		case "client.next", "client.submit":
			clientMs[k] += float64(x.dur()) / 1e6
		case "http.next", "http.submit":
			handlerMs[k] += float64(x.dur()) / 1e6
			handlerSelfMs[k] += float64(x.Self) / 1e6
		case "game.select", "game.update", "game.score":
			if id, ok := strings.CutPrefix(x.Sess, "replay/"); ok {
				engineMs[key{id, x.Round}] += float64(x.dur()) / 1e6
			}
		}
	}
	var overhead, self []float64
	var engine, handler float64
	for k, c := range clientMs {
		overhead = append(overhead, c-handlerMs[k])
		if e, ok := engineMs[k]; ok {
			self = append(self, handlerSelfMs[k]-e)
			engine += e
			handler += handlerMs[k]
		}
	}
	addP("client.overhead_ms.p50", overhead, 0.5, "ms")
	addP("service.create_ms.p50", durations(s, "http.create", nil), 0.5, "ms")
	addP("service.first_next_ms.p50", durations(s, "http.next", func(x span) bool { return x.Round == 0 }), 0.5, "ms")
	steady := func(x span) bool { return x.Round > 0 && (sp.evictAfter == 0 || x.Round != sp.evictAfter) }
	addP("service.next_ms.p50", durations(s, "http.next", steady), 0.5, "ms")
	addP("service.next_ms.p99", durations(s, "http.next", steady), 0.99, "ms")
	addP("service.submit_ms.p50", durations(s, "http.submit", nil), 0.5, "ms")
	addP("service.submit_ms.p99", durations(s, "http.submit", nil), 0.99, "ms")
	// The replayed engine time only estimates the engine's share of a
	// handler, so the difference is reported where the engine is a
	// small part of it (durable) and the ratio where it is most of it.
	if sp.evictAfter > 0 {
		addP("service.self_ms.p50", self, 0.5, "ms")
		addP("service.unpark_next_ms.p50", durations(s, "http.next", func(x span) bool { return x.Round == sp.evictAfter }), 0.5, "ms")
		addP("service.evict_ms.p50", durations(s, "http.evict", nil), 0.5, "ms")
	} else if handler > 0 {
		res.add("game.engine_share", engine/handler, "ratio", 0)
	}
	var cands []float64
	for _, t := range b.timers {
		cands = append(cands, t.candidates...)
	}
	addP("sampling.candidates_per_select", cands, 0.5, "count")
	if sp.window > 0 {
		addP("labelpool.enqueue_ms.p50", durations(s, "http.enqueue", nil), 0.5, "ms")
		addP("labelpool.apply_lag_ms.p50", b.lags, 0.5, "ms")
		addP("labelpool.apply_lag_ms.p99", b.lags, 0.99, "ms")
		res.add("labelpool.rejected", float64(a.rejected+b.rejected), "count", 0)
		res.add("stream.frames_per_round", float64(b.frames)/float64(max(b.roundsDone, 1)), "ratio", 0)
	}
	if sp.disk {
		addP("wal.append_ms.p50", durations(s, "wal.append", nil), 0.5, "ms")
		addP("wal.append_ms.p99", durations(s, "wal.append", nil), 0.99, "ms")
		res.add("wal.records_per_fsync", float64(a.walStats.Appended)/float64(max(a.walStats.Fsyncs, 1)), "ratio", 0)
		res.add("wal.fsync_p99_ms", a.walStats.FsyncP99Ms, "ms", 0)
		res.add("wal.compaction_lag", float64(a.walStats.CompactionLag), "count", 0)
		res.add("wal.bytes_per_round", float64(a.walBytes)/float64(max(a.walStats.Appended, 1)), "B", 0)
		addP("persist.put_ms.p50", durations(s, "persist.put", nil), 0.5, "ms")
		addP("persist.get_ms.p50", durations(s, "persist.get", nil), 0.5, "ms")
		var sizes []float64
		for _, x := range s {
			if x.Name == "persist.put" {
				sizes = append(sizes, float64(x.Bytes))
			}
		}
		addP("persist.snapshot_bytes.p50", sizes, 0.5, "B")
	}
	if sp.evictAfter == 0 && sp.window == 0 {
		heap := blockMedian(a.blocks, func(b block) float64 { return b.heapMB })
		res.add("runtime.heap_bytes_per_session", heap*(1<<20)/float64(a.resident), "B", 0)
	}
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// setUp times one set-up from a collected heap: a fresh stack with its
// stores and write-ahead log, and one round of a throwaway session, so
// set-up includes the state the first request builds lazily. It makes
// three requests.
func (sp servingSpec) setUp(ctx context.Context, o options) (time.Duration, error) {
	runtime.GC()
	t0 := time.Now()
	st, err := sp.open(ctx, o.workdir, nil)
	if err != nil {
		return 0, err
	}
	info, err := st.c.Create(ctx, sp.create(o.seed))
	if err == nil {
		_, err = st.c.Next(ctx, info.ID)
	}
	if err == nil {
		_, err = st.c.Submit(ctx, info.ID, 0, nil)
	}
	d := time.Since(t0)
	return d, errors.Join(err, st.close())
}

// block is one stretch of measured work with the same composition in
// every run — a serving pass, or a sweep over every condition. Every
// end-to-end metric but setup_s is the median over blocks of the
// block's value, so a burst of interference from outside the benchmark
// moves one block, not the result.
type block struct {
	rate, gameRate     float64   // rounds and games completed per second
	heapMB             float64   // peak live heap
	firstPairs, rounds []float64 // ms
}

func blockMedian(blocks []block, f func(block) float64) float64 {
	xs := make([]float64, len(blocks))
	for i, b := range blocks {
		xs[i] = f(b)
	}
	return percentile(xs, 0.5)
}

// reportBlocks adds the end-to-end metrics other than setup_s, each the
// median over blocks; n is the block count.
func reportBlocks(res *result, blocks []block) {
	n := len(blocks)
	add := func(name, unit string, f func(block) float64) { res.add(name, blockMedian(blocks, f), unit, n) }
	add("first_pairs_p50_ms", "ms", func(b block) float64 { return percentile(b.firstPairs, 0.5) })
	add("first_pairs_p90_ms", "ms", func(b block) float64 { return percentile(b.firstPairs, 0.9) })
	add("round_p50_ms", "ms", func(b block) float64 { return percentile(b.rounds, 0.5) })
	add("round_p99_ms", "ms", func(b block) float64 { return percentile(b.rounds, 0.99) })
	add("rounds_per_s", "1/s", func(b block) float64 { return b.rate })
	add("games_per_s", "1/s", func(b block) float64 { return b.gameRate })
	add("heap_mb", "MiB", func(b block) float64 { return b.heapMB })
}

// dirBytes sums the sizes of the regular files in dir.
func dirBytes(dir string) int64 {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	var n int64
	for _, e := range entries {
		if info, err := e.Info(); err == nil && info.Mode().IsRegular() {
			n += info.Size()
		}
	}
	return n
}
