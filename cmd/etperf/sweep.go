package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"exptrain/internal/agents"
	"exptrain/internal/belief"
	"exptrain/internal/datagen"
	"exptrain/internal/errgen"
	"exptrain/internal/experiments"
	"exptrain/internal/game"
	"exptrain/internal/sampling"
	"exptrain/internal/stats"
)

// paper_sweep is the researcher's path: experiments.RunContext over the
// paper's four datasets × three learner priors at violation degree 0.2,
// all four sampling methods, sweepRuns seeded games per method and
// condition. A block plays every condition once (192 games at -scale
// 1), so every block has the same mix of datasets; blocks repeat until
// the run's seconds are spent.
const sweepRuns = 4

var sweepPriors = []belief.PriorSpec{
	{Kind: belief.PriorDataEstimate},
	{Kind: belief.PriorUniform, D: 0.9},
	{Kind: belief.PriorRandom},
}

// sweepConditions is the number of conditions in a block.
func sweepConditions() int { return len(datagen.AllNames()) * len(sweepPriors) }

// sweepConfig is the j-th condition played. Every game parameter is set
// explicitly so the mirror reads the same values RunContext uses.
func sweepConfig(seed uint64, j, runs int) experiments.Config {
	names := datagen.AllNames()
	c := j % sweepConditions()
	return experiments.Config{
		Dataset:      names[c/len(sweepPriors)],
		Rows:         240,
		Degree:       0.2,
		DegreeSet:    true,
		TrainerPrior: belief.PriorSpec{Kind: belief.PriorRandom},
		LearnerPrior: sweepPriors[c%len(sweepPriors)],
		Gamma:        sampling.DefaultGamma,
		K:            10,
		Iterations:   30,
		Runs:         runs,
		BaseSeed:     seed + uint64(j)*1_000_003,
		MaxLHS:       3,
		MaxFDs:       38,
		PriorSigma:   0.12,
	}
}

func runSweep(ctx context.Context, o options, tr *tracer) (*result, error) {
	res := &result{correct: true}
	runs := max(1, int(math.Round(sweepRuns*o.scale)))
	games := func(cfg experiments.Config) int { return cfg.Runs * len(sampling.Methods()) }

	// Each block plays every condition through RunContext, timed for
	// throughput, and then replays games of the block through the
	// mirror, which times their first pairs and rounds: RunContext
	// reports no per-game times. Alternating keeps both kinds of
	// measurement spread over the whole run. Block 0 warms the process
	// up and is replayed in full, which checks it; it is measured only
	// when it is the only block. Later blocks replay the first run of
	// each condition and method, a quarter of their games, so most of a
	// run's time goes to RunContext.
	var blocks []block
	var setups []float64
	var cost runtimeCost
	var kept []*experiments.Result // block 0's results, replayed again when traced
	var mirrorGames int
	var mirrorBusy time.Duration
	rounds := 0
	deadline := time.Now().Add(time.Duration(o.seconds) * time.Second)
	for b := 0; b == 0 || o.seconds > 0 && (b == 1 || time.Now().Before(deadline)); b++ {
		measured := b > 0 || o.seconds == 0
		for i := 0; measured && i < setupsPerBlock; i++ {
			d, err := sweepSetUp(ctx, o.seed)
			res.attempted++
			if err != nil {
				return nil, fmt.Errorf("set-up: %w", err)
			}
			setups = append(setups, d.Seconds())
		}
		hw := watchHeap()
		mark := markRuntime()
		var results []*experiments.Result
		n, r := 0, 0
		for c := 0; c < sweepConditions(); c++ {
			cfg := sweepConfig(o.seed, b*sweepConditions()+c, runs)
			out, err := experiments.RunContext(ctx, cfg)
			res.attempted += int64(games(cfg))
			if err != nil {
				res.failed += int64(games(cfg))
				return nil, err
			}
			n += games(cfg)
			r += games(cfg) * cfg.Iterations
			results = append(results, out)
		}
		d := time.Since(mark.at)
		cost.since(mark)
		blk := block{rate: float64(r) / d.Seconds(), gameRate: float64(n) / d.Seconds(), heapMB: hw.close()}
		rounds += r

		m, err := mirror(ctx, o.seed, b*sweepConditions(), runs, results, b == 0, nil)
		res.attempted += int64(m.games)
		if err != nil {
			res.fail("%v", err)
			break
		}
		if b == 0 {
			res.digest = m.digest
			kept = results
		}
		blk.firstPairs, blk.rounds = m.firstPairs, m.rounds
		if measured {
			blocks = append(blocks, blk)
		}
		mirrorGames += m.games
		mirrorBusy += m.busy
	}
	res.add("setup_s", percentile(setups, 0.5), "s", len(setups))
	reportBlocks(res, blocks)
	if tr == nil || !res.correct {
		return res, nil
	}

	tr.enable(true)
	mt, err := mirror(ctx, o.seed, 0, runs, kept, true, tr)
	tr.enable(false)
	if err != nil {
		res.fail("%v", err)
	}
	res.attempted += int64(mt.games)
	s := tr.link()
	res.spans = s
	reportEngine(res, s)
	cost.report(res, rounds)
	res.add("trace.unattributed_share", unattributed(s, "mirror.game"), "ratio", 0)
	res.add("trace.overhead", mt.rate()/(float64(mirrorGames)/mirrorBusy.Seconds()), "ratio", 0)

	res.add("agents.trainer_ms.p50", percentile(durations(s, "agents.trainer", nil), 0.5), "ms", 0)
	res.add("errgen.inject_ms.p50", percentile(durations(s, "errgen.inject", nil), 0.5), "ms", 0)
	res.add("sampling.pool_ms.p50", percentile(durations(s, "sampling.pool", nil), 0.5), "ms", 0)
	res.add("sampling.candidates_per_select", percentile(mt.candidates, 0.5), "count", len(mt.candidates))
	var engine, total float64
	for _, x := range s {
		switch x.Name {
		case "game.select", "game.update", "game.score":
			engine += float64(x.dur())
		case "mirror.game":
			total += float64(x.dur())
		}
	}
	res.add("game.engine_share", engine/total, "ratio", 0)
	res.add("experiments.core_utilization", cost.cpu.Seconds()/(cost.wall.Seconds()*float64(runtime.GOMAXPROCS(0))), "ratio", 0)
	return res, nil
}

// sweepSetUp times one set-up from a collected heap: a one-game
// condition, so lazily built state is paid before the measured ones.
func sweepSetUp(ctx context.Context, seed uint64) (time.Duration, error) {
	cfg := sweepConfig(seed, 0, 1)
	cfg.Methods = []sampling.Method{sampling.MethodStochasticUS}
	runtime.GC()
	t0 := time.Now()
	_, err := experiments.RunContext(ctx, cfg)
	return time.Since(t0), err
}

// mirrored is what a mirror replay measured.
type mirrored struct {
	games      int
	busy       time.Duration
	firstPairs []float64 // ms from a game's start to its first pairs
	rounds     []float64 // ms per round ≥ 1, select through score
	candidates []float64
	digest     string
}

func (m *mirrored) rate() float64 { return float64(m.games) / m.busy.Seconds() }

// mirror replays the games of conditions first, first+1, ... — whose
// RunContext results are kept — one by one through the same public
// calls experiments.RunContext makes, on GOMAXPROCS workers. With check
// it replays every run and checks that averaging them reproduces
// RunContext's series bit for bit; without, it replays only the first
// run of each condition and method, for their times.
func mirror(ctx context.Context, seed uint64, first, runs int, kept []*experiments.Result, check bool, tr *tracer) (*mirrored, error) {
	methods := sampling.Methods()
	replayed := runs
	if !check {
		replayed = 1
	}
	type job struct{ cond, method, run int }
	var jobs []job
	for c := range kept {
		for mi := range methods {
			for r := 0; r < replayed; r++ {
				jobs = append(jobs, job{c, mi, r})
			}
		}
	}
	results := make([]*game.Result, len(jobs))
	timers := make([]*engineTimer, len(jobs))
	errs := make([]error, len(jobs))
	next := make(chan int, len(jobs)) // sized to the number of sends
	for i := range jobs {
		next <- i
	}
	close(next)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				jb := jobs[i]
				cfg := sweepConfig(seed, first+jb.cond, runs)
				key := fmt.Sprintf("mirror/%d/%s/%d", first+jb.cond, methods[jb.method], jb.run)
				results[i], timers[i], errs[i] = mirrorGame(ctx, cfg, methods[jb.method], cfg.BaseSeed+uint64(jb.run)*7919, tr, key)
			}
		}()
	}
	wg.Wait()
	out := &mirrored{games: len(jobs), busy: time.Since(start)}
	for i, err := range errs {
		if err != nil {
			return out, fmt.Errorf("mirror game %v: %w", jobs[i], err)
		}
		out.firstPairs = append(out.firstPairs, ms(timers[i].firstPairs))
		for _, d := range timers[i].rounds {
			out.rounds = append(out.rounds, ms(d))
		}
		out.candidates = append(out.candidates, timers[i].candidates...)
	}
	if !check {
		return out, nil
	}

	// Average in run order, as experiments does, and compare.
	h := newDigest()
	i := 0
	for c, want := range kept {
		for mi := range methods {
			var mae, f1, prec, rec []stats.Series
			for r := 0; r < runs; r++ {
				g := results[i]
				i++
				mae = append(mae, g.MAESeries())
				f1 = append(f1, g.F1Series())
				p := make(stats.Series, len(g.Iterations))
				rc := make(stats.Series, len(g.Iterations))
				for t, it := range g.Iterations {
					p[t], rc[t] = it.Detection.Precision, it.Detection.Recall
				}
				prec = append(prec, p)
				rec = append(rec, rc)
			}
			got := want.Methods[mi]
			for _, cmp := range []struct {
				what       string
				mirror, rc stats.Series
			}{
				{"MAE", stats.AverageSeries(mae), got.MAE},
				{"F1", stats.AverageSeries(f1), got.F1},
				{"precision", stats.AverageSeries(prec), got.Precision},
				{"recall", stats.AverageSeries(rec), got.Recall},
			} {
				h.series(cmp.rc)
				if !sameSeries(cmp.mirror, cmp.rc) {
					return out, fmt.Errorf("condition %d %s: the mirror's %s series %v differs from RunContext's %v",
						first+c, methods[mi], cmp.what, cmp.mirror, cmp.rc)
				}
			}
		}
	}
	out.digest = h.sum()
	return out, nil
}

// mirrorGame plays one seeded game exactly as experiments' runGame
// does, through the public calls, timing each layer it calls into.
func mirrorGame(ctx context.Context, cfg experiments.Config, method sampling.Method, seed uint64, tr *tracer, key string) (*game.Result, *engineTimer, error) {
	timer := &engineTimer{tr: tr, key: key, trainer: true, start: time.Now()}
	gen, err := datagen.ByName(cfg.Dataset)
	if err != nil {
		return nil, nil, err
	}
	t := time.Now()
	ds := gen(cfg.Rows, seed)
	tr.since("datagen.generate", key, -1, t)
	t = time.Now()
	injected, err := errgen.InjectDegree(ds.Rel, errgen.DegreeConfig{
		FDs: ds.ExactFDs, Degree: cfg.Degree, MaxChanges: cfg.Rows / 3, Seed: seed ^ 0xE44,
	})
	if err != nil {
		return nil, nil, err
	}
	tr.since("errgen.inject", key, -1, t)
	rel := injected.Rel
	t = time.Now()
	space := ds.Space(cfg.MaxLHS, cfg.MaxFDs)
	tr.since("fd.space", key, -1, t)

	rng := stats.NewRNG(seed ^ 0x9A3E)
	_, testRows := rel.Split(rng.Split(), 0.7)
	testRel := rel.Subset(testRows)
	dirty := make(map[int]struct{})
	for newIdx, orig := range testRows {
		if _, bad := injected.DirtyRows[orig]; bad {
			dirty[newIdx] = struct{}{}
		}
	}
	trainerSpec, learnerSpec := cfg.TrainerPrior, cfg.LearnerPrior
	if trainerSpec.Sigma == 0 {
		trainerSpec.Sigma = cfg.PriorSigma
	}
	if learnerSpec.Sigma == 0 {
		learnerSpec.Sigma = cfg.PriorSigma
	}
	t = time.Now()
	trainerPrior, err := trainerSpec.Build(space, rel, rng.Split())
	if err != nil {
		return nil, nil, err
	}
	tr.since("belief.prior", key, -1, t)
	t = time.Now()
	learnerPrior, err := learnerSpec.Build(space, rel, rng.Split())
	if err != nil {
		return nil, nil, err
	}
	tr.since("belief.prior", key, -1, t)
	sampler, err := sampling.New(method, cfg.Gamma)
	if err != nil {
		return nil, nil, err
	}
	trainer := agents.NewFPTrainer(trainerPrior, rng.Split())
	learner := agents.NewLearner(learnerPrior, sampler, rng.Split())
	t = time.Now()
	pool := sampling.NewPool(rel, space, sampling.PoolConfig{Seed: seed ^ 0x6001})
	tr.since("sampling.pool", key, -1, t)
	timer.remaining = pool.RemainingCount

	res, err := game.RunContext(ctx, rel, trainer, learner, pool, game.Config{
		K:          cfg.K,
		Iterations: cfg.Iterations,
		Eval:       &game.Evaluator{TestRel: testRel, DirtyRows: dirty},
		Observer:   timer,
	})
	tr.since("mirror.game", key, -1, timer.start)
	return res, timer, err
}

func sameSeries(a, b stats.Series) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
