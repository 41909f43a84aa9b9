GO ?= go
# Extra flags for `make bench`, e.g. BENCHFLAGS='-benchtime 3s -count 5'
BENCHFLAGS ?=
# Hot-path benchmarks that get a machine-readable BENCH_<name>.json each.
BENCHES := FullGame G1 Discovery GameScaling SessionRound SessionRoundService SessionCreate
# How long `make fuzz` runs each native fuzz target (corpus smoke).
FUZZTIME ?= 5s
# Package:Target pairs for `make fuzz` (go test -fuzz takes one target
# per invocation).
FUZZERS := ./internal/dataset:FuzzRelationOps \
           ./internal/sampling:FuzzParseMethod \
           ./internal/sampling:FuzzAgreeClasses \
           ./internal/sampling:FuzzClassSelect \
           ./internal/sampling:FuzzPoolBuild \
           ./internal/sampling:FuzzPoolShowUnshow \
           ./internal/persist:FuzzSnapshotDecode \
           ./internal/persist:FuzzSnapshotChecksum \
           ./internal/persist/wal:FuzzWalDecode \
           ./internal/persist/wal:FuzzWalTailFold \
           ./internal/service:FuzzServerJSON \
           ./internal/fd:FuzzPLIDelta

# Package directories whose source size `make loc` reports.
LOCDIRS := internal/service internal/persist internal/persist/wal \
           internal/persist/faulty internal/lint cmd/etserve cmd/etload \
           internal/fd internal/game internal/stats internal/sampling \
           internal/repair

.PHONY: all build vet lint lintbench selectbench poolbench test race check verify bench benchbaseline benchcheck fuzz chaos loadsmoke loc clean

all: build

# cmd/etperf is a nested module that `go build ./...` skips; building it
# too catches a change that breaks an API the benchmark calls. Its
# binary is discarded: the benchmark directory holds sources only.
build:
	$(GO) build ./...
	$(GO) -C cmd/etperf build -o /dev/null ./...

vet:
	$(GO) vet ./...

# Project-specific determinism & concurrency rules (internal/lint):
# per-function — detrand, detclock, maporder, lockedfield, printclean,
# floatcmp, scratchalias — plus the interprocedural, call-graph-driven
# set: lockorder (DESIGN §6 lock order), goroleak (unjoined
# goroutines), chanlock (blocking channel ops under a mutex), ctxflow
# (manufactured contexts outside cmd/), errkind (error-envelope
# registry coverage) and unreachable (non-test functions no main,
# init, public API, package-level declaration or interface method
# reaches).
# etlint loads the module once — each package type-checked exactly
# once — and exits non-zero on any finding, unjustified suppression,
# or stale suppression; `go run ./cmd/etlint -audit` lists every
# suppression with its reason.
lint:
	$(GO) run ./cmd/etlint ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Static analysis beyond vet: govulncheck when installed, else
# staticcheck, else skip — the tools aren't vendored, so their absence
# must not fail the tier-1 bar.
check:
	@if command -v govulncheck >/dev/null 2>&1; then \
		echo "== govulncheck"; govulncheck ./...; \
	elif command -v staticcheck >/dev/null 2>&1; then \
		echo "== staticcheck"; staticcheck ./...; \
	else \
		echo "== check skipped (neither govulncheck nor staticcheck installed)"; \
	fi

# Tier-1 verification: build, vet, the project lint rules, the full
# test suite, then the suite again under the race detector (the
# experiment harness, game evaluator and session service all run
# goroutines, so -race is part of the bar), the fault-injection chaos
# suite, whatever static analyzer the machine has, and the ~5s
# labelpool load smoke.
verify: build vet lint test race chaos check loadsmoke

# Labelpool load smoke (~5s): etload plays the request-per-round
# baseline and the batched labelpool pipeline against an in-process
# server with a simulated 20ms client RTT (etload's labelled -net-delay
# model), and benchjson records the result as BENCH_Labelpool.json
# (throughput, per-request p50/p99, and the pool-vs-baseline speedup).
# A smoke, not a perf gate: it fails only when the workload itself
# errors — numbers are recorded, never asserted, so a loaded CI machine
# cannot flake it.
loadsmoke:
	@echo "== etload labelpool smoke"
	@$(GO) run ./cmd/etload -sessions 16 -rounds 8 -window 8 \
		-rows 24 -k 2 -net-delay 20ms \
		| $(GO) run ./cmd/benchjson > BENCH_Labelpool.json
	@echo "   wrote BENCH_Labelpool.json"

# Fault-injection suite under the race detector: crash-point property
# tests for the snapshot commit protocol and the WAL append, torn-write
# invariants (both single-store and quorum MultiStore), the
# degraded-mode manager tests, the sweep-yields-to-requests test, the
# no-append-before-base and labelpool crash-without-shutdown WAL tests,
# the late writes (a slow replica's Put, a WAL fold's Put, a resume
# read's repair Put) that must not land over a newer snapshot, the
# resume that must read a parked source without unparking it, the
# restart that must not reuse a stored session id, the compaction that
# must keep a session's newest mark, the evict and concurrent manager
# tests that read a parked session's round count, the 64-session
# flaky-store workloads (interactive and labelpool), and the replicated
# and WAL replica-loss workloads that kill a full replica mid-run
# (ET_CHAOS=1 scales the workloads up — the replicated one to 1024
# sessions).
chaos:
	ET_CHAOS=1 $(GO) test -race -count=1 \
		-run 'TestCrashPointProperty|TestTornWritesNeverCorrupt|TestFault|TestManagerEvictFailure|TestManagerUnparkFailed|TestManagerSweepContinues|TestManagerShutdownKeeps|TestManagerSweepYields|TestManagerNoAppendBeforeBase|TestMultiStorePutWaitsForEveryReplica|TestWalStoreFoldLandsBeforeCheckpoint|TestManagerResumeReadsUnderSourceLock|TestManagerResumeKeepsParkedSourceParked|TestManagerRestartNeverReusesID|TestWalCompactKeepsNewestMark|TestManagerEvictAndTransparentResume|TestManagerConcurrentSessions|TestServerFaultSurface|TestChaos|TestLabelpoolChaos|TestLabelpoolWalCrash' \
		./internal/persist/... ./internal/service/...

# Corpus-smoke each native fuzz target for FUZZTIME. Failing inputs
# land in the package's testdata/fuzz and then fail `go test` forever —
# exactly the regression-pinning behavior we want.
fuzz:
	@for ft in $(FUZZERS); do \
		pkg=$${ft%:*}; target=$${ft#*:}; \
		echo "== fuzz $$target ($$pkg, $(FUZZTIME))"; \
		$(GO) test -run '^$$' -fuzz "^$$target$$" -fuzztime $(FUZZTIME) $$pkg || exit 1; \
	done

# The GameScaling sweeps below exclude its rows=100000 case — it exists
# to prove the incremental PLI path scales and is pinned at one
# iteration in `make benchbaseline` instead of being re-timed on every
# sweep.

# Run each hot-path benchmark and convert its output into a
# machine-readable baseline (BENCH_FullGame.json, BENCH_G1.json, ...)
# via cmd/benchjson, for diffing across commits.
bench:
	@for b in $(BENCHES); do \
		re="^Benchmark$$b\$$"; \
		case $$b in GameScaling) re='^BenchmarkGameScaling$$/^rows=(120|240|480|960)$$';; esac; \
		echo "== Benchmark$$b"; \
		$(GO) test -run '^$$' -bench "$$re" -benchmem $(BENCHFLAGS) . \
			| $(GO) run ./cmd/benchjson > BENCH_$$b.json || exit 1; \
		echo "   wrote BENCH_$$b.json"; \
	done

# Record the lint baseline (BENCH_Lint.json): one LoadModule plus
# RunAudit over the real module with every rule. One iteration is
# enough — each sample is a whole-module type-check, and the gated
# metric is allocs/op, which does not depend on machine load.
lintbench:
	@echo "== BenchmarkLintModule"
	@$(GO) test -run '^$$' -bench '^BenchmarkLintModule$$' -benchtime 1x -benchmem ./internal/lint \
		| $(GO) run ./cmd/benchjson > BENCH_Lint.json
	@echo "   wrote BENCH_Lint.json"

# Record the selection baseline (BENCH_Select.json): BenchmarkSelect
# times one k=10 selection per sampler (US, StochasticUS, StochasticBR),
# hypothesis space (38 and 147 FDs) and pool state (as built, and after
# 400 presented pairs) through the per-candidate oracle (perpair) and
# the class-level samplers (class). Each class case reports
# x-vs-perpair, the same run's perpair ns/op over its own, which
# `make benchcheck` gates. The baseline is the mean of three runs: one
# run's ratio swings by 2× on a shared machine, and the gate's floor is
# a fixed share of it.
selectbench:
	@echo "== BenchmarkSelect"
	@$(GO) test -run '^$$' -bench '^BenchmarkSelect$$' -benchmem -count 3 ./internal/sampling \
		| $(GO) run ./cmd/benchjson > BENCH_Select.json
	@echo "   wrote BENCH_Select.json"

# Record the pool-construction baseline (BENCH_Pool.json):
# BenchmarkNewPool builds one OMDB-240 pool with the default sizes per
# hypothesis space (38 and 147 FDs) through the per-FD oracle (oracle)
# and NewPool (fast). Each fast case reports x-vs-oracle, the same run's
# oracle ns/op over its own, which `make benchcheck` gates.
poolbench:
	@echo "== BenchmarkNewPool"
	@$(GO) test -run '^$$' -bench '^BenchmarkNewPool$$' -benchmem ./internal/sampling \
		| $(GO) run ./cmd/benchjson > BENCH_Pool.json
	@echo "   wrote BENCH_Pool.json"

# Record the incremental-PLI baseline (BENCH_PLIIncremental.json): the
# warm-cache revision benchmark plus the one-iteration rows=100000
# scaling case that the delta protocol makes feasible at all. Revision
# runs 100 iterations so the recorded numbers are the steady state, not
# the first call's one-time memo warm-up.
benchbaseline:
	@echo "== BenchmarkRevision + BenchmarkGameScaling/rows=100000"
	@( $(GO) test -run '^$$' -bench '^BenchmarkRevision$$' -benchtime 100x -benchmem . && \
	   $(GO) test -run '^$$' -bench '^BenchmarkGameScaling$$/^rows=100000$$' -benchtime 1x -benchmem . ) \
		| $(GO) run ./cmd/benchjson > BENCH_PLIIncremental.json
	@echo "   wrote BENCH_PLIIncremental.json"

# Allocation regression gate: run each hot-path benchmark briefly and
# fail when its allocs/op exceeds the checked-in baseline's ceiling
# (see cmd/benchjson -check for the slack rule). One iteration is
# enough for benchmarks that set up per iteration; SessionRound and
# SessionRoundService reuse one session across iterations, so they get
# a fixed 100x to amortize cold-start scratch growth the baselines
# never see.
benchcheck:
	@for b in $(BENCHES); do \
		re="^Benchmark$$b\$$"; \
		case $$b in GameScaling) re='^BenchmarkGameScaling$$/^rows=(120|240|480|960)$$';; esac; \
		bt=1x; case $$b in SessionRound|SessionRoundService) bt=100x;; esac; \
		echo "== benchcheck Benchmark$$b (-benchtime $$bt)"; \
		$(GO) test -run '^$$' -bench "$$re" -benchtime $$bt -benchmem . \
			| $(GO) run ./cmd/benchjson -check BENCH_$$b.json || exit 1; \
	done
	@echo "== benchcheck BenchmarkRevision (-benchtime 100x)"
	@$(GO) test -run '^$$' -bench '^BenchmarkRevision$$' -benchtime 100x -benchmem . \
		| $(GO) run ./cmd/benchjson -check BENCH_PLIIncremental.json
	@echo "== benchcheck selection (BenchmarkSelect -benchtime 200x)"
	@$(GO) test -run '^$$' -bench '^BenchmarkSelect$$' -benchtime 200x -benchmem ./internal/sampling \
		| $(GO) run ./cmd/benchjson -check BENCH_Select.json
	@echo "== benchcheck pool construction (BenchmarkNewPool -benchtime 100x)"
	@$(GO) test -run '^$$' -bench '^BenchmarkNewPool$$' -benchtime 100x -benchmem ./internal/sampling \
		| $(GO) run ./cmd/benchjson -check BENCH_Pool.json
	@echo "== benchcheck lint (BenchmarkLintModule)"
	@$(GO) test -run '^$$' -bench '^BenchmarkLintModule$$' -benchtime 1x -benchmem ./internal/lint \
		| $(GO) run ./cmd/benchjson -check BENCH_Lint.json

# Source-line counts tracked next to ns/op: the non-test Go lines of
# each LOCDIRS directory (subpackages counted on their own rows), then
# the module total — every non-test Go line outside testdata and
# cmd/etperf/, the benchmark's own module.
loc:
	@for d in $(LOCDIRS); do \
		printf '%-24s %5d\n' $$d $$(find $$d -maxdepth 1 -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l); \
	done
	@printf '%-24s %5d\n' total $$(find . -name '*.go' ! -name '*_test.go' ! -path './.*' \
		! -path './cmd/etperf/*' ! -path '*/testdata/*' -exec cat {} + | wc -l)

clean:
	rm -f BENCH_*.json
