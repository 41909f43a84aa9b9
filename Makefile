GO ?= go
# Extra flags for `make bench`, e.g. BENCHFLAGS='-benchtime 3s -count 5'
BENCHFLAGS ?=
# Hot-path benchmarks that get a machine-readable BENCH_<name>.json each.
BENCHES := FullGame G1 Discovery GameScaling SessionRound SessionRoundService
# How long `make fuzz` runs each native fuzz target (corpus smoke).
FUZZTIME ?= 5s
# Package:Target pairs for `make fuzz` (go test -fuzz takes one target
# per invocation).
FUZZERS := ./internal/sampling:FuzzParseMethod \
           ./internal/sampling:FuzzAgreeClasses \
           ./internal/persist:FuzzSnapshotDecode \
           ./internal/persist:FuzzSnapshotChecksum \
           ./internal/persist/wal:FuzzWalDecode \
           ./internal/service:FuzzServerJSON \
           ./internal/fd:FuzzPLIDelta

.PHONY: all build vet lint lintbench test race check verify bench benchbaseline benchcheck fuzz chaos loadsmoke walbench clean

all: build

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Project-specific determinism & concurrency rules (internal/lint):
# per-function — detrand, detclock, maporder, lockedfield, printclean,
# floatcmp, scratchalias — plus the interprocedural, call-graph-driven
# set: lockorder (DESIGN §12 lock order), goroleak (unjoined
# goroutines), chanlock (blocking channel ops under a mutex), ctxflow
# (manufactured contexts outside cmd/) and errkind (error-envelope
# registry coverage).
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

# Labelpool + shard load smokes (~30s): etload plays the
# request-per-round baseline and the batched labelpool pipeline against
# an in-process server with a simulated 20ms client RTT, and benchjson
# records the result as BENCH_Labelpool.json (throughput, per-request
# p50/p99, and the pool-vs-baseline speedup). A second run drives the
# same submission workload through 1-, 4- and 16-shard managers over a
# 10ms-latency store and records BENCH_Shard.json, including the
# 16-vs-1-shard throughput ratio. These are smokes, not perf gates:
# they fail only when the workload itself errors — numbers are
# recorded, never asserted, so a loaded CI machine cannot flake them
# (the shard ratio is gated separately by `make benchcheck`).
loadsmoke:
	@echo "== etload labelpool smoke"
	@$(GO) run ./cmd/etload -inproc -sessions 16 -rounds 8 -window 8 \
		-rows 24 -k 2 -net-delay 20ms \
		| $(GO) run ./cmd/benchjson > BENCH_Labelpool.json
	@echo "   wrote BENCH_Labelpool.json"
	@echo "== etload shard-scaling smoke"
	@$(GO) run ./cmd/etload -shards 1,4,16 -sessions 96 -rounds 3 \
		-rows 24 -k 3 -store-delay 10ms \
		| $(GO) run ./cmd/benchjson > BENCH_Shard.json
	@echo "   wrote BENCH_Shard.json"

# WAL durability bench (~10s): etload plays the same 64-session submit
# workload against a simulated 20ms-fsync disk twice — making every
# submit durable with a full snapshot Put (serialized: one disk, one
# fsync queue) versus riding the write-ahead log's group commit — and
# benchjson records BENCH_WalCommit.json, including the
# BenchmarkWalSpeedup x-vs-snapshot ratio that `make benchcheck`
# gates: group commit must keep sustaining roughly an order of
# magnitude more durable submits per second per disk.
walbench:
	@echo "== etload WAL group-commit bench"
	@$(GO) run ./cmd/etload -wal -sessions 64 -rounds 4 -store-delay 20ms \
		| $(GO) run ./cmd/benchjson > BENCH_WalCommit.json
	@echo "   wrote BENCH_WalCommit.json"

# Fault-injection suite under the race detector: crash-point property
# tests for the snapshot commit protocol, torn-write invariants (both
# single-store and quorum MultiStore), the degraded-mode manager tests,
# the 64-session flaky-store workload, and the sharded replica-loss
# workload that kills a full replica mid-run and checks golden parity
# against an unsharded reference (ET_CHAOS=1 scales the workloads up —
# the sharded one to 1024 sessions across 16 shards).
chaos:
	ET_CHAOS=1 $(GO) test -race -count=1 \
		-run 'TestCrashPointProperty|TestTornWritesNeverCorrupt|TestFault|TestManagerEvictFailure|TestManagerUnparkFailed|TestManagerSweepContinues|TestManagerShutdownKeeps|TestServerFaultSurface|TestChaos' \
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
	@echo "== benchcheck shard scaling (etload -shards)"
	@$(GO) run ./cmd/etload -shards 1,4,16 -sessions 96 -rounds 3 \
		-rows 24 -k 3 -store-delay 10ms \
		| $(GO) run ./cmd/benchjson -check BENCH_Shard.json
	@echo "== benchcheck WAL group commit (etload -wal)"
	@$(GO) run ./cmd/etload -wal -sessions 64 -rounds 4 -store-delay 20ms \
		| $(GO) run ./cmd/benchjson -check BENCH_WalCommit.json
	@echo "== benchcheck lint (BenchmarkLintModule)"
	@$(GO) test -run '^$$' -bench '^BenchmarkLintModule$$' -benchtime 1x -benchmem ./internal/lint \
		| $(GO) run ./cmd/benchjson -check BENCH_Lint.json

clean:
	rm -f BENCH_*.json
