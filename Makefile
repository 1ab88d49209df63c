GO ?= go

.PHONY: all build test vet fmt lint perfbench race debugrace bench loadbench fuzz fuzzchurn fuzzexternal fuzzparse ci

all: ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Fails when any tracked Go file is not gofmt-formatted.
fmt:
	test -z "$$(gofmt -l $$(git ls-files '*.go'))"

# Project static analysis: the trikcheck invariant rules (κ-funnel
# discipline, deterministic output, guarded narrowing, no stdout in
# libraries, no discarded errors) over every package. Exits non-zero on
# the first finding.
lint:
	$(GO) run ./cmd/trikcheck

# The benchmark harness is its own module (cmd/perfbench/go.mod replaces
# trikcore with this checkout), so root `go test ./...` skips it. Vet and
# test it here, so a change to an internal API it calls fails CI rather
# than the benchmark run.
perfbench:
	cd cmd/perfbench && $(GO) vet ./... && $(GO) test ./...

# Race-enabled run of the packages with concurrent code paths (parallel
# FreezeStatic build, work-stealing ComputeSupport) plus the full suite.
race:
	$(GO) test -race ./...

# The core packages with every mutating operation asserting the full
# Dense/Engine invariant suite (see internal/*/invariants.go), under the
# race detector: the deepest correctness oracle the repo has. The view
# and server packages ride along so their concurrency tests hammer the
# publisher while the substrate self-checks — including
# TestParallelApplyUnderReadLoad, which drives the epoch-coordinated
# ApplyBatchParallel worker fan-out against concurrent GET load — and
# obs rides along so its lock-free counters and histogram bins are
# hammered under the detector, and registry so the multi-tenant
# create/delete/write/subscribe hammer runs checked too.
# halt_on_error=1 stops the run at the first race so the report that
# matters is the one at the bottom of the log (and the one CI uploads),
# not page three of a cascade; trikdebug also arms the lock watchdog
# (internal/watchdog), which panics with full stacks if a publisher or
# registry critical section wedges instead of letting the run hang.
debugrace:
	GORACE=halt_on_error=1 $(GO) test -tags trikdebug -race ./internal/graph ./internal/dynamic ./internal/view ./internal/server ./internal/obs ./internal/obs/trace ./internal/registry

# Runs the headline benches (static decompose, engine churn through the
# per-edge / batched / parallel paths, server mixed workload, parsing,
# loading and setting up the Epinions stand-in, a fresh dual view on it)
# and pipes the stream through cmd/benchjson, which echoes it and drops
# a machine-readable BENCH_<stamp>.json with the host shape alongside.
bench:
	$(GO) test -run '^$$' -bench 'BenchmarkFreezeStatic$$|BenchmarkDecomposeStatic$$|BenchmarkTriangleCountStatic$$|BenchmarkEngineChurn$$|BenchmarkServerMixedWorkload$$|BenchmarkDecomposeExternal$$|BenchmarkParseEdgeList$$|BenchmarkLoadEdgeList$$|BenchmarkSetupEpinions$$|BenchmarkDualViewAgainstEpinions$$' -benchmem -benchtime 3s . | $(GO) run ./cmd/benchjson

# End-to-end load benchmark: boots `trikcore serve` with the flight
# recorder armed, drives an open-loop Zipf mixed workload at it with
# cmd/loadgen, then folds the loadgen report into BENCH_<stamp>.json via
# `benchjson -load`. The artifact is written even when an SLO fails (the
# failing verdicts are the interesting part), but the SLO exit status is
# propagated. Override the workload with LOADBENCH_ARGS.
LOADBENCH_ADDR ?= 127.0.0.1:8099
LOADBENCH_ARGS ?= -rate 2000 -duration 10s -mix 95:5 -zipf 1.1 -slo-p99 25ms

loadbench:
	@mkdir -p /tmp/trikcore-loadbench
	$(GO) build -o /tmp/trikcore-loadbench/trikcore ./cmd/trikcore
	$(GO) build -o /tmp/trikcore-loadbench/loadgen ./cmd/loadgen
	@/tmp/trikcore-loadbench/trikcore serve -addr $(LOADBENCH_ADDR) -quiet -workers 4 -trace-ring 64 -slow-ms 50ms & \
	SRV=$$!; \
	trap 'kill $$SRV 2>/dev/null' EXIT; \
	/tmp/trikcore-loadbench/loadgen -addr http://$(LOADBENCH_ADDR) -wait 5s \
		-report /tmp/trikcore-loadbench/load.json $(LOADBENCH_ARGS); \
	RC=$$?; \
	if [ -f /tmp/trikcore-loadbench/load.json ]; then \
		$(GO) run ./cmd/benchjson -load /tmp/trikcore-loadbench/load.json </dev/null; \
	fi; \
	exit $$RC

# Short out-of-core equivalence fuzz (CI-sized; κ under three budgets
# must match the in-memory decomposition).
fuzzexternal:
	$(GO) test -run '^$$' -fuzz FuzzExternalDecompose -fuzztime 20s ./internal/extcore

fuzz:
	$(GO) test -run '^$$' -fuzz FuzzFreezeStatic -fuzztime 30s ./internal/graph

# Short differential fuzz of the edge-list parser against the
# strings.Fields parser it replaced (CI runs this too). New-coverage
# inputs grow to several KiB, and minimizing one at the default 60s
# budget would take the whole run, so minimization is capped at 1s.
fuzzparse:
	$(GO) test -run '^$$' -fuzz FuzzReadEdgeList -fuzztime 20s -fuzzminimizetime 1s ./internal/graph

# Short invariant-checked fuzz of the dynamic engine (CI runs this too).
fuzzchurn:
	$(GO) test -run '^$$' -fuzz FuzzEngineChurn -fuzztime 20s -tags trikdebug ./internal/dynamic

ci: vet fmt lint perfbench build test race debugrace
