GO ?= go

.PHONY: build test vet race fuzz lint lint-baseline check alloc bench bench-parallel bench-multilevel bench-compat cover smoke-serve bench-serve chaos smoke-cluster

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

race:
	$(GO) test -race ./...

# Short fuzz pass over every fuzz target (seed corpus + 10s each).
# Go runs one -fuzz pattern per invocation, so the targets are looped.
FUZZTIME ?= 10s
fuzz:
	$(GO) test -run=FuzzRepair -fuzz=FuzzRepair -fuzztime=$(FUZZTIME) ./internal/fault/
	$(GO) test -run=FuzzLaRCSParse -fuzz=FuzzLaRCSParse -fuzztime=$(FUZZTIME) ./internal/larcs/
	$(GO) test -run=FuzzVerifyMapping -fuzz=FuzzVerifyMapping -fuzztime=$(FUZZTIME) ./internal/check/
	$(GO) test -run=FuzzCSRRoundTrip -fuzz=FuzzCSRRoundTrip -fuzztime=$(FUZZTIME) ./internal/graph/
	$(GO) test -run=FuzzCoarsen -fuzz=FuzzCoarsen -fuzztime=$(FUZZTIME) ./internal/multilevel/

# Static analysis: formatting, go vet, and oregami-lint
# (tools/analyzers) against the checked-in baseline — pre-existing
# accepted findings pass, anything new fails. See docs/ANALYSIS.md.
LINT_BASELINE := tools/analyzers/lint.baseline
lint: vet
	@unformatted="$$(gofmt -l .)"; if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; fi
	$(GO) run ./tools/analyzers -baseline $(LINT_BASELINE) ./...

# Regenerate the lint baseline after triage. Justifications of entries
# that still match are preserved; new entries get a TODO placeholder
# that `make lint` rejects until a human writes the justification.
lint-baseline:
	$(GO) run ./tools/analyzers -write-baseline $(LINT_BASELINE) ./...

# Allocation-budget gates (alloc_test.go): hot-path allocs/op ceilings
# over the parallel-bench workload. A separate non-race pass — the gates
# skip themselves under the race detector, whose instrumentation
# allocates. See docs/TESTING.md.
alloc:
	$(GO) test -count=1 -run='TestAllocBudget' .

# The CI gate: static checks, the full suite under the race detector,
# and the allocation budgets.
check: lint race alloc

# Run the root-package benchmarks and archive them as machine-readable
# JSON (tools/benchjson). BENCHTIME=1x keeps the default pass quick;
# override for stable numbers, e.g. `make bench BENCHTIME=1s`.
BENCHTIME ?= 1x
bench:
	$(GO) test -run='^$$' -bench=. -benchmem -benchtime=$(BENCHTIME) . | tee BENCH_pipeline.txt
	$(GO) run ./tools/benchjson BENCH_pipeline.txt > BENCH_pipeline.json
	@echo "wrote BENCH_pipeline.json"

# Sequential-vs-parallel pipeline benchmark (docs/PARALLEL.md): the
# workers=N sub-benchmarks carry a "speedup" metric against workers=1.
# Meaningful speedups need a multicore machine (CI) — at GOMAXPROCS=1
# the speedup is honestly ~1x. PARBENCHTIME pins multiple iterations so
# single-iteration timer noise cannot masquerade as a speedup, and the
# run is gated against the committed BENCH_parallel.json: more than 10%
# allocs/op growth on any sub-benchmark fails (tools/benchjson
# -baseline). The fresh numbers land in BENCH_parallel.new.json; promote
# them over the baseline deliberately, not by running the target.
PARBENCHTIME ?= 5x
bench-parallel:
	$(GO) test -run='^$$' -bench=BenchmarkParallelPipeline -benchmem -benchtime=$(PARBENCHTIME) -count=1 . | tee BENCH_parallel.txt
	$(GO) run ./tools/benchjson -baseline BENCH_parallel.json BENCH_parallel.txt > BENCH_parallel.new.json
	@echo "wrote BENCH_parallel.new.json (baseline BENCH_parallel.json unchanged)"

# Multilevel scale benchmark (docs/MULTILEVEL.md): coarsen/map/uncoarsen
# and the recursive-bisection baseline at 1e5 and 1e6 tasks onto the
# 512-PE hierarchy, archived as benchjson. While the committed
# BENCH_multilevel.json baseline exists the run is gated against it
# (>10% allocs/op growth on any sub-benchmark fails) and the fresh
# numbers land in BENCH_multilevel.new.json; without a baseline the
# target writes BENCH_multilevel.json directly so it can be committed.
MLBENCHTIME ?= 1x
bench-multilevel:
	$(GO) test -run='^$$' -bench='BenchmarkMultilevel|BenchmarkRecursiveBisection' \
		-benchmem -benchtime=$(MLBENCHTIME) -count=1 -timeout=30m . | tee BENCH_multilevel.txt
	@if [ -f BENCH_multilevel.json ]; then \
		$(GO) run ./tools/benchjson -baseline BENCH_multilevel.json BENCH_multilevel.txt > BENCH_multilevel.new.json && \
		echo "wrote BENCH_multilevel.new.json (baseline BENCH_multilevel.json unchanged)"; \
	else \
		$(GO) run ./tools/benchjson BENCH_multilevel.txt > BENCH_multilevel.json && \
		echo "wrote BENCH_multilevel.json (new baseline — commit it with git add -f)"; \
	fi

# The repo benchmark (perfbench/, BENCHMARK.json) is its own Go module,
# so the root `go build/test ./...` never compiles it. Vet it and run
# its self-test against this tree, so an API change that breaks the
# benchmark fails here rather than unseen.
bench-compat:
	$(GO) -C perfbench vet ./...
	$(GO) -C perfbench test ./...

# End-to-end smoke test of the mapping daemon: build, serve on a random
# port, cold-then-warm /v1/map (miss then hit), graceful SIGTERM drain.
smoke-serve:
	sh tools/serve_smoke.sh

# Benchmark the daemon with the closed-loop load generator: spawns its
# own server, runs a cold (cache-bypass) and warm (cache-hit) phase, and
# writes latency percentiles + throughput + hit ratio as benchjson-shaped
# JSON. The binary lands in a BENCH_*.tmp path so git ignores it.
SERVE_N ?= 200
SERVE_C ?= 8
bench-serve:
	$(GO) build -o BENCH_oregami.tmp ./cmd/oregami
	$(GO) run ./tools/loadgen -launch ./BENCH_oregami.tmp -n $(SERVE_N) -c $(SERVE_C) -out BENCH_serve.json
	@rm -f BENCH_oregami.tmp
	@echo "wrote BENCH_serve.json"

# Kill-driven crash-safety harness (docs/PERSIST.md): launch the daemon
# with a persistent state dir, populate + persist the cache, SIGKILL it
# mid-write under load, restart on the same port, and fail unless the
# recovered server serves >= 0.9x the pre-kill warm hit ratio with zero
# fingerprint changes. Writes recovery time and window p99 to
# BENCH_restart.json.
CHAOS_N ?= 60
CHAOS_C ?= 4
chaos:
	$(GO) build -o BENCH_oregami.tmp ./cmd/oregami
	$(GO) run ./tools/loadgen -chaos -launch ./BENCH_oregami.tmp \
		-n $(CHAOS_N) -c $(CHAOS_C) -kill-after 400ms -window 3s \
		-out BENCH_restart.json
	@rm -f BENCH_oregami.tmp
	@echo "wrote BENCH_restart.json"

# Cluster smoke (docs/SERVE.md "Cluster mode"): three serve nodes under
# consistent-hash sharding, load rotated across all of them so non-owners
# proxy, one node SIGKILLed mid-window. Fails on any fingerprint drift,
# any error while degraded, or a run with zero cross-node cache hits.
# Writes aggregate rps / cross-node hit ratio / p99 under the kill to
# BENCH_cluster.json.
CLUSTER_NODES ?= 3
CLUSTER_N ?= 120
CLUSTER_C ?= 6
smoke-cluster:
	$(GO) build -o BENCH_oregami.tmp ./cmd/oregami
	$(GO) run ./tools/loadgen -cluster $(CLUSTER_NODES) -launch ./BENCH_oregami.tmp \
		-n $(CLUSTER_N) -c $(CLUSTER_C) -kill-after 500ms -window 3s \
		-out BENCH_cluster.json
	@rm -f BENCH_oregami.tmp
	@echo "wrote BENCH_cluster.json"

# Coverage gate: the total statement coverage must not drop below the
# recorded floor (the pre-oracle-PR baseline).
COVER_FLOOR ?= 79.9
cover:
	$(GO) test -count=1 -coverprofile=coverage.out ./...
	@total=$$($(GO) tool cover -func=coverage.out | awk '/^total:/ { sub(/%/, "", $$NF); print $$NF }'); \
	echo "total coverage: $$total% (floor $(COVER_FLOOR)%)"; \
	awk -v t="$$total" -v f="$(COVER_FLOOR)" 'BEGIN { exit (t + 0 < f + 0) ? 1 : 0 }' || \
		{ echo "coverage regression: $$total% is below the $(COVER_FLOOR)% floor"; exit 1; }
