GO ?= go

.PHONY: check ci build vet fmt test race diff-race chaos chaos-store api-lock serve-race bignet-race fuzz-bignet fuzz-store bench bench-gate bench-gate-cluster bench-gate-resilience bench-gate-graph bench-gate-serve bench-gate-bignet bench-gate-restart bench-gate-suggest

# check is the CI gate: vet, formatting, and the full test suite under the
# race detector.
check: vet fmt race

# ci extends check with the differential suites pinned explicitly under the
# race detector at GOMAXPROCS 1, 2 and 4 — the frozen VF2 and MCS/MCCS
# kernels, the coverage engine (internal/cover) and the similarity engine
# (internal/simcache) against the reference implementations in
# internal/oracle, full selections against the recorded golden (root
# golden_diff_test.go, internal/cluster, internal/core), the large-network
# decomposition (internal/bignet + root bignet_diff_test.go), and the
# durable-state warm restart (root maintain_persist_test.go) — the
# fault-injection chaos suites for the resilience, serving, and snapshot
# layers (chaos-store is the crash/corruption wall for the state store),
# the public-API gates (api-lock walk, test-only oracle guard and
# external-consumer compile smoke), the large-network race + fuzz-seed
# suite, and the frozen-matcher, serving, large-network, warm-restart, and
# autocompletion benchmark gates.
ci: check diff-race chaos chaos-store api-lock serve-race bignet-race bench-gate-graph bench-gate-serve bench-gate-bignet bench-gate-restart bench-gate-suggest

# api-lock pins the public facade: the go/types walk fails when an exported
# root identifier references an internal/ type with no root-package alias,
# the oracle guard fails when a non-test file imports internal/oracle, and
# the external-consumer smoke builds testdata/extconsumer (a separate
# module) against the facade using only catapult.* names.
api-lock:
	$(GO) test -count=1 -run 'TestAPILock|TestExternalConsumer' .

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# diff-race runs only the differential tests, under -race, without result
# caching (so cache-freshness never masks a divergence) and at GOMAXPROCS
# 1, 2 and 4: the frozen matchers and the coverage and similarity engines
# against internal/oracle (subiso containment and embedding enumeration,
# the CSR matching order in graph, mcs, cover, simcache, core; the
# *Match(es)Legacy/Naive and concurrent Hammer tests there), full
# selections against testdata/differential_golden.json (core, cluster,
# root), the large-network suites (decomposition bit-identical across
# GOMAXPROCS, text/binary loaders selecting identically), and the suggest
# suite (unbudgeted rankings independent of GOMAXPROCS).
diff-race:
	$(GO) test -race -count=1 -cpu 1,2,4 -run 'Differential|Match(es)?(Legacy|Naive)|Hammer' ./internal/subiso/ ./internal/graph/ ./internal/mcs/ ./internal/simcache/ ./internal/cover/ ./internal/core/ ./internal/cluster/ ./internal/bignet/ ./internal/suggest/ .

# chaos runs the fault-injection suite under -race at GOMAXPROCS 1, 2 and
# 4: injected worker panics and stalls in every pipeline phase must
# degrade — never crash or leak — and the unbounded guarded run must stay
# bit-identical.
chaos:
	$(GO) test -race -count=1 -cpu 1,2,4 -run 'Chaos' ./...

# chaos-store runs the crash/corruption fault-injection wall for the
# durable state store under -race: a writer killed at byte N of the
# persist path (swept per-byte), kills after commit, every section of a
# snapshot flipped/zeroed/truncated, and persist kills mid-refresh at the
# maintainer level. Recovery must load the previous generation
# bit-identically or report a typed degraded start — never panic, never
# serve partial state.
chaos-store:
	$(GO) test -race -count=1 -run 'Chaos' ./internal/store/
	$(GO) test -race -count=1 -run 'TestMaintainerChaos' .

# serve-race runs the pattern service, its replayed-user load harness, the
# webui panel rendering from the live snapshot, and cmd/guiserve's handler
# set (refresh through /v1, graceful drain under load) under the race
# detector without caching: lock-free snapshot reads, coalesced searches,
# panel GETs, and concurrent refreshes must be race-clean and produce zero
# torn reads.
serve-race:
	$(GO) test -race -count=1 ./internal/serve/... ./internal/webui/ ./cmd/guiserve/

# bignet-race runs the large-network subsystem — streaming loaders, edge
# partition, parallel region summarization — under the race detector
# without caching. The fuzz targets' seed corpora run as regular tests
# here; use `make fuzz-bignet` for a timed fuzzing session.
bignet-race:
	$(GO) test -race -count=1 ./internal/bignet/...

# fuzz-bignet gives each bignet fuzz target a short coverage-guided
# session: the lenient text loader, the hostile-bytes binary loader, and
# the partition invariants. FUZZTIME overrides the per-target budget.
FUZZTIME ?= 15s
fuzz-bignet:
	$(GO) test -run '^$$' -fuzz '^FuzzEdgeListLoader$$' -fuzztime $(FUZZTIME) ./internal/bignet/
	$(GO) test -run '^$$' -fuzz '^FuzzBinaryLoader$$' -fuzztime $(FUZZTIME) ./internal/bignet/
	$(GO) test -run '^$$' -fuzz '^FuzzPartitionInvariants$$' -fuzztime $(FUZZTIME) ./internal/bignet/

# fuzz-store gives the snapshot loader a timed coverage-guided session:
# Decode over hostile bytes must never panic or over-allocate, and
# anything it accepts must re-encode and re-decode stably.
fuzz-store:
	$(GO) test -run '^$$' -fuzz '^FuzzSnapshotLoader$$' -fuzztime $(FUZZTIME) ./internal/store/

bench: bench-gate bench-gate-cluster bench-gate-resilience bench-gate-graph bench-gate-serve bench-gate-bignet bench-gate-restart bench-gate-suggest
	$(GO) test -bench=. -benchtime=1x -run=^$$ .

# bench-gate runs the coverage-engine regression gate: it writes
# BENCH_cover.json and fails if the engine-backed core.Context CCov /
# UpdateWeights scoring loop is slower than the same loop over the
# sequential per-CSG verdicts of internal/oracle (same hosts, same weights).
bench-gate:
	BENCH_GATE=1 $(GO) test -run '^TestCoverageBenchGate$$' -count=1 .

# bench-gate-cluster runs the similarity-engine regression gate: it writes
# BENCH_cluster.json and fails if a fresh simcache engine answering one
# BatchCtx per target over the redundant fixture is less than 1.5x faster
# than the sequential, uncached oracle loop over the same pairs.
bench-gate-cluster:
	BENCH_GATE_CLUSTER=1 $(GO) test -run '^TestClusteringBenchGate$$' -count=1 .

# bench-gate-resilience measures anytime selection quality: it writes
# BENCH_resilience.json recording the subgraph coverage retained when the
# pipeline is deadlined at 25% / 50% / 75% of its unconstrained wall clock,
# and fails if a degraded run returns an empty pattern set.
bench-gate-resilience:
	BENCH_GATE_RESILIENCE=1 $(GO) test -run '^TestResilienceBenchGate$$' -count=1 -timeout 600s .

# bench-gate-graph runs the frozen-graph matcher regression gate: it writes
# BENCH_graph.json (VF2 containment and MCCS similarity, frozen CSR vs the
# map-graph reference VF2 behind oracle.Contains — the search subiso ran
# before it moved to the frozen matcher — and oracle MCCS) and fails if
# frozen VF2 is less than 1.5x faster.
bench-gate-graph:
	BENCH_GATE_GRAPH=1 $(GO) test -run '^TestGraphBenchGate$$' -count=1 .

# bench-gate-serve runs the serving regression gate: a thousand seeded
# simulated users replay panel fetches and containment searches over real
# HTTP against the pattern service fronting the quickstart maintainer. It
# writes BENCH_serve.json and fails on sustained throughput below 5000 rps,
# p99 above 50ms, any request error, or any internally inconsistent
# response. SERVE_BENCH_USERS / SERVE_BENCH_SECONDS shrink the run for
# local iteration (thresholds only bind at the full fleet size).
bench-gate-serve:
	BENCH_GATE_SERVE=1 $(GO) test -run '^TestServeBenchGate$$' -count=1 -timeout 600s .

# bench-gate-bignet runs the large-network regression gate: a ~1M-edge
# generated R-MAT network is streamed through the text loader into a
# frozen CSR, decomposed into regions, and run through pattern selection
# end to end. It writes BENCH_bignet.json and fails on load throughput
# below 500k edges/sec, decompose+select above 120s, or an empty or
# out-of-budget pattern set. BIGNET_BENCH_EDGES shrinks the network for
# local iteration (thresholds only bind at the full size).
bench-gate-bignet:
	BENCH_GATE_BIGNET=1 $(GO) test -run '^TestBignetBenchGate$$' -count=1 -timeout 600s .

# bench-gate-restart runs the warm-restart regression gate: recovering the
# quickstart serving state from a CSNAP1 snapshot (LoadState +
# NewMaintainerFromState) is timed against mining it from scratch. It
# writes BENCH_restart.json and fails when the warm restart is less than
# 10x faster than the cold mine, or when the recovered state is not
# bit-identical to the state that was persisted.
bench-gate-restart:
	BENCH_GATE_RESTART=1 $(GO) test -run '^TestRestartBenchGate$$' -count=1 -timeout 600s .

# bench-gate-suggest runs the autocompletion regression gate: seeded
# simulated users formulate extended-pattern target queries keystroke by
# keystroke against POST /v1/suggest on the pattern service fronting the
# quickstart maintainer, accepting suggested patterns per the user model.
# It writes BENCH_suggest.json and fails when the per-keystroke p99
# exceeds the engine's ~100ms anytime budget, when the replay saves no
# formulation steps (steps-saved μ must be > 0), or on any request error
# or internally inconsistent response. SUGGEST_BENCH_USERS /
# SUGGEST_BENCH_TARGETS shrink the run for local iteration.
bench-gate-suggest:
	BENCH_GATE_SUGGEST=1 $(GO) test -run '^TestSuggestBenchGate$$' -count=1 -timeout 600s .
