GO ?= go

# Pinned lint tool versions, kept in sync with .github/workflows/ci.yml.
STATICCHECK_VERSION ?= v0.6.1
GOVULNCHECK_VERSION ?= v1.1.4

.PHONY: build test examples check ci lint docs-check fuzz-smoke bench bench-smoke bench-repo bench-repo-compare race persistence-torture fmt-check obs-check metrics-doc soak slo-smoke

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# examples builds and runs every program under examples/, then
# `legalctl demo` and `legalctl audit`, which build their evidence lines
# on the same in-process stack. Each one exits non-zero on a broken
# expectation, so the target fails; together they run in about a second.
# Last, `legalctl trace BaseRental state` runs twice and the two outputs
# must be byte-identical: the trace of one call is deterministic.
examples:
	@for d in examples/*/; do \
		echo "$(GO) run ./$$d"; \
		$(GO) run ./$$d >/dev/null || exit 1; \
	done
	@for c in demo audit; do \
		echo "$(GO) run ./cmd/legalctl $$c"; \
		$(GO) run ./cmd/legalctl $$c >/dev/null || exit 1; \
	done
	@echo "$(GO) run ./cmd/legalctl trace BaseRental state (twice, cmp)"; \
	tmp=$$(mktemp -d) && \
	$(GO) run ./cmd/legalctl trace BaseRental state >$$tmp/a && \
	$(GO) run ./cmd/legalctl trace BaseRental state >$$tmp/b && \
	cmp $$tmp/a $$tmp/b; rc=$$?; rm -rf $$tmp; exit $$rc

# check is the fast pre-merge gate: check the EXPERIMENTS record
# (`make docs-check`), vet everything, run (`make race`)
# the concurrency-sensitive suites (the sender and block-hash memos in
# ethtypes, the read-only constructed ABI, the evm code-analysis cache,
# the trie node caches that snapshots hash concurrently, the state
# commit pipeline, chain read/write paths, rpc, app, the node
# assembly with its listeners and shutdown order, the WebSocket framing
# under the push tier) under the
# race detector, the upgrade-guard suites
# (layout-diff round-trip property included) plus the manager tier that
# exercises them end to end, then the crash-recovery fault-injection
# suites, then ten seconds of each native fuzz target.
check:
	$(MAKE) fmt-check
	$(MAKE) metrics-doc
	$(MAKE) docs-check
	$(GO) vet ./...
	$(MAKE) race
	$(MAKE) persistence-torture
	$(MAKE) fuzz-smoke
	$(MAKE) obs-check

# ci mirrors .github/workflows/ci.yml exactly, so the merge gate is
# reproducible locally: the build-test matrix job (examples included),
# the lint job, the check job, and the bench-smoke job. If ci passes
# here, the workflow passes there.
ci:
	$(MAKE) build
	$(MAKE) test
	$(MAKE) examples
	$(MAKE) lint
	$(MAKE) check
	$(MAKE) bench-smoke
	$(MAKE) slo-smoke
	$(MAKE) soak

# lint mirrors the ci.yml lint job: staticcheck plus govulncheck at the
# pinned versions above. Binaries already on PATH are preferred so the
# target works offline; otherwise the pinned module versions are
# resolved through `go run` (needs network once, then the module cache).
lint:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		$(GO) run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) ./...; \
	fi
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		$(GO) run golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION) ./...; \
	fi

# fuzz-smoke runs every native fuzz target in the module (found with
# `go test -list`; each target's doc comment says what it checks) for
# ten seconds from its committed seed corpus (testdata/fuzz/). go test
# takes one -fuzz target and one package per invocation. Minimisation
# is off: at milliseconds an input, minimising each coverage-expanding
# input (60 s by default) stops a target's executions for most of its
# ten seconds; a failing input still fails the run.
fuzz-smoke:
	@set -e; list=$$($(GO) test -list '^Fuzz' ./...); \
	targets=$$(echo "$$list" | awk '/^Fuzz/ { f[n++] = $$1 } /^ok/ { for (i = 0; i < n; i++) print $$2, f[i]; n = 0 }'); \
	[ -n "$$targets" ] || { echo "fuzz-smoke: no fuzz targets found"; exit 1; }; \
	echo "$$targets" | while read pkg fz; do \
		echo "$(GO) test -run xxx -fuzz '^$$fz\$$' -fuzztime 10s -fuzzminimizetime 0s $$pkg"; \
		$(GO) test -run xxx -fuzz "^$$fz\$$" -fuzztime 10s -fuzzminimizetime 0s $$pkg || exit 1; \
	done

# fmt-check fails the build if any file is not gofmt-clean.
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# docs-check fails if EXPERIMENTS.md repeats a "## " heading, its
# "## P<n>" sections are out of order, or ROADMAP, CHANGES, DESIGN,
# README or EXPERIMENTS cites a §P<n> that it does not have.
docs-check:
	$(GO) test -run TestExperimentsRecordIsWhole -count 1 .

# metrics-doc fails if a registered metric family has no row in the
# README's metrics reference table, or a row names a legalchain_* family
# nothing registers (rows: `go run ./cmd/metricsdoc -list`).
metrics-doc:
	$(GO) run ./cmd/metricsdoc

# obs-check is the instrumentation-overhead gate: it fails if the
# metrics layer or disabled span tracing slows an eth_call of a contract
# getter (rent() on a deployed BaseRental) by more than 5% — median of
# 301 interleaved short rounds per gate; the absolute on-off ns/call of
# the getter and of a call to an account with no code are logged.
obs-check:
	OBS_CHECK=1 $(GO) test -v -run 'TestEthCallInstrumentationOverhead|TestEthCallTracingOverhead' -count 1 ./internal/chain/

# persistence-torture runs every fault-injection suite — torn log
# tails, flipped bytes, numbering gaps, deleted/corrupted snapshots,
# damaged journals, crash images of compaction — for the segment log
# and each store on it, and the watchtower rebuilt over a chain that
# lost its tail, under the race detector, then the restarts of
# the chain, the RPC tier, a whole node (business tier included) and the
# manager over a registry lost between a transaction and a restart.
persistence-torture:
	$(GO) test -race ./internal/seglog/... ./internal/blockdb/... ./internal/statestore/... ./internal/docstore/... ./internal/watch/...
	$(GO) test -race -run 'Restart|Torture|Genesis|WAL' ./internal/chain/... ./internal/rpc/...
	$(GO) test -race -run Restart ./internal/node/... ./internal/core/...

# race is the race-detector step of check: the concurrency-sensitive
# suites, then the upgrade guard and the manager tier (its per-address
# memo of rows and parsed artifacts included), always re-run.
race:
	$(GO) test -race ./internal/ethtypes/... ./internal/abi/... ./internal/evm/... ./internal/trie/... ./internal/state/... ./internal/chain/... ./internal/rpc/... ./internal/app/... ./internal/node/... ./internal/xtrace/... ./internal/ws/...
	$(GO) test -race -count 1 ./internal/upgrade/... ./internal/core/...

# bench-host prints the parallelism the numbers were taken at (benchmark
# name suffixes also carry GOMAXPROCS, but only implicitly).
define BENCH_HOST
echo "bench host: $$(nproc) cores, GOMAXPROCS=$${GOMAXPROCS:-$$(nproc)} ($$(uname -s)/$$(uname -m))"
endef

# The EthCall pattern below (and in bench-smoke) takes in
# BenchmarkEthCall_Getter, the one benchmark that executes a contract
# through eth_call.
bench:
	@$(BENCH_HOST)
	$(GO) test -run xxx -bench . -benchtime 3x .
	$(GO) test -run xxx -bench 'StateRoot|SealAtWorldSize|HeadViewReadAtDepth|EthCall|TransferTx' ./internal/state/ ./internal/chain/
	$(GO) test -run xxx -bench Recovery -benchtime 3x ./internal/chain/
	$(GO) test -run xxx -bench 'ParallelEthCall|ReadsDuringSeal' -benchtime 1s ./internal/chain/
	$(GO) test -run xxx -bench 'MineBlock$$' -benchtime 5x ./internal/chain/
	$(GO) test -run xxx -bench MineLoopSubscribers -benchtime 20x ./internal/chain/
	$(GO) test -run xxx -bench 'ContractTimeline|TowerStatus|EventBufferAtCap' -benchmem ./internal/watch/

# bench-smoke is the CI-sized benchmark run: one iteration of each
# tracked benchmark, enough to catch panics and pathological
# regressions without burning runner minutes — and the kernel
# benchmarks (Keccak, uint256 word I/O, the secp256k1 field multiply,
# squaring and inversion, the scalar split, scalar multiplication, Sign,
# Verify and Recover) at their
# default length, because one iteration of a
# sub-microsecond function is timer noise and one of a millisecond one
# says little more; the secp256k1 ones with B/op and allocs/op, which
# TestLadderAllocations also pins. Output lands in bench-smoke.txt
# (uploaded as a CI artifact); BenchmarkModifyContract's txs/op and
# gas/op there are the transactions and gas of one modification, and
# the watchtower reads, the warm version-chain walk and the cold and
# cached ABI resolves report allocs/op.
bench-smoke:
	@{ $(BENCH_HOST); \
	$(GO) test -run xxx -bench 'ModifyContract' -benchtime 1x .; \
	$(GO) test -run xxx -bench 'Fig2_VersionChainWalk|A3_ABIResolution' -benchtime 100x -benchmem .; \
	$(GO) test -run xxx -bench 'StateRoot|EthCall|Recovery|ParallelEthCall|ReadsDuringSeal|MineBlock$$|MineLoopSubscribers|FilterLogs' -benchtime 1x ./internal/state/ ./internal/chain/; \
	$(GO) test -run xxx -bench 'ContractTimeline|TowerStatus|EventBufferAtCap' -benchtime 1x -benchmem ./internal/watch/; \
	$(GO) test -run xxx -bench 'Permute|Sum256_64|Bytes32' ./internal/keccak/ ./internal/uint256/; \
	$(GO) test -run xxx -bench . -benchmem ./internal/secp256k1/; } | tee bench-smoke.txt

# bench-repo runs the repository benchmark BENCHMARK.json declares (see
# bench/README.md): all five workloads, three sets, end-to-end metrics
# with median and quartiles in bench-repo.json. bench-repo-compare
# judges that file against an earlier one — `make bench-repo-compare
# BASE=parent.json` prints ok / regressed / unresolved per workload and
# metric and fails on a regression. Not part of `make ci`: the bounds
# assume a quiet host.
bench-repo:
	bash bench/run.sh -repeat 3 -out bench-repo.json

bench-repo-compare:
	@test -n "$(BASE)" || { echo "usage: make bench-repo-compare BASE=<file written by make bench-repo>"; exit 2; }
	bash bench/run.sh -compare $(BASE) bench-repo.json

# soak is the bounded-memory gate for the disk-backed state store: it
# grows the world to SOAK_ACCOUNTS accounts (default 100k; the paper
# experiment in EXPERIMENTS.md §P7 uses 1M) through per-block
# commit/evict cycles and fails if the process RSS ever exceeds
# SOAK_RSS_MB. Per-interval samples land in soak-rss.csv (uploaded as
# a CI artifact).
# slo-smoke is the latency/SLO gate for the serving tier: the loadgen
# drives SLO_USERS simulated read-only users, SLO_PAIRS full rental
# lifecycles and SLO_SUBS WebSocket newHeads subscribers against an
# in-process node for SLO_SECONDS, then fails unless read p99 stays
# under SLO_P99_READ with zero lifecycle errors, zero subscription
# gaps and zero out-of-order heads. Per-op percentiles land in
# loadgen.csv / loadgen.json (uploaded as a CI artifact).
SLO_USERS ?= 10000
SLO_PAIRS ?= 8
SLO_SUBS ?= 128
SLO_SECONDS ?= 30
SLO_P99_READ ?= 50ms
SLO_WATCH_LAG ?= 1
slo-smoke:
	$(GO) run ./cmd/loadgen -users $(SLO_USERS) -pairs $(SLO_PAIRS) \
		-subscribers $(SLO_SUBS) -duration $(SLO_SECONDS)s -think 2s \
		-gate-p99-read $(SLO_P99_READ) -gate-zero-drops \
		-gate-watch-lag $(SLO_WATCH_LAG) \
		-out loadgen.json -csv loadgen.csv
	@cat loadgen.csv

SOAK_ACCOUNTS ?= 100000
SOAK_RSS_MB ?= 512
soak:
	SOAK=1 SOAK_ACCOUNTS=$(SOAK_ACCOUNTS) SOAK_RSS_MB=$(SOAK_RSS_MB) SOAK_CSV=$(CURDIR)/soak-rss.csv \
		$(GO) test -run TestSoakDiskStateRSS -count 1 -timeout 60m -v ./internal/state/
