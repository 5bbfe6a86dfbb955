# Make targets mirror the CI pipeline (.github/workflows/ci.yml) exactly,
# so "it passed locally" and "it passed CI" mean the same thing.

GO ?= go

.PHONY: all build bench-build test race bench bench-smoke bench-metrics bench-gate store-smoke trace-smoke testbed-smoke fault-smoke fuzz-smoke service-smoke telemetry-catalog fmt fmt-fix vet lint lint-strict print-staticcheck-version check

# Pinned staticcheck release; CI installs exactly this version.
STATICCHECK_VERSION = 2025.1.1

all: check

build:
	$(GO) build ./...

# bench/ is its own module importing castan/internal/... directly, so
# `go build ./...` above does not see it: an internal API change that
# breaks the benchmark must fail here, not at benchmark time. Its own
# tests run too (~30 s cold, well under a second warm).
bench-build:
	$(GO) vet -C bench ./...
	$(GO) build -C bench -o /dev/null .
	$(GO) test -C bench ./...

# Tier-1 tests. Besides the unit tests, these include the IR gate
# (cmd/castan's TestSeedCorpusPasses: every catalog NF lints clean), the
# fault-injection matrix (internal/castan's TestFaultMatrix), the
# tracediff fixture pair (identical runs exit 0, the regressed pair exits
# 3 naming castan.discover) and three catalog goldens: castan lint -json,
# the taint stats and the value-range stats. After an intentional change,
# regenerate them with `go test ./cmd/castan -run TestJSONGolden -update`,
# `go test ./internal/analysis -run TestTaintCatalogGolden -update` and
# `go test ./internal/analysis -run TestVRangeCatalogGolden -update`.
test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Full campaign: regenerates every table and figure under results/.
bench:
	$(GO) test -bench . -benchmem .

# One-iteration benchmark pass (what CI runs): every benchmark executes
# once, proving the harness end to end in minutes. The root package's
# table and figure benchmarks run the one campaign there is and rewrite
# results/ with the same cells (Table 4's wall-clock Time column aside);
# -short scales down only the root package's ablation and speedup benches.
# The per-layer packages are listed so their testing.B benchmarks (the
# yardsticks performance PRs quote) cannot rot unrun; internal/castan's
# are BenchmarkDiscover, cold discovery on lpm-dl1,
# BenchmarkAnalyzeWarm, warm nat-chain + nat-ring analyses through one
# shared store handle, and BenchmarkAnalyzeCold, cold lb-ring and
# nat-ring analyses (quote it at -cpu 1,2: the table build runs beside
# discovery and symbex). internal/testbed's run at one and two Ps: testbed.Measure is a two-goroutine pipeline, and
# with one P its stages must take turns.
bench-smoke:
	$(GO) test -short -bench . -benchtime 1x -run '^$$' \
		. ./internal/nfhash ./internal/rainbow ./internal/expr ./internal/solver ./internal/symbex \
		./internal/memsim ./internal/interp ./internal/castan
	$(GO) test -short -bench . -benchtime 1x -run '^$$' -cpu 1,2 ./internal/testbed

# Instrumented analysis over the seed NF catalog: phase durations plus
# core effort counters per NF, written as results/BENCH_castan.json.
# Performance PRs diff this file to prove their speedups.
bench-metrics:
	$(GO) run ./cmd/castan bench -out results/BENCH_castan.json

# Perf gate (what CI runs): re-run the checked-in benchmark baseline's
# configuration and fail if any deterministic effort counter — probe line
# reads, solver queries, state pops, budget ticks; never wall-clock —
# regresses more than 5%. Update the baseline with `make bench-metrics`
# when an effort change is intentional. On failure the tracediff
# attribution table names the stage and counter that moved, and the
# per-NF reports land in BENCH_ATTRIB_DIR for CI artifact upload.
BENCH_ATTRIB_DIR ?= /tmp/castan-bench-attrib
bench-gate:
	$(GO) run ./cmd/castan bench -compare results/BENCH_castan.json \
		-attrib-dir $(BENCH_ATTRIB_DIR)

# Store smoke (what CI runs): two identical cmd/castan runs sharing one
# -store directory, once for lpm-dl1 (a stored cache model), once for
# lb-chain (a stored rainbow table) and once for nat-ring (a model over
# two ring regions plus a table; a warm hit there skips building the
# discovery pool, the path the bench's warm-hash takes). Each warm run
# must hit the store (castan.store.hits nonzero), and both runs must
# produce byte-identical workloads (and, for lpm-dl1, identical reports
# modulo wall-clock/telemetry) — a warm store changes effort, never
# output. CI overrides STORE_SMOKE_DIR and uploads it.
STORE_SMOKE_DIR ?= /tmp/castan-store-smoke
store-smoke:
	rm -rf $(STORE_SMOKE_DIR)/store
	mkdir -p $(STORE_SMOKE_DIR)/store
	$(GO) build -o $(STORE_SMOKE_DIR)/castan ./cmd/castan
	$(STORE_SMOKE_DIR)/castan -nf lpm-dl1 -packets 8 -states 3000 \
		-store $(STORE_SMOKE_DIR)/store \
		-out $(STORE_SMOKE_DIR)/cold.pcap \
		-report $(STORE_SMOKE_DIR)/cold-report.json
	$(STORE_SMOKE_DIR)/castan -nf lpm-dl1 -packets 8 -states 3000 \
		-store $(STORE_SMOKE_DIR)/store \
		-out $(STORE_SMOKE_DIR)/warm.pcap \
		-report $(STORE_SMOKE_DIR)/warm-report.json \
		-metrics-out $(STORE_SMOKE_DIR)/warm-metrics.json
	cmp $(STORE_SMOKE_DIR)/cold.pcap $(STORE_SMOKE_DIR)/warm.pcap
	$(STORE_SMOKE_DIR)/castan tracediff check -metrics $(STORE_SMOKE_DIR)/warm-metrics.json \
		-require castan.store.hits
	$(STORE_SMOKE_DIR)/castan reportcheck -report $(STORE_SMOKE_DIR)/cold-report.json \
		-nf lpm-dl1 -compare $(STORE_SMOKE_DIR)/warm-report.json
	$(STORE_SMOKE_DIR)/castan -nf lb-chain -packets 8 -states 3000 \
		-store $(STORE_SMOKE_DIR)/store \
		-out $(STORE_SMOKE_DIR)/cold-table.pcap
	$(STORE_SMOKE_DIR)/castan -nf lb-chain -packets 8 -states 3000 \
		-store $(STORE_SMOKE_DIR)/store \
		-out $(STORE_SMOKE_DIR)/warm-table.pcap \
		-metrics-out $(STORE_SMOKE_DIR)/warm-table-metrics.json
	cmp $(STORE_SMOKE_DIR)/cold-table.pcap $(STORE_SMOKE_DIR)/warm-table.pcap
	$(STORE_SMOKE_DIR)/castan tracediff check -metrics $(STORE_SMOKE_DIR)/warm-table-metrics.json \
		-require castan.store.hits
	$(STORE_SMOKE_DIR)/castan -nf nat-ring -packets 6 -states 4000 \
		-store $(STORE_SMOKE_DIR)/store \
		-out $(STORE_SMOKE_DIR)/cold-ring.pcap
	$(STORE_SMOKE_DIR)/castan -nf nat-ring -packets 6 -states 4000 \
		-store $(STORE_SMOKE_DIR)/store \
		-out $(STORE_SMOKE_DIR)/warm-ring.pcap \
		-metrics-out $(STORE_SMOKE_DIR)/warm-ring-metrics.json
	cmp $(STORE_SMOKE_DIR)/cold-ring.pcap $(STORE_SMOKE_DIR)/warm-ring.pcap
	$(STORE_SMOKE_DIR)/castan tracediff check -metrics $(STORE_SMOKE_DIR)/warm-ring-metrics.json \
		-require castan.store.hits

# Short observability smoke (what CI runs): one traced cmd/castan run,
# then schema-validate the trace and assert the core counters moved.
# CI overrides TRACE_SMOKE_DIR to a workspace dir and uploads it.
TRACE_SMOKE_DIR ?= /tmp/castan-trace-smoke
trace-smoke:
	mkdir -p $(TRACE_SMOKE_DIR)
	$(GO) build -o $(TRACE_SMOKE_DIR)/castan ./cmd/castan
	$(TRACE_SMOKE_DIR)/castan -nf lpm-trie -packets 6 -states 3000 \
		-out $(TRACE_SMOKE_DIR)/lpm-trie.pcap \
		-trace $(TRACE_SMOKE_DIR)/trace.json \
		-metrics-out $(TRACE_SMOKE_DIR)/metrics.json \
		-report $(TRACE_SMOKE_DIR)/report.json
	$(TRACE_SMOKE_DIR)/castan tracediff check -trace $(TRACE_SMOKE_DIR)/trace.json \
		-metrics $(TRACE_SMOKE_DIR)/metrics.json \
		-require solver.queries,memsim.dram_misses,symbex.states_explored

# Testbed smoke (what CI runs): one `castan testbed -all` at its defaults,
# the full campaign results/ was generated at (experiments.Config's zero
# value), must reproduce all 17 checked-in tables and figures in the
# order it renders them. The comparison drops blank lines and the
# "(campaign time: …)" line, and blanks Table 4's Time column: those are
# wall-clock. Everything else is simulated cycles and analysis effort, so
# any change to memsim, interp, testbed or the analysis that moves a cell
# fails here (~15 s on 2 vCPUs). CI overrides TESTBED_SMOKE_DIR and
# uploads it.
TESTBED_SMOKE_DIR ?= /tmp/castan-testbed-smoke
TESTBED_RESULTS = table1 table2 table3 table4 table5 \
	figure04 figure05 figure06 figure07 figure08 figure09 \
	figure10 figure11 figure12 figure13 figure14 figure15
TESTBED_NORMALIZE = awk '/^(Table|Figure) [0-9]+:/ { t4 = /^Table 4:/; print; next } \
	NF && !/^\(campaign time: / { if (t4) $$3 = ""; print }'
testbed-smoke:
	mkdir -p $(TESTBED_SMOKE_DIR)
	$(GO) build -o $(TESTBED_SMOKE_DIR)/castan ./cmd/castan
	$(TESTBED_SMOKE_DIR)/castan testbed -all > $(TESTBED_SMOKE_DIR)/all.out
	cat $(TESTBED_RESULTS:%=results/%.txt) | $(TESTBED_NORMALIZE) > $(TESTBED_SMOKE_DIR)/want.txt
	$(TESTBED_NORMALIZE) $(TESTBED_SMOKE_DIR)/all.out > $(TESTBED_SMOKE_DIR)/got.txt
	diff $(TESTBED_SMOKE_DIR)/want.txt $(TESTBED_SMOKE_DIR)/got.txt

# Robustness smoke (what CI runs): two cmd/castan runs under a
# deliberately tiny tick budget — each must exit 3 (degraded, not failed)
# and still write a schema-valid report that records the degradations and
# the tick account. The fault-injection matrix itself is a tier-1 test.
# CI overrides FAULT_SMOKE_DIR to a workspace dir and uploads it.
FAULT_SMOKE_DIR ?= /tmp/castan-fault-smoke
fault-smoke:
	mkdir -p $(FAULT_SMOKE_DIR)
	$(GO) build -o $(FAULT_SMOKE_DIR)/castan ./cmd/castan
	@set -e; for n in lpm-trie lb-chain; do \
		echo "== $$n under -budget 2000: expecting exit 3 (degraded)"; \
		code=0; $(FAULT_SMOKE_DIR)/castan -nf $$n -packets 4 -states 2000 -budget 2000 \
			-out $(FAULT_SMOKE_DIR)/$$n.pcap \
			-report $(FAULT_SMOKE_DIR)/$$n-report.json || code=$$?; \
		if [ "$$code" -ne 3 ]; then echo "want exit 3, got $$code"; exit 1; fi; \
		$(FAULT_SMOKE_DIR)/castan reportcheck -report $(FAULT_SMOKE_DIR)/$$n-report.json \
			-nf $$n -require-degraded; \
	done

# Service smoke (what CI runs): boot castand with chaos and a store,
# drive 50 mixed requests through castand load (tiny budgets forcing
# degradation, armed fault plans, idempotency-key collisions, retried
# 429s), gate one live endpoint response through castan reportcheck
# -url, then SIGTERM the daemon: it must drain in-flight work to valid
# reports, flush metrics, and exit 0. CI overrides SERVICE_SMOKE_DIR and
# uploads the logs, load summary, and final metrics snapshot.
SERVICE_SMOKE_DIR ?= /tmp/castan-service-smoke
service-smoke:
	mkdir -p $(SERVICE_SMOKE_DIR)
	$(GO) build -o $(SERVICE_SMOKE_DIR)/castand ./cmd/castand
	$(GO) build -o $(SERVICE_SMOKE_DIR)/castan ./cmd/castan
	@set -e; dir=$(SERVICE_SMOKE_DIR); rm -f $$dir/addr; \
	$$dir/castand -addr 127.0.0.1:0 -addr-file $$dir/addr -chaos \
		-store $$dir/store -metrics-out $$dir/metrics.json \
		2> $$dir/castand.log & pid=$$!; \
	trap 'kill $$pid 2>/dev/null || true' EXIT; \
	for i in $$(seq 1 100); do [ -s $$dir/addr ] && break; sleep 0.1; done; \
	[ -s $$dir/addr ] || { echo "castand never published its address:"; cat $$dir/castand.log; exit 1; }; \
	addr=$$(cat $$dir/addr); \
	echo "== castand on $$addr: 50 mixed requests (tiny budgets + fault plans)"; \
	$$dir/castand load -addr-file $$dir/addr -n 50 -c 8 -seed 1 \
		-tiny-budget-frac 0.3 -fault-frac 0.2 -out $$dir/load-summary.json; \
	echo "== live-endpoint report gate (castan reportcheck -url)"; \
	$$dir/castan reportcheck -url "http://$$addr/v1/analyze?nf=lpm-trie&packets=4&states=1200&seed=7" -nf lpm-trie; \
	echo "== SIGTERM: graceful drain must exit 0"; \
	kill -TERM $$pid; \
	wait $$pid || { echo "castand drain exited nonzero:"; cat $$dir/castand.log; exit 1; }; \
	trap - EXIT; \
	grep -q "drained cleanly" $$dir/castand.log || { echo "no clean-drain line:"; cat $$dir/castand.log; exit 1; }; \
	[ -s $$dir/metrics.json ] || { echo "metrics snapshot not flushed"; exit 1; }; \
	echo "service smoke OK"

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

fmt-fix:
	gofmt -w .

# The second run vets the file set an architecture without assembly
# builds (internal/rainbow's portable ring walk), so it cannot rot; on
# amd64 the first already checks the assembly against its Go
# declarations (asmdecl).
vet:
	$(GO) vet ./...
	GOARCH=arm64 $(GO) vet ./...

# staticcheck is optional locally (skipped when not installed); CI runs
# lint-strict, which installs nothing but refuses to pass without it.
lint:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (CI runs $(STATICCHECK_VERSION))"; \
	fi

# Blocking variant: a missing staticcheck is a failure, not a skip. CI
# installs the pinned $(STATICCHECK_VERSION) first and then runs this.
lint-strict:
	@command -v staticcheck >/dev/null 2>&1 || { \
		echo "staticcheck $(STATICCHECK_VERSION) required:"; \
		echo "  go install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION)"; \
		exit 1; \
	}
	staticcheck ./...

# Fuzz smoke (what CI runs): replay the seed corpus, then a short live
# fuzzing session, of each fuzz target. Arbitrary decoded modules must
# never panic Validate, and modules it accepts must survive the
# Disassemble round-trip; arbitrary store payloads must never panic
# rainbow.LoadTable, and tables it accepts must be stable under
# Serialize/LoadTable and safe to SelfCheck and Invert; the ring-hash
# lanes must equal RingHash on any seeds, space and width, and every
# chain walk Build takes (portable and AVX-512) the scalar walk on any
# seeds, space, width and chain length;
# the interval kernels must equal the reference Hacker's Delight loops on any
# operands and brute force on 8-bit ones, and Range's transfer functions
# must never grow when their operands shrink; the memory hierarchy must be
# indistinguishable from its stamp-based reference on any call trace;
# arbitrary bytes in a store entry's file must read as a miss or as that
# entry's payload; arbitrary bytes must never panic cachemodel.Load or
# the pcap reader, and what they accept must survive a write/read round
# trip; arbitrary bytes POSTed to /v1/analyze must never panic the
# handler or draw a 5xx, and are a 400 unless they decode and validate;
# arbitrary bytes must never panic obs.ReadChromeTrace, and a recorder's
# Chrome trace must read back to its exact spans and counters; on any
# random DAG and pin set, expr.Pinner must build the node-by-node
# substitution's fingerprint, structure and node sharing.
FUZZ_TIME ?= 30s
fuzz-smoke:
	$(GO) test ./internal/ir/ -run FuzzModuleValidate -count=1
	$(GO) test ./internal/ir/ -fuzz FuzzModuleValidate -fuzztime $(FUZZ_TIME)
	$(GO) test ./internal/rainbow/ -run FuzzLoadTable -count=1
	$(GO) test ./internal/rainbow/ -fuzz FuzzLoadTable -fuzztime $(FUZZ_TIME)
	$(GO) test ./internal/rainbow/ -run FuzzRingWalk -count=1
	$(GO) test ./internal/rainbow/ -fuzz FuzzRingWalk -fuzztime $(FUZZ_TIME)
	$(GO) test ./internal/nfhash/ -run FuzzRingLanes -count=1
	$(GO) test ./internal/nfhash/ -fuzz FuzzRingLanes -fuzztime $(FUZZ_TIME)
	$(GO) test ./internal/expr/ -run FuzzIntervalKernels -count=1
	$(GO) test ./internal/expr/ -fuzz FuzzIntervalKernels -fuzztime $(FUZZ_TIME)
	$(GO) test ./internal/expr/ -run FuzzRangeIsotone -count=1
	$(GO) test ./internal/expr/ -fuzz FuzzRangeIsotone -fuzztime $(FUZZ_TIME)
	$(GO) test ./internal/memsim/ -run FuzzHierarchyTrace -count=1
	$(GO) test ./internal/memsim/ -fuzz FuzzHierarchyTrace -fuzztime $(FUZZ_TIME)
	$(GO) test ./internal/store/ -run FuzzStoreEnvelope -count=1
	$(GO) test ./internal/store/ -fuzz FuzzStoreEnvelope -fuzztime $(FUZZ_TIME)
	$(GO) test ./internal/cachemodel/ -run FuzzModelLoad -count=1
	$(GO) test ./internal/cachemodel/ -fuzz FuzzModelLoad -fuzztime $(FUZZ_TIME)
	$(GO) test ./internal/pcap/ -run FuzzPcapRead -count=1
	$(GO) test ./internal/pcap/ -fuzz FuzzPcapRead -fuzztime $(FUZZ_TIME)
	$(GO) test ./internal/service/ -run FuzzAnalyzeBody -count=1
	$(GO) test ./internal/service/ -fuzz FuzzAnalyzeBody -fuzztime $(FUZZ_TIME)
	$(GO) test ./internal/obs/ -run FuzzReadChromeTrace -count=1
	$(GO) test ./internal/obs/ -fuzz FuzzReadChromeTrace -fuzztime $(FUZZ_TIME)
	$(GO) test ./internal/expr/ -run FuzzPinMatchesSubstitute -count=1
	$(GO) test ./internal/expr/ -fuzz FuzzPinMatchesSubstitute -fuzztime $(FUZZ_TIME)

# Regenerate docs/TELEMETRY.md from the instrument tables (obs.Catalog,
# service.Instruments). Run after editing a row; `go test .` fails on
# drift, since the document is TestTelemetryCatalog's golden file.
telemetry-catalog:
	$(GO) test . -run TestTelemetryCatalog -update -count=1

# Used by CI to install the exact pinned staticcheck.
print-staticcheck-version:
	@echo $(STATICCHECK_VERSION)

check: fmt vet lint build bench-build test
