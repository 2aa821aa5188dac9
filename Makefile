GO ?= go

# CHAOS_SEEDS widens the randomized chaos sweeps (see internal/chaos and
# the nightly CI job); unset, the tests run their small default sweeps.
CHAOS_SEEDS ?=

# FUZZTIME is how long each native fuzz target runs under `make fuzz`.
FUZZTIME ?= 30s

# APPLY_WORKERS is a comma list of worker counts the parallel-apply
# property tests sweep (default 1,2,4,8); `make race APPLY_WORKERS=...`
# narrows or widens the matrix.
APPLY_WORKERS ?=

# TRACE_OUT is where trace-smoke writes its Chrome trace artifact.
TRACE_OUT ?= trace-smoke.json

# NODE_SMOKE_DIR is where node-smoke writes the per-node logs CI uploads.
NODE_SMOKE_DIR ?= node-smoke-logs

# CATCHUP_SMOKE_DIR is where catchup-smoke writes logs and the fetched
# archive CI uploads.
CATCHUP_SMOKE_DIR ?= catchup-smoke-logs

# OBS_SMOKE_DIR is where bench-cluster writes the per-node logs CI uploads.
OBS_SMOKE_DIR ?= obs-smoke-logs

# INGRESS_SMOKE_DIR is where ingress-smoke writes the per-node logs CI uploads.
INGRESS_SMOKE_DIR ?= ingress-smoke-logs

# ALERTS_SMOKE_DIR is where alerts-smoke writes logs and crash bundles CI uploads.
ALERTS_SMOKE_DIR ?= alerts-smoke-logs

# STATICCHECK is the staticcheck binary `make check` uses when present.
STATICCHECK ?= staticcheck

.PHONY: all build test race vet fmt staticcheck paybench-check check bench bench-smoke trace-smoke fuzz chaos soak node-smoke catchup-smoke bench-cluster ingress-smoke alerts-smoke

all: check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	APPLY_WORKERS=$(APPLY_WORKERS) $(GO) test -race ./...

vet:
	$(GO) vet ./...

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# staticcheck runs honnef.co/go/tools when the binary is available and
# degrades to a notice when it is not: contributors without the tool still
# get the rest of the gate, while CI pins and installs it so the check
# always runs there.
staticcheck:
	@if command -v $(STATICCHECK) >/dev/null 2>&1; then \
		$(STATICCHECK) ./...; \
	else \
		echo "staticcheck not installed; skipping (CI runs it pinned)"; \
	fi

# paybench-check vets and short-tests the paybench module, a separate Go
# module that compiles against the root packages: `./...` above does not
# reach it, so an API change it depends on would otherwise go unnoticed.
paybench-check:
	cd paybench && $(GO) vet ./... && $(GO) test -short ./...

# check is the full local gate: formatting, static analysis, the race
# detector over the whole tree, and the paybench module's build. CI's
# push gate runs exactly this.
check: fmt vet staticcheck race paybench-check

bench:
	$(GO) test -run '^$$' -bench 'BenchmarkSCPRound|BenchmarkBaseline|BenchmarkVerifyTxSet|BenchmarkApplyTxSetParallel|BenchmarkBucketRehash' -count 3 .

# bench-smoke runs each benchmark once — a fast regression tripwire for CI,
# not a measurement — plus the nil-tracer overhead budget (tracing off
# must cost <1% of a consensus round).
bench-smoke:
	$(GO) test -run '^$$' -bench 'BenchmarkSCPRound|BenchmarkBaseline|BenchmarkVerifyTxSet|BenchmarkApplyTxSetParallel|BenchmarkBucketRehash' -benchtime 1x .
	TRACE_OVERHEAD=1 $(GO) test -run '^TestNilTracerOverhead$$' -v .

# trace-smoke runs a short traced simulation, validates the exported
# Chrome trace (schema + full parent-linked tx lifecycle), and prints the
# latency decomposition. CI uploads $(TRACE_OUT) as an artifact.
trace-smoke:
	$(GO) run ./cmd/stellar-sim -validators 4 -accounts 500 -rate 20 -duration 40s \
		-archive $$(mktemp -d) -trace $(TRACE_OUT) -decompose
	$(GO) run ./cmd/tracecheck -lifecycle $(TRACE_OUT)

# fuzz runs each native fuzz target for FUZZTIME. Go permits only one
# -fuzz pattern per invocation, hence one run per target.
fuzz:
	$(GO) test ./internal/xdr/ -run '^$$' -fuzz '^FuzzTxDecodeRoundTrip$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/xdr/ -run '^$$' -fuzz '^FuzzQuorumSetDecodeRoundTrip$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/ledger/ -run '^$$' -fuzz '^FuzzCheckSignatures$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/ledger/ -run '^$$' -fuzz '^FuzzReadWriteSets$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/transport/ -run '^$$' -fuzz '^FuzzFrameDecode$$' -fuzztime $(FUZZTIME)

# bench-cluster boots a 3-process TCP quorum with live tracing, drives
# payment load through horizon (scripts/bench-cluster.sh), and publishes
# BENCH_cluster.json plus the merged cluster-trace.json — validated by
# `stellar-obs check` and `tracecheck -cluster`. It then regenerates
# BENCH_micro.json from one pass of the microbenchmarks.
bench-cluster:
	OBS_SMOKE_DIR=$(OBS_SMOKE_DIR) ./scripts/bench-cluster.sh
	$(GO) test -run '^$$' -bench 'BenchmarkSCPRound|BenchmarkBaseline|BenchmarkVerifyTxSet|BenchmarkApplyTxSetParallel|BenchmarkBucketRehash' -benchtime 1x . \
		| $(GO) run ./cmd/benchtables -bench-json BENCH_micro.json

# node-smoke boots a 3-process TCP quorum (cmd/stellar-node), waits for
# ledger 20 on every node, and cross-checks header hashes over HTTP;
# logs land in $(NODE_SMOKE_DIR) for CI artifact upload.
node-smoke:
	NODE_SMOKE_DIR=$(NODE_SMOKE_DIR) ./scripts/node-smoke.sh

# catchup-smoke boots a 3-process archiving TCP quorum to ledger 30, then
# cold-starts a 4th node with an empty -data-dir and -catchup: it must
# fetch the archive over the wire, replay to the tip, join the quorum,
# and close 5 more byte-identical ledgers (DESIGN.md Â§16).
catchup-smoke:
	CATCHUP_SMOKE_DIR=$(CATCHUP_SMOKE_DIR) ./scripts/catchup-smoke.sh

# ingress-smoke boots a 3-process TCP quorum with a tiny mempool, ramps
# offered load with the ceiling probe until the ingress answers 429, and
# asserts the backpressure contract (valid Retry-After, surge-fee hints,
# zero accepted-then-lost). Publishes the probe-extended BENCH_cluster.json.
ingress-smoke:
	OBS_SMOKE_DIR=$(INGRESS_SMOKE_DIR) ./scripts/ingress-smoke.sh

# alerts-smoke boots a 3-process TCP quorum with the detection stack on,
# wedges two validators with SIGSTOP, and asserts the alerting loop end
# to end: close_stall and quorum_unavailable fire on the survivor, the
# watchdog dumps a crash bundle, and every alert resolves after SIGCONT.
alerts-smoke:
	ALERTS_SMOKE_DIR=$(ALERTS_SMOKE_DIR) ./scripts/alerts-smoke.sh

# chaos runs the fault-injection acceptance scenarios (partition +
# Byzantine equivocators + heal across 20 seeds, plus the soak sweep).
chaos:
	$(GO) test ./internal/chaos/ ./internal/experiments/ -run 'Chaos|PartitionHeal|RandomScenario' -v

# soak is the nightly-sized run: every chaos sweep widened by CHAOS_SEEDS
# and repeated, plus the long experiments soaks.
soak:
	CHAOS_SEEDS=$(or $(CHAOS_SEEDS),40) $(GO) test ./internal/chaos/ ./internal/experiments/ -count 2 -timeout 45m
