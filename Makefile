GO ?= go

.PHONY: build test vet race check bench fuzz snapshot smoke perf fma

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# vet also fails on any file gofmt would rewrite.
vet:
	$(GO) vet ./...
	test -z "$$(gofmt -l .)"

# race exercises the concurrency-bearing packages — the trainer's
# worker goroutines sharing one network, the parallel Fit
# collection pass, the validator's ScoreEach worker pool, the
# Detector's check body (its statistics and ε under one lock), the
# telemetry registry they all observe into, the serving micro-batcher,
# the fleet gateway (router, probers, rollout), the hunt scheduler
# fanning candidates across the scoring pool (its worker-count
# determinism test included), the experiment harness that drives
# them, the shared observability plane (the SLO engine's goroutine
# reads the flight ring request goroutines write), and the one-class
# SVMs every scoring goroutine reads (built complete before they are
# shared) — under the race detector. Then two lifetime sets run 20
# more times, as CI runs them: the gateway's request-record tests (a
# record recycled only after its last transport reader closes, each
# client answered from its own record, and forward header maps never
# written once the transport has them) and
# dvserve's pixel, record and result tests (a request record and its
# decoded pixels recycled only after every verdict of the request
# arrives, never on the 504 or client-gone path, a gone client's
# request never scored, and the flight and event rings keeping each
# verdict's per-layer row in storage their slots own). Last, the pair
# loader's error-order and join tests run at 1, 2 and 4 Ps, so both of
# its loads finish first at some interleaving.
race:
	$(GO) test -race -timeout 45m ./internal/nn ./internal/svm ./internal/core ./internal/experiment ./internal/telemetry ./internal/serve ./internal/gateway ./internal/hunt ./internal/obs ./internal/trace .
	$(GO) test -race -count=20 -run 'TestBodyRefCount|TestEarlyAnswerBodyIntact|TestRetryOnReplica500|TestForwardHeadersImmutable|TestRecordsCarryTheirOwnAnswers' ./internal/gateway
	$(GO) test -race -count=20 -run 'TestDeadlinePixelsNotRecycled|TestOverlappingBatchesReusePixels|TestServeEquivalenceConcurrent|TestBatcherSweepsQueueBehindBusyWorker|TestBatchRecordsInMemberOrder|TestClientGoneNotScored|TestExpiredRecordsNotReused|TestFlightEntriesKeepTheirRows|TestFlightSnapshotOwnsRows|TestEventSnapshotOwnsRows|TestRejectedBatchKeepsNoImages' ./internal/serve ./internal/trace ./internal/obs
	$(GO) test -race -cpu 1,2,4 -run 'TestLoadPair' ./internal/core

# smoke runs the end-to-end checks against real processes: the
# observability pass (train, score, scrape /metrics), the serving
# pass (dvserve check/batch/reload, 429 shedding, SIGTERM drain), the
# chaos pass (artifact corruption, crash-safe saves, reload
# degradation and recovery, mismatched model/validator pairs refused by
# dvcheck and dvvalidate score), the tracing pass (span trees, flight
# recorder triage, drift gauges, legacy drift degradation — against a
# race-built dvserve), the hunt pass (train → coverage-guided
# mine → byte-identical corpora across -workers → strict replay →
# dvbench writes the reproduction golden plus the escape-rate table →
# unknown -exp rejected before the cache → committed-corpus regression
# test), and
# the obs pass (wide-event log + rotation, dv_runtime_*/dv_slo_*
# gauges, forced 429 burn to a cross-linked SLO breach event — against
# a race-built dvserve), and the gateway pass (race-built 2-replica
# fleet: rendezvous routing, kill -9 → drain with zero client 5xx,
# reinstatement, corrupt-rollout refusal, halted rollout → automatic
# rollback, retried rollout convergence), and the fleet obs pass
# (both tiers traced: injected ID → one stitched two-tier span tree,
# fleet/flight aggregation, kill -9 → marked partial tree, shed burst
# → gateway availability breach with a resolvable cross-linked trace).
# The scripts share scripts/lib.sh (workdir and cleanup trap, builds,
# the trained fixture, process start, HTTP helpers); every race-built
# pass — trace, obs, gateway, fleet obs — fails on a race report in
# any process log.
smoke:
	./scripts/telemetry_smoke.sh
	./scripts/serve_smoke.sh
	./scripts/chaos_smoke.sh
	./scripts/trace_smoke.sh
	./scripts/hunt_smoke.sh
	./scripts/obs_smoke.sh
	./scripts/gateway_smoke.sh
	./scripts/fleet_obs_smoke.sh

# perf is the allocation-regression gate for scoring and fitting:
# bytes/op of BenchmarkScoreBatch/workers=1 and BenchmarkFit/workers=1,
# at GOMAXPROCS 1, 2 and 4, must each stay within 2x of the committed
# BENCH_pipeline.json baseline (bytes/op is deterministic for
# the fixed workload, unlike wall clock). Pass WORKERS="1 2 4" for the
# informational multicore sweep the nightly CI job runs.
perf:
	./scripts/perf_smoke.sh $(WORKERS)

# fma cross-builds every command for arm64 and fails on any fused
# multiply-add in the repo's own functions: a fused x*y + z rounds once,
# so arm64 would compute other bits than amd64 (see scripts/fma_scan.sh).
fma:
	./scripts/fma_scan.sh

# check is the CI gate: full build + tests, vet, the race pass, the
# end-to-end smoke runs, the perf allocation gate and the fusion scan.
check: build test vet race smoke perf fma

bench:
	$(GO) test -bench 'BenchmarkFit|BenchmarkScoreBatch' -benchmem -run '^$$' .

fuzz:
	$(GO) test -fuzz FuzzImageValidate -fuzztime 30s -run '^$$' .
	$(GO) test -fuzz FuzzCheckRequest -fuzztime 30s -run '^$$' ./internal/serve
	$(GO) test -fuzz FuzzBatchStream -fuzztime 30s -run '^$$' ./internal/serve
	$(GO) test -fuzz FuzzTraceID -fuzztime 30s -run '^$$' ./internal/trace
	$(GO) test -fuzz FuzzReadPNM -fuzztime 30s -run '^$$' ./internal/dataset
	$(GO) test -fuzz FuzzLoadPNM -fuzztime 30s -run '^$$' ./internal/dataset
	$(GO) test -fuzz FuzzTransformCompose -fuzztime 30s -run '^$$' ./internal/imgtrans
	$(GO) test -fuzz FuzzDecisionBatchEquivalence -fuzztime 30s -run '^$$' ./internal/svm
	$(GO) test -fuzz FuzzAxpyKernelEquivalence -fuzztime 30s -run '^$$' ./internal/tensor

# snapshot refreshes BENCH_pipeline.json, the committed perf trajectory
# for the parallel scoring & fitting pipeline.
snapshot:
	DV_BENCH_SNAPSHOT=1 $(GO) test -run TestBenchPipelineSnapshot -count=1 -v .
