# hypermeshfft — build, test and reproduction targets.

GO ?= go

.PHONY: all verify build vet lint test race test-race cover bench bench-compare bench-baseline alloc-baseline alloc-compare gobench fuzz vuln repro serve profile trace metrics-lint cluster-metrics-lint cluster-test pencil-test pencil-stress perf-test cluster-demo load-smoke load-baseline load-compare examples clean

all: verify

# verify is the tier-1 gate: build + vet + the repo's own analyzers,
# then tests, then the race detector over the concurrency-heavy
# packages' tests (worker pool, sharded plan cache, barrier, netsim
# engines).
verify: build vet lint test race

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# lint fails on any tracked Go file gofmt would change, then runs the
# repo's own fftlint analyzers (see docs/LINTING.md). It fails on any
# finding; suppress intentional sites with
# //fftlint:ignore <analyzer> <reason>. Listing tracked files keeps
# .bench_build/'s module cache out of the gofmt check.
lint:
	@files=$$(git ls-files '*.go') && [ -n "$$files" ] || { echo "lint: no tracked Go files to gofmt"; exit 1; }; \
	unformatted=$$(gofmt -l $$files); \
	if [ -n "$$unformatted" ]; then echo "gofmt -l lists:"; echo "$$unformatted"; exit 1; fi
	$(GO) run ./cmd/fftlint ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Backwards-compatible alias for the race target.
test-race: race

cover:
	$(GO) test -cover ./...

# Run the fftd service daemon (see docs/SERVICE.md for the endpoints).
serve:
	$(GO) run ./cmd/fftd

# profile captures CPU and heap profiles of a standard netsim FFT run
# (docs/OBSERVABILITY.md). Inspect with `go tool pprof $(PROFILE_DIR)/cpu.prof`.
# Tune the workload with PROFILE_ARGS='-net hypermesh -n 16384'.
PROFILE_DIR ?= /tmp/fftprofile
PROFILE_ARGS ?= -net hypercube -n 4096 -scenario fft
profile:
	mkdir -p $(PROFILE_DIR)
	$(GO) run ./cmd/netsim $(PROFILE_ARGS) \
		-cpuprofile $(PROFILE_DIR)/cpu.prof -memprofile $(PROFILE_DIR)/mem.prof
	@echo "profiles in $(PROFILE_DIR); view with: go tool pprof $(PROFILE_DIR)/cpu.prof"

# cluster-test runs the multi-node integration tests (3 in-process
# nodes, mid-batch node kill, drain and heartbeat membership) under the
# race detector. Mirrors the CI cluster job.
cluster-test:
	$(GO) test -race -run 'Cluster|Ring|Breaker|Registry|Readyz' -count=1 ./internal/cluster/... ./internal/server/

PENCIL_PKGS = ./internal/pencil/... ./internal/cluster/wire/
PENCIL_SERVE_PKGS = ./internal/cluster ./internal/server/ ./internal/load/
PENCIL_SERVE_RUN = 'Pencil|FFT2D|RequestBodyLimit'

# pencil-test runs the distributed 2D/3D pencil FFT suites under the
# race detector: the coordinator/worker unit tests, the 3-node
# real-TCP bit-identity + mid-transpose node-kill tests, and the
# /v1/fft2d serving tests. Mirrors the CI pencil job
# (docs/PENCIL.md).
pencil-test:
	$(GO) test -race -count=1 $(PENCIL_PKGS)
	$(GO) test -race -count=1 -run $(PENCIL_SERVE_RUN) $(PENCIL_SERVE_PKGS)

# pencil-stress is pencil-test fifty times over: the same packages and
# filter under the race detector, hunting ordering bugs in the
# coordinator's per-band fan-out, the workers and the /v1/fft2d path.
# It stays within the pencil suites so the cluster failover flake
# (ROADMAP item 7) cannot fail it. Mirrors the nightly pencil-stress job.
pencil-stress:
	$(GO) test -race -count=50 $(PENCIL_PKGS)
	$(GO) test -race -count=50 -run $(PENCIL_SERVE_RUN) $(PENCIL_SERVE_PKGS)

# perf-test vets and tests the fftperf benchmark (cmd/fftperf/README.md).
# It is a nested module, so the root `go build ./...` and `go test ./...`
# never compile it, yet it builds against the server's request and
# response types and about ten other internal APIs. Its tests start real
# fftd processes (~17 s). Mirrors the CI perf job.
perf-test:
	cd cmd/fftperf && $(GO) vet . && $(GO) test .

# cluster-demo runs the in-process 3-node ring walkthrough: a
# 64-transform batch with one node killed mid-batch and zero failed
# requests (see docs/CLUSTER.md).
cluster-demo:
	$(GO) run ./examples/cluster-demo

# trace writes a Chrome trace_event span trace of the paper's Table 2A
# verification simulations — load it in chrome://tracing or Perfetto.
TRACE_OUT ?= /tmp/fftrepro-trace.json
trace:
	$(GO) run ./cmd/fftrepro -only 2a -trace $(TRACE_OUT)

# metrics-lint starts fftd, scrapes GET /metrics with Accept: text/plain
# and validates the Prometheus exposition with the repo's parser-based
# lint (cmd/promlint). Mirrors the CI metrics-scrape job.
METRICS_ADDR ?= 127.0.0.1:18080
metrics-lint:
	$(GO) build -o /tmp/fftd-lint ./cmd/fftd
	$(GO) build -o /tmp/promlint ./cmd/promlint
	/tmp/fftd-lint -addr $(METRICS_ADDR) & \
	FFTD_PID=$$!; \
	trap 'kill $$FFTD_PID 2>/dev/null' EXIT; \
	for i in $$(seq 1 50); do \
		curl -sf http://$(METRICS_ADDR)/healthz >/dev/null 2>&1 && break; sleep 0.1; \
	done; \
	curl -s -X POST -d '{"input": [[1,0],[0,0],[0,0],[0,0]]}' http://$(METRICS_ADDR)/v1/fft >/dev/null; \
	curl -s -H 'Accept: text/plain' http://$(METRICS_ADDR)/metrics | /tmp/promlint
	@echo "metrics exposition is clean"

# cluster-metrics-lint is the cluster half of the exposition gate: a
# real 3-node ring over loopback TCP, transforms of several shapes
# driven through one node so some forward across the wire, then every
# node's /metrics is promlint-validated and the coordinator's must
# carry the cluster families — hedge outcomes, wire byte counters and
# a communication-roofline ratio >= 1.0. Mirrors the CI
# metrics-scrape job's cluster step.
CLUSTER_HTTP1 ?= 127.0.0.1:18081
CLUSTER_HTTP2 ?= 127.0.0.1:18082
CLUSTER_HTTP3 ?= 127.0.0.1:18083
CLUSTER_ADDR1 ?= 127.0.0.1:19081
CLUSTER_ADDR2 ?= 127.0.0.1:19082
CLUSTER_ADDR3 ?= 127.0.0.1:19083
cluster-metrics-lint:
	$(GO) build -o /tmp/fftd-lint ./cmd/fftd
	$(GO) build -o /tmp/promlint ./cmd/promlint
	/tmp/fftd-lint -log=false -addr $(CLUSTER_HTTP1) -cluster $(CLUSTER_ADDR1) -peers $(CLUSTER_ADDR2),$(CLUSTER_ADDR3) & P1=$$!; \
	/tmp/fftd-lint -log=false -addr $(CLUSTER_HTTP2) -cluster $(CLUSTER_ADDR2) -peers $(CLUSTER_ADDR1),$(CLUSTER_ADDR3) & P2=$$!; \
	/tmp/fftd-lint -log=false -addr $(CLUSTER_HTTP3) -cluster $(CLUSTER_ADDR3) -peers $(CLUSTER_ADDR1),$(CLUSTER_ADDR2) & P3=$$!; \
	trap 'kill $$P1 $$P2 $$P3 2>/dev/null' EXIT; \
	for a in $(CLUSTER_HTTP1) $(CLUSTER_HTTP2) $(CLUSTER_HTTP3); do \
		for i in $$(seq 1 50); do \
			curl -sf http://$$a/healthz >/dev/null 2>&1 && break; sleep 0.1; \
		done; \
	done; \
	for n in 64 128 256 512 1024 2048 4096; do \
		body='{"input":[[1,0]'; i=1; \
		while [ $$i -lt $$n ]; do body="$$body,[0,0]"; i=$$((i+1)); done; \
		body="$$body]}"; \
		curl -sf -X POST -d "$$body" http://$(CLUSTER_HTTP1)/v1/fft >/dev/null || exit 1; \
		curl -sf -X POST -d "$${body%?},\"inverse\":true}" http://$(CLUSTER_HTTP1)/v1/fft >/dev/null || exit 1; \
	done; \
	body='{"rows":16,"cols":16,"input":[[1,0]'; i=1; \
	while [ $$i -lt 256 ]; do body="$$body,[0,0]"; i=$$((i+1)); done; \
	body="$$body]}"; \
	curl -sf -X POST -d "$$body" http://$(CLUSTER_HTTP1)/v1/fft2d >/dev/null || exit 1; \
	for a in $(CLUSTER_HTTP1) $(CLUSTER_HTTP2) $(CLUSTER_HTTP3); do \
		curl -s -H 'Accept: text/plain' http://$$a/metrics | /tmp/promlint || exit 1; \
	done; \
	text=$$(curl -s -H 'Accept: text/plain' http://$(CLUSTER_HTTP1)/metrics); \
	for fam in fftd_cluster_comm_bytes_total fftd_cluster_hedge_outcome_total fftd_comm_roofline_ratio \
		fftd_pencil_transforms_total fftd_pencil_rpcs_total fftd_pencil_wire_bytes_total \
		fftd_pencil_comm_floor_bytes_total fftd_pencil_roofline_ratio fftd_pencil_band_bytes; do \
		echo "$$text" | grep -q "^$$fam" || { echo "missing family $$fam"; exit 1; }; \
	done; \
	echo "$$text" | awk '/^fftd_comm_roofline_ratio/ { if ($$2 + 0 < 1.0) { print "roofline ratio " $$2 " < 1.0"; exit 1 } found = 1 } END { exit !found }' || exit 1; \
	echo "$$text" | awk '/^fftd_pencil_roofline_ratio/ { if ($$2 + 0 < 1.0) { print "pencil roofline ratio " $$2 " < 1.0"; exit 1 } found = 1 } END { exit !found }' || exit 1
	@echo "cluster metrics exposition is clean"

# Regenerate every paper table/figure and the recorded outputs.
repro:
	$(GO) run ./cmd/fftrepro
	$(GO) test ./... 2>&1 | tee test_output.txt
	$(GO) test -bench=. -benchmem ./... 2>&1 | tee bench_output.txt

# bench runs the fftbench perf-regression suites (docs/BENCHMARKS.md),
# writing the report to a throwaway path. Narrow with SUITES=fft,netsim.
SUITES ?=
BENCH_OUT ?= /tmp/fftbench-local.json
bench:
	$(GO) run ./cmd/fftbench run -out $(BENCH_OUT) $(if $(SUITES),-suites $(SUITES))

# bench-baseline writes the next versioned BENCH_<seq>.json at the repo
# root — commit it to refresh the regression baseline.
bench-baseline:
	$(GO) run ./cmd/fftbench run -dir .

# bench-compare reruns the suites and fails if any suite regressed past
# its threshold relative to the committed baseline (highest BENCH_*.json
# by default; override with BASELINE=BENCH_2.json THRESHOLD=1.5).
BASELINE ?= $(lastword $(sort $(wildcard BENCH_*.json)))
THRESHOLD ?=
bench-compare:
	$(GO) run ./cmd/fftbench run -out $(BENCH_OUT) -compare $(BASELINE) $(if $(THRESHOLD),-threshold $(THRESHOLD))

# load-smoke runs the hermetic CI saturation sweep (docs/LOADGEN.md):
# the -quick knee workload on a closed-loop 1..32 ladder against a
# deliberately tiny in-process fftd (1 worker, 1 queue slot), writing a
# schema-validated LOAD artifact to a throwaway path. -strict fails on
# any non-429 error; 429s are the server's own backpressure and are
# expected at the knee.
LOAD_OUT ?= /tmp/fftload-local.json
load-smoke:
	$(GO) run ./cmd/fftload sweep -quick -inproc -inproc-workers 1 -inproc-queue 1 \
		-out $(LOAD_OUT) -strict

# load-baseline writes the next versioned LOAD_<seq>.json at the repo
# root — commit it to refresh the saturation baseline.
load-baseline:
	$(GO) run ./cmd/fftload sweep -quick -inproc -inproc-workers 1 -inproc-queue 1 \
		-dir . -strict

# load-compare reruns the quick sweep and fails if capacity (the knee's
# sustainable throughput) regressed past the threshold relative to the
# committed baseline (highest LOAD_*.json by default; override with
# LOAD_BASELINE=LOAD_2.json LOAD_THRESHOLD=0.5).
LOAD_BASELINE ?= $(lastword $(sort $(wildcard LOAD_*.json)))
LOAD_THRESHOLD ?=
load-compare:
	$(GO) run ./cmd/fftload sweep -quick -inproc -inproc-workers 1 -inproc-queue 1 \
		-out $(LOAD_OUT) -strict -compare $(LOAD_BASELINE) \
		$(if $(LOAD_THRESHOLD),-threshold $(LOAD_THRESHOLD))

# alloc-baseline writes the next versioned ALLOC_<seq>.json at the repo
# root: the compiler's heap-escape verdicts for every //fftlint:hot
# package, attributed to functions. Commit it to refresh the budget —
# and re-run it whenever the Go minor version changes, since escape
# analysis is not stable across minors (fftalloc refuses skewed diffs).
alloc-baseline:
	$(GO) run ./cmd/fftalloc record -dir .

# alloc-compare rebuilds the hot packages with -gcflags=-m and fails if
# any hot function escapes more than the committed baseline allows
# (highest ALLOC_*.json by default; override with
# ALLOC_BASELINE=ALLOC_6.json).
ALLOC_BASELINE ?=
alloc-compare:
	$(GO) run ./cmd/fftalloc compare $(if $(ALLOC_BASELINE),-baseline $(ALLOC_BASELINE))

# gobench runs the ordinary `go test` microbenchmarks.
gobench:
	$(GO) test -bench=. -benchmem ./...

# fuzz gives each fuzz target a short smoke budget — enough to catch
# regressions in the pinned properties without stalling CI. Override
# with FUZZTIME=60s for a deeper run.
FUZZTIME ?= 10s
fuzz:
	$(GO) test -fuzz=FuzzBitReverse -fuzztime=$(FUZZTIME) ./internal/bits
	$(GO) test -fuzz=FuzzPermuteCompose -fuzztime=$(FUZZTIME) ./internal/permute
	$(GO) test -fuzz=FuzzFFTInverse -fuzztime=$(FUZZTIME) ./internal/fft
	$(GO) test -fuzz=FuzzAnyPlanDFT -fuzztime=$(FUZZTIME) ./internal/fft
	$(GO) test -fuzz=FuzzWireDecode -fuzztime=$(FUZZTIME) ./internal/cluster/wire
	$(GO) test -fuzz=FuzzDecodeFFTRequest -fuzztime=$(FUZZTIME) ./internal/server
	$(GO) test -run='^FuzzParse$$' -fuzz='^FuzzParse$$' -fuzztime=$(FUZZTIME) ./internal/jsonnum
	$(GO) test -run='^FuzzAppendFloat$$' -fuzz='^FuzzAppendFloat$$' -fuzztime=$(FUZZTIME) ./internal/jsonnum

# vuln scans the module with govulncheck when it is installed; the tool
# is optional so offline environments are not broken.
vuln:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "govulncheck not installed; skipping (go install golang.org/x/vuln/cmd/govulncheck@latest)"; \
	fi

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/hypermesh-fft
	$(GO) run ./examples/network-compare
	$(GO) run ./examples/bitonic-sort
	$(GO) run ./examples/spectral-filter
	$(GO) run ./examples/parallel-primitives
	$(GO) run ./examples/matrix-algorithms
	$(GO) run ./examples/service-client
	$(GO) run ./examples/cluster-demo

clean:
	$(GO) clean ./...
