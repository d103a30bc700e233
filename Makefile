# MPICH-GQ reproduction — common tasks.

GO ?= go

.PHONY: all build vet lint lint-json test-analysis test test-short test-chaos fuzz bench bench-json bench-guard smoke-gqd results figures examples clean

all: build vet lint test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...
	$(GO) test -race ./internal/metrics/... ./internal/sim/...
	$(GO) test -race -short ./internal/netsim/... ./internal/tcpsim/... ./internal/ctrlplane/...

# Unformatted files (gofmt -l) fail the gate. Then the custom analyzer
# suite (internal/analysis, driven by cmd/gqlint): determinism,
# poolownership, spanlifecycle, hotpathalloc, unitsafety, shardsafety.
# Must exit 0 on the whole tree; violations are either fixed or carry
# an inline //lint:ignore justification (stale directives are findings
# too). See docs/static-analysis.md.
lint:
	test -z "$$(gofmt -l .)"
	$(GO) vet ./...
	$(GO) run ./cmd/gqlint ./...

# CI variant: same gate, but the full diagnostic inventory — including
# suppressed findings — is archived as JSON Lines for artifact upload.
GQLINT_JSON ?= gqlint-diagnostics.jsonl
lint-json:
	test -z "$$(gofmt -l .)"
	$(GO) vet ./...
	$(GO) run ./cmd/gqlint -json ./... > $(GQLINT_JSON)
	@echo "gqlint: $$(wc -l < $(GQLINT_JSON)) diagnostic record(s) in $(GQLINT_JSON)"

# The analyzer framework's own tests: loader, suppression/stale logic,
# call graph, summaries, each analyzer's // want fixtures.
test-analysis:
	$(GO) test ./internal/analysis/... ./cmd/gqlint/

test:
	$(GO) test ./... -timeout 1800s

# Skips the slow binary-search and ablation sweeps.
test-short:
	$(GO) test ./... -short -timeout 600s

# Chaos soak: control-plane crash/restart, lossy-channel, and MPI
# rank-failure tests under the race detector, plus the traced-figure
# determinism regressions (-parallel 1 vs 8 byte-identical, crash
# schedules included). Seeds are fixed in the tests, so runs are
# reproducible.
test-chaos:
	$(GO) test -race -count=1 -run 'Chaos|Soak|Crash|Breaker|Gate|TraceDeterministic' \
		./internal/ctrlplane/... ./internal/faults/... ./internal/gara/... ./internal/core/... \
		./internal/mpi/... ./internal/experiments/... \
		-timeout 900s

# Fuzz targets against their references, for a fixed budget each:
# kernel event ordering against a brute-force queue, the AIMD
# limiter's gated grants against the plain re-check loop, and TCP
# message framing over a lossy link against the writer's call list.
# Plain `go test` replays only the committed seed corpora under
# testdata/fuzz/ in each package.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzKernelOrder$$' -fuzztime 30s ./internal/sim/
	$(GO) test -run '^$$' -fuzz '^FuzzLimiterGrants$$' -fuzztime 30s ./internal/ctrlplane/
	$(GO) test -run '^$$' -fuzz '^FuzzConnMessages$$' -fuzztime 30s ./internal/tcpsim/

bench:
	$(GO) test -bench=. -benchmem -benchtime=1x -run xxx -timeout 1800s .

# Micro + macro benchmark trajectory for this PR, committed as JSON so
# future PRs can diff against it. Override BENCH_OUT for the next PR's
# file (bench-guard always picks the newest BENCH_PR<n>.json).
BENCH_OUT ?= BENCH_PR9.json
bench-json:
	{ $(GO) test -bench 'BenchmarkKernel|BenchmarkLinkForward|BenchmarkTCPTransfer' \
		-benchmem -run xxx ./internal/sim/ ./internal/netsim/ ./internal/tcpsim/ ; \
	  $(GO) test -bench 'BenchmarkFigure5|BenchmarkAdmissionStorm' -benchmem -benchtime=1x -run xxx -timeout 1800s . ; } \
		| $(GO) run ./cmd/benchjson > $(BENCH_OUT)
	cat $(BENCH_OUT)

# Fast CI guard: the packet-forward hot path must stay at 0 allocs/op,
# the kernel's pooled event path must stay allocation-free, and the
# guard benchmarks — including the full fluid-mode Figure 5 macro run
# — must not regress against the newest committed BENCH_PR<n>.json
# trajectory.
bench-guard:
	$(GO) test -run 'ZeroAlloc' -count=1 ./internal/sim/ ./internal/netsim/
	{ $(GO) test -bench 'BenchmarkKernelAfter$$|BenchmarkLinkForward' -benchmem -run xxx \
		./internal/sim/ ./internal/netsim/ ; \
	  $(GO) test -bench 'BenchmarkFigure5$$' -benchmem -benchtime=1x -run xxx -timeout 600s . ; } \
		| $(GO) run ./cmd/benchjson -guard

# End-to-end smoke of the gqd observability daemon: short live fig5
# run, every endpoint must answer 200 with a body, SIGTERM must shut
# down cleanly.
smoke-gqd:
	bash scripts/gqd_smoke.sh

# Paper-length regeneration of every table and figure (takes a while).
results:
	$(GO) run ./cmd/garnet -exp all -scale 1 -svgdir docs/figures > RESULTS.txt

# Figure regeneration for docs. The contention-sweep figures (fig5,
# fig6, fig7, figF) run their background traffic in hybrid fluid mode:
# same curves within the validated 2% bound, an order of magnitude
# less kernel work. Drop -fluid to regenerate the packet-level golden.
figures:
	$(GO) run ./cmd/garnet -exp fig1 -svgdir docs/figures >/dev/null
	$(GO) run ./cmd/garnet -exp fig5 -fluid -svgdir docs/figures >/dev/null
	$(GO) run ./cmd/garnet -exp fig6 -fluid -svgdir docs/figures >/dev/null
	$(GO) run ./cmd/garnet -exp fig7 -fluid -svgdir docs/figures >/dev/null
	$(GO) run ./cmd/garnet -exp fig8 -svgdir docs/figures >/dev/null
	$(GO) run ./cmd/garnet -exp fig9 -svgdir docs/figures >/dev/null
	$(GO) run ./cmd/garnet -exp figF -fluid -svgdir docs/figures >/dev/null
	$(GO) run ./cmd/garnet -exp figG -svgdir docs/figures >/dev/null
	$(GO) run ./cmd/garnet -exp figH -svgdir docs/figures >/dev/null
	$(GO) run ./cmd/garnet -exp figI -svgdir docs/figures >/dev/null

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/visualization
	$(GO) run ./examples/cpureserve
	$(GO) run ./examples/collectives
	$(GO) run ./examples/advance
	$(GO) run ./examples/selfhealing

clean:
	$(GO) clean ./...
