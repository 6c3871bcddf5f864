# Stdlib-only Go repo: these targets are exactly what CI runs.

GO ?= go

.PHONY: all build vet ranvet loc lint test race short chaos chaos-supervise soak scale-smoke bench ranbench-selftest allocs fuzz check

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# ranvet enforces the datapath invariants with the full v2 suite:
# hot-path allocations, atomic field discipline, shard safety, sim-clock
# purity, wire bounds, deterministic-path flow, state-machine transition
# tables, SPSC ring ownership, metrics-registry consistency, and stale
# suppressions. See internal/analysis and DESIGN.md §6.4 / §6.9.
ranvet:
	$(GO) run ./cmd/ranvet ./...

# loc prints the four size figures ROADMAP tracks for the engine and its
# checker, always counted the same way: non-test lines (wc -l over *.go
# minus *_test.go, top level of the package), in-source waivers, and the
# settable values under core.Config as TestConfigSurface counts them. It
# reports; nothing gates on it (the test pins the fourth).
loc:
	@echo "internal/core non-test lines:      $$(ls internal/core/*.go | grep -v _test.go | xargs cat | wc -l)"
	@echo "internal/analysis non-test lines:  $$(ls internal/analysis/*.go | grep -v _test.go | xargs cat | wc -l)"
	@echo "//ranvet:allow outside the analyzers: $$(grep -r '//ranvet:allow' --include='*.go' . | grep -vc '^./internal/analysis')"
	@echo "core.Config settable values:       $$($(GO) test -count=1 -run '^TestConfigSurface$$' -v ./internal/core | sed -n 's/.*settable values: //p')"

# lint = vet + ranvet, plus govulncheck and golangci-lint when installed
# (CI installs them; local runs skip what's missing rather than fail).
lint: vet ranvet
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "govulncheck not installed; skipping (go install golang.org/x/vuln/cmd/govulncheck@latest)"; \
	fi
	@if command -v golangci-lint >/dev/null 2>&1; then \
		golangci-lint run; \
	else \
		echo "golangci-lint not installed; skipping"; \
	fi

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Quick signal: unit tests only (system tests skip themselves in -short).
short:
	$(GO) test -short ./...

# Chaos smoke: the fault-injection layer's own tests plus the seeded
# chaos regressions that are cheap enough for a pre-commit loop.
chaos:
	$(GO) test ./internal/fault/ -run . -count=1
	$(GO) test ./internal/testbed/ -run 'TestChaos' -count=1
	$(GO) test ./internal/fabric/ -race -run TestPortStatsConcurrentRead -count=1

# Supervision chaos smoke: the seeded panic/stall acceptance run
# (internal/fault) under the race detector, plus the supervision and
# overload-shedding rows of the chaos experiment. Injector schedules and the breaker run on the sim
# clock; the shard watchdog's deadline is wall time (its workers are
# goroutines), asserted against a bound that scales with the polls given.
chaos-supervise:
	$(GO) test ./internal/fault/ -race -run 'TestChaosSupervisionAcceptance|TestPanicEvery|TestStall' -count=1
	$(GO) test ./internal/experiments/ -run TestSuperviseScenarios -count=1 -v

# Metro soak: the full 10k-slot chained-middlebox scenario — hundreds of
# RUs over a multi-hop fabric — asserting frame conservation at every
# hop, per-eAxC FIFO end to end, and zero goroutine leaks. Seeded and
# sim-clocked; -short (the CI unit pass) runs a 1k-slot cut.
soak:
	$(GO) test ./internal/testbed/ -run 'TestMetro' -count=1 -v

# Scale smoke: the small metro configurations and the work-stealing
# admission tests under the race detector.
scale-smoke:
	$(GO) test ./internal/testbed/ -race -short -run 'TestMetro' -count=1
	$(GO) test ./internal/core/ -race -short -run 'TestWorkSteal|TestScalePolicy' -count=1

# The repository's benchmark is ranbench (bench/, BENCHMARK.json), a
# module of its own that build, vet and test above do not see: all four
# workloads, one JSON document (see bench/README.md).
bench:
	$(GO) run -C bench ranbooster/bench -all

# ranbench-selftest compiles ranbench against the current internal/ API and
# runs its replay-hygiene self-test (< 5 s, no timing assertions).
ranbench-selftest:
	$(GO) vet -C bench ./...
	$(GO) test -C bench ./...

# allocs runs only the steady-state allocation gates, verbosely: every gate
# is pinned at zero (the frame pool recycles what the datapath makes) and
# logs the figure it measured.
allocs:
	$(GO) test -count=1 -v -run 'SteadyStateAllocs|PathAllocs' ./internal/core ./internal/apps/...

# FUZZTIME bounds each fuzz target; the wire-format dissectors must never
# panic however mangled the frame, and the one-pass BFP merge must match
# the three-pass reference byte for byte or fail the same way.
FUZZTIME ?= 10s
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzDissect -fuzztime $(FUZZTIME) ./internal/fh
	$(GO) test -run '^$$' -fuzz FuzzCPlane -fuzztime $(FUZZTIME) ./internal/oran
	$(GO) test -run '^$$' -fuzz FuzzUPlane -fuzztime $(FUZZTIME) ./internal/oran
	$(GO) test -run '^$$' -fuzz FuzzBFPDecode -fuzztime $(FUZZTIME) ./internal/bfp
	$(GO) test -run '^$$' -fuzz FuzzBFPMerge -fuzztime $(FUZZTIME) ./internal/bfp

check: lint build race scale-smoke
