GO ?= go

.PHONY: check build vet procctl-vet test benchmark-test bench-smoke race fuzz-smoke bench bench-go trace-smoke daemon-smoke loc

# The full verification gate: what CI runs, in dependency order.
check: build vet procctl-vet test benchmark-test bench-smoke race fuzz-smoke trace-smoke

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Repo-specific analyzers, each kept because no test catches what it
# does (EXPERIMENTS.md SIMPL-6): map order in the simulator, lock
# discipline, lock-order cycles, blocking under a lock. Exit 1 on
# findings — see README.md / DESIGN.md.
# One run over the whole module. That ./... still reaches the packages
# whose scope matters most (metrics, faultinject, trace, journal), and
# that each is still under its policy, is held by
# cmd/procctl-vet's own test, which `make test` runs.
procctl-vet:
	$(GO) run ./cmd/procctl-vet ./...

test:
	$(GO) test ./...

# The repo benchmark is its own module (benchmark/go.mod), so ./... above
# does not reach it: its smoke test runs every workload at toy size
# against the harness's own golden and serial-pass checks (~2 s).
benchmark-test:
	cd benchmark && $(GO) test ./...

# The real-concurrency layer under the race detector (its first line
# also runs the coordinator-against-core.Registry model test, at a tenth
# of its `make test` length, and internal/ctrl, whose replay tests boot a
# live daemon and drive it from four callers at once) — and the
# simulator's core. No kernel or sim body runs off the engine's
# goroutine any more: every body is a state machine the engine calls.
# What is left to check there is the threads differential test, whose
# reference worker runs on a goroutine of its own and hands control to
# and from the engine over channels, the flight recorder's appends while
# its ring is still growing (the second line), and the one immutable
# threads.Workload that backs the concurrent runs of a figure sweep (the
# third). The package list stays whole, so no race coverage is dropped.
race:
	$(GO) test -race ./internal/runtime/... ./internal/ctrl/...
	$(GO) test -race ./internal/sim/... ./internal/kernel/... ./internal/threads/... ./internal/flight/...
	$(GO) test -race -run 'TestCustomSharesOneWorkloadAcrossConcurrentRuns' ./internal/experiments

# Short fuzz passes over the journal's frame decoder and fsck, over the
# control plane's line codec (differential against encoding/json), over
# the daemon's connection handler (arbitrary bytes from a peer) and
# over the simulator's event engine (op programs against a flat-list
# reference model), on top of the committed corpora under
# internal/journal/testdata/fuzz, internal/runtime/coordinator/testdata/fuzz
# and internal/sim/testdata/fuzz. Five seconds each is a
# smoke, not a campaign — run longer campaigns with
# e.g. `go test -fuzz=FuzzFsck -fuzztime=10m ./internal/journal`.
# (go test accepts one -fuzz pattern per invocation, hence one run each.)
FUZZ_TIME ?= 5s
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=FuzzDecodeRecord -fuzztime=$(FUZZ_TIME) ./internal/journal
	$(GO) test -run='^$$' -fuzz=FuzzFsck -fuzztime=$(FUZZ_TIME) ./internal/journal
	$(GO) test -run='^$$' -fuzz=FuzzWireRequest -fuzztime=$(FUZZ_TIME) ./internal/runtime/coordinator
	$(GO) test -run='^$$' -fuzz=FuzzWireResponse -fuzztime=$(FUZZ_TIME) ./internal/runtime/coordinator
	$(GO) test -run='^$$' -fuzz=FuzzServerConn -fuzztime=$(FUZZ_TIME) ./internal/runtime/coordinator
	$(GO) test -run='^$$' -fuzz=FuzzEngineModel -fuzztime=$(FUZZ_TIME) ./internal/sim

# Every package benchmark run once: proof that each still compiles and
# runs, not a timing.
bench-smoke:
	$(GO) test -run='^$$' -bench=. -benchtime=1x ./...

# Every workload at full length; for one, or for the per-layer metrics,
# pass flags to run.sh directly (benchmark/README.md).
bench:
	bash benchmark/run.sh

# The root package's figure and ablation benchmarks, for ad-hoc
# profiling runs; each layer's own benchmarks sit beside the code they
# time (go test -run '^$' -bench . ./internal/...).
bench-go:
	$(GO) test -bench=. -benchmem

# End-to-end pipeline over the trace toolchain: record a short causal
# trace of the Figure 4 mix, attribute its wasted cycles, export a
# Perfetto timeline and validate it (the daemon smoke validates the
# daemon export). Artifacts land in $(TRACE_OUT); CI uploads them.
TRACE_OUT ?= /tmp/procctl-trace-smoke
trace-smoke:
	mkdir -p $(TRACE_OUT)
	$(GO) build -o $(TRACE_OUT)/procctl-trace ./cmd/procctl-trace
	$(TRACE_OUT)/procctl-trace record -seed 1 -seconds 1 -control -out $(TRACE_OUT)/fig4.jsonl
	$(TRACE_OUT)/procctl-trace summary -in $(TRACE_OUT)/fig4.jsonl
	$(TRACE_OUT)/procctl-trace analyze -in $(TRACE_OUT)/fig4.jsonl
	$(TRACE_OUT)/procctl-trace export -format chrome -in $(TRACE_OUT)/fig4.jsonl -out $(TRACE_OUT)/fig4.chrome.json
	$(TRACE_OUT)/procctl-trace check -in $(TRACE_OUT)/fig4.chrome.json

# End-to-end smoke of the live daemon's observability surface: start
# procctld with the introspection HTTP listener, hit /metrics,
# /debug/pprof/, and /debug/vars, dump the flight recorder through
# procctl-top -events, and shut down cleanly. scripts/daemon-smoke.sh
# fails on any missing endpoint or empty event log.
DAEMON_SMOKE_OUT ?= /tmp/procctl-daemon-smoke
daemon-smoke:
	OUT=$(DAEMON_SMOKE_OUT) ./scripts/daemon-smoke.sh

# ROADMAP aim 2's numbers: non-test Go lines of the root module, by the
# convention EXPERIMENTS.md has used since PERF-6 (every *.go outside
# _test.go files, testdata/, the benchmark module and its build cache),
# how many of them are in internal/runtime, and that layer's exported
# surface: the declarations and methods `go doc -all` lists for its
# packages (struct fields are not counted). Then ROADMAP item 7's
# measure: the non-test lines of internal/analysis.
loc_of = find $(1) -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' \
	! -path './benchmark/*' ! -path './.bench_build/*' -print0 | xargs -0 cat | wc -l
exported_of = for p in $$($(GO) list -f '{{if .GoFiles}}{{.ImportPath}}{{end}}' $(1)); do \
	$(GO) doc -all $$p; done | grep -cE '^(func|type) '
loc:
	@echo "$$($(call loc_of,.)) root module, $$($(call loc_of,./internal/runtime)) of them internal/runtime," \
		"$$($(call exported_of,./internal/runtime/...)) exported declarations and methods in internal/runtime," \
		"$$($(call loc_of,./internal/analysis)) lines in internal/analysis"
