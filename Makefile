GO ?= go

.PHONY: check build vet procctl-vet test examples benchmark-test bench-smoke race fuzz-smoke bench trace-smoke daemon-smoke loc

# The full verification gate: what CI runs, in dependency order.
check: build vet procctl-vet test examples benchmark-test bench-smoke race fuzz-smoke trace-smoke

build:
	$(GO) build ./...

# The runtime's timing tests run on virtual time (testing/synctest),
# which Go 1.24 builds only under this experiment. With it they run in
# the test binary itself; without it each builds its package's tests
# with the flag and runs there, which costs a second build. Go 1.25
# makes synctest standard and the flag goes away.
SYNCTEST = GOEXPERIMENT=synctest

vet:
	$(SYNCTEST) $(GO) vet ./...

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
	$(SYNCTEST) $(GO) test ./...

# Every program under examples/ built and run to completion: they have
# no tests of their own. Each run is bounded at 60 s, so a
# process-control deadlock fails the step instead of hanging it (all four
# take about 4 s together on two cores, builds included). The loop takes
# every directory under examples/.
examples:
	@out=$$(mktemp -d) && trap 'rm -rf "$$out"' EXIT && \
	for dir in examples/*/; do \
		ex=$$(basename "$$dir"); \
		echo "== examples/$$ex"; \
		$(GO) build -o "$$out/$$ex" "./$$dir" && timeout 60 "$$out/$$ex" || exit 1; \
	done

# The repo benchmark is its own module (benchmark/go.mod), so ./... above
# does not reach it: its smoke test runs every workload at toy size
# against the harness's own golden and serial-pass checks (~2 s).
benchmark-test:
	cd benchmark && $(GO) test ./...

# The real-concurrency layer under the race detector (its first line
# also runs the coordinator-against-core.Registry model test, at a tenth
# of its `make test` length, internal/ctrl, whose replay tests boot a
# live daemon and drive it from four callers at once,
# internal/journal, whose Writer takes appends from the journal's drain
# and fsyncs from the coordinator's sync goroutine at once, and
# cmd/procctld and the root package, whose tests drive a pool.Pool
# through Client.DriveWith against a live daemon) — and the
# simulator's core. No kernel or sim body runs off the engine's
# goroutine any more: every body is a state machine the engine calls.
# What is left to check there is the threads differential test, whose
# reference worker runs on a goroutine of its own and hands control to
# and from the engine over channels, the flight recorder's appends while
# its ring is still growing, the metrics registry's lock-free updates
# from several goroutines while another takes snapshots (the second
# line), and, on the third, the
# one immutable threads.Workload that backs the concurrent runs of a
# figure sweep and every figure's fanOut with two seeds per point, Fig4's
# control-off and control-on runs side by side among them
# (TestFiguresGolden, at GOMAXPROCS 4 and again at 1, ~55 s under -race
# on two cores), and the DAGs of the Fig4 mix, which mixLaunches builds
# and seals on concurrent goroutines, one fanOut job each
# (TestMixBuildsMatchSerialBuilds). The package list stays whole, so no
# race coverage is dropped.
race:
	$(SYNCTEST) $(GO) test -race ./internal/runtime/... ./internal/ctrl/... ./internal/journal/... ./cmd/procctld/... .
	$(SYNCTEST) $(GO) test -race ./internal/sim/... ./internal/kernel/... ./internal/threads/... ./internal/flight/... ./internal/metrics/...
	$(SYNCTEST) $(GO) test -race -run 'TestCustomSharesOneWorkloadAcrossConcurrentRuns|TestFiguresGolden|TestMixBuildsMatchSerialBuilds' ./internal/experiments

# Short fuzz passes over the journal's frame decoder and fsck, over the
# control plane's line codec (differential against encoding/json), over
# the daemon's connection handler (arbitrary bytes from a peer), over
# the simulator's event engine (op programs against a flat-list
# reference model) and over its one queue type, kernel.FIFO (op programs
# against a plain slice), on top of the committed corpora under
# internal/journal/testdata/fuzz, internal/runtime/coordinator/testdata/fuzz,
# internal/sim/testdata/fuzz and internal/kernel/testdata/fuzz. FuzzDecodeRecord is a differential
# too: the record decoder's hand scanner must agree with json.Unmarshal
# on every payload. Five seconds each is a smoke, not a campaign — run
# longer campaigns with e.g. `go test -fuzz=FuzzFsck -fuzztime=10m
# ./internal/journal`, and commit any input a campaign finds failing
# under the fuzzer's testdata/fuzz directory as a seed.
# (go test accepts one -fuzz pattern per invocation, hence one run each.)
FUZZ_TIME ?= 5s
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=FuzzDecodeRecord -fuzztime=$(FUZZ_TIME) ./internal/journal
	$(GO) test -run='^$$' -fuzz=FuzzFsck -fuzztime=$(FUZZ_TIME) ./internal/journal
	$(GO) test -run='^$$' -fuzz=FuzzWireRequest -fuzztime=$(FUZZ_TIME) ./internal/runtime/coordinator
	$(GO) test -run='^$$' -fuzz=FuzzWireResponse -fuzztime=$(FUZZ_TIME) ./internal/runtime/coordinator
	$(GO) test -run='^$$' -fuzz=FuzzServerConn -fuzztime=$(FUZZ_TIME) ./internal/runtime/coordinator
	$(GO) test -run='^$$' -fuzz=FuzzEngineModel -fuzztime=$(FUZZ_TIME) ./internal/sim
	$(GO) test -run='^$$' -fuzz=FuzzFIFO -fuzztime=$(FUZZ_TIME) ./internal/kernel

# Every package benchmark run once: proof that each still compiles and
# runs, not a timing. -benchmem puts each one's allocation columns in the
# log.
bench-smoke:
	$(GO) test -run='^$$' -bench=. -benchtime=1x -benchmem ./...

# Every workload at full length; for one, or for the per-layer metrics,
# pass flags to run.sh directly (benchmark/README.md).
bench:
	bash benchmark/run.sh

# End-to-end pipeline over the trace toolchain: record a short causal
# trace of the demo mix `procctl-trace record` runs
# (experiments.DemoMix: matmul and fft with 12 processes each plus 2
# background processes, all from t = 0), draw its CPU timeline, attribute its
# wasted cycles, export a Perfetto timeline and validate it (the daemon smoke validates the
# daemon export). Artifacts land in $(TRACE_OUT); CI uploads them.
TRACE_OUT ?= /tmp/procctl-trace-smoke
trace-smoke:
	mkdir -p $(TRACE_OUT)
	$(GO) build -o $(TRACE_OUT)/procctl-trace ./cmd/procctl-trace
	$(TRACE_OUT)/procctl-trace record -seed 1 -seconds 1 -control -out $(TRACE_OUT)/fig4.jsonl
	$(TRACE_OUT)/procctl-trace gantt -in $(TRACE_OUT)/fig4.jsonl
	$(TRACE_OUT)/procctl-trace analyze -in $(TRACE_OUT)/fig4.jsonl
	$(TRACE_OUT)/procctl-trace export -in $(TRACE_OUT)/fig4.jsonl -out $(TRACE_OUT)/fig4.chrome.json
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
# packages (struct fields are not counted). Then the size of
# procctl-vet's analyzers: the non-test lines of internal/analysis
# (EXPERIMENTS.md SIMPL-6 and SIMPL-8 cut them). Then the root
# module's _test.go lines (outside testdata/), for a SIMPL entry's
# test-line delta. Last, the same `go doc -all` count over every
# package of the root module (commands list nothing), so an accessor
# deleted or added anywhere shows, and the exported struct fields that
# listing shows inside its `type … struct {` blocks: the settable values
# (EXPERIMENTS.md SIMPL-21). Then the encoding/json call sites in the
# root module's non-test code (comment lines aside): what is left once
# the one JSON-lines codec in internal/flight handles the plain lines
# (EXPERIMENTS.md SIMPL-23).
loc_of = find $(1) -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' \
	! -path './benchmark/*' ! -path './.bench_build/*' -print0 | xargs -0 cat | wc -l
test_loc = find . -name '*_test.go' ! -path '*/testdata/*' \
	! -path './benchmark/*' ! -path './.bench_build/*' -print0 | xargs -0 cat | wc -l
doc_of = for p in $$($(GO) list -f '{{if .GoFiles}}{{.ImportPath}}{{end}}' $(1)); do \
	$(GO) doc -all $$p; done
exported_of = $(doc_of) | grep -cE '^(func|type) '
fields_of = $(doc_of) | awk '/^type .* struct \{$$/ { s = 1; next } s && /^}/ { s = 0 } \
	s && /^\t[A-Z]/ { n++ } END { print n + 0 }'
json_calls = find . -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' \
	! -path './benchmark/*' ! -path './.bench_build/*' -print0 | xargs -0 grep -hE '\bjson\.[A-Z]\w*\(' | \
	grep -vE '^\s*//' | grep -oE '\bjson\.[A-Z]\w*\(' | wc -l
loc:
	@echo "$$($(call loc_of,.)) root module, $$($(call loc_of,./internal/runtime)) of them internal/runtime," \
		"$$($(call exported_of,./internal/runtime/...)) exported declarations and methods in internal/runtime," \
		"$$($(call loc_of,./internal/analysis)) lines in internal/analysis," \
		"$$($(test_loc)) test lines," \
		"$$($(call exported_of,./...)) exported declarations and methods in the root module," \
		"$$($(call fields_of,./...)) exported struct fields in the root module," \
		"$$($(json_calls)) encoding/json call sites in non-test code"
