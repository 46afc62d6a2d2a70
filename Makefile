# perfq build/test/bench entry points. See EXPERIMENTS.md for how to
# regenerate the paper's figures; performance is recorded and compared
# by benchmark/ alone, through `make bench` and `make bench-pairs`.

GO ?= go

# bench: the seed, the set it writes and the recorded set it is
# compared against (see benchmark/README.md).
SEED ?= 12
E2E_OUT ?= .bench_build/e2e.json
E2E_BASE ?= benchmark/results/BENCH_12.a.json

# bench-pairs: the revision the working tree is measured against, how
# many alternated pairs, and (optionally) one workload and the input scale.
PARENT ?= HEAD
PAIRS ?= 10
WORKLOAD ?=
SCALE ?= full

.PHONY: all build test race loc fmt-check oracle-check harness-check frontend-check doc-check bench bench-pairs profile vet figures clean

all: build test

build:
	$(GO) build ./...

# Tier-1 gate: what CI runs.
test: build
	$(GO) test ./...

# The partitioned datapath's and the windowed runtime's concurrency
# contracts under the race detector (the whole-system differential and
# its Figure 2 pins run one worker goroutine per shard of every switch
# behind one feeder, barrier that one pool at every epoch boundary, and
# ship evictions to a live backing pool; the
# Workers tests drive the SPSC ring transport directly, wrap-around and
# sentinel slots included, and check every column of slots a worker reads
# in place while the feeder fills the next; the Chaos/Pool suites exercise the backing
# pool's shipper goroutines, health probers and fault-injected
# connections, and the routing pool's partition level; the Obs suite
# scrapes /metrics + /debug/perfq over HTTP while the sharded windowed
# datapath is feeding, racing the registry's readers against every mirror
# write; the Trace/Journal suites hammer the span rings and the flight
# recorder from concurrent writers and scrape /debug/trace +
# /debug/events mid-run; the Source suite checks a failing source leaves
# no worker behind; ProcessInline mixes Process with Feed on a live
# worker pool; the ProgramSets tests split a single shard's run across
# goroutines, one per set of programs, under metrics, tracing and a
# backing pool, and re-panic a set's panic on the feeder; every
# netstore test runs too, since a backend's health bit is written by its
# prober and by its shipper and control clients). The
# suites force GOMAXPROCS >= 4 internally so the parallel paths run even
# on a single-core host. -short skips the longest stall-injection cases;
# run without it before a release.
race:
	$(GO) test -race -short -run 'TestSharded|TestWithShards|TestPool|TestWorkers|TestFabric|TestWindowed|TestChaos|TestBackingPool|TestServerRestart|TestObs|TestTrace|TestJournal|TestSource|TestProcessInline|TestEvictionTotals|TestSystem|TestProgramSets' ./...
	$(GO) test -race -short ./internal/netstore

# Non-test Go lines per internal package and for the root package, then
# the total (cmd/, examples/ and the nested benchmark/ module are not
# counted) — the figure ROADMAP aim 2 says must go down. CI prints it;
# CHANGES.md records a PR's before/after rows.
loc:
	@{ for d in internal/*; do echo "$$d $$(cat $$(ls $$d/*.go | grep -v _test.go) | wc -l)"; done; \
	   echo ". $$(cat $$(ls *.go | grep -v _test.go) | wc -l)"; } \
	| awk '{ printf "%-22s %6d\n", $$1, $$2; n += $$2 } END { printf "%-22s %6d\n", "total", n }'

# The end-to-end + per-layer benchmark (benchmark/): one full set — six
# workloads through the public facade, then their traced runs — written
# to $(E2E_OUT) and compared metric by metric, against the recorded
# dispersion, with $(E2E_BASE). Exits non-zero on a `worse` row.
bench:
	bash benchmark/run.sh -seed $(SEED) -out $(E2E_OUT)
	bash benchmark/run.sh -compare $(E2E_BASE) $(E2E_OUT)

# A performance claim's evidence: $(PAIRS) alternated runs of
# benchmark/run.sh from a checkout of $(PARENT) and from the working tree
# (each side builds its own benchmark), then per workload × end-to-end
# metric the medians, quartiles and pairs won, as the EXPERIMENTS.md
# table. `make bench-pairs PARENT=HEAD~1 SEED=2016 WORKLOAD=stream_windows`.
bench-pairs:
	PARENT=$(PARENT) PAIRS=$(PAIRS) SEED=$(SEED) WORKLOAD=$(WORKLOAD) SCALE=$(SCALE) bash scripts/bench-pairs.sh

# Hot-path diagnosis: run the reference EWMA query over a DC trace with
# CPU and heap profiles; inspect with `go tool pprof cpu.prof`.
profile: build
	$(GO) run ./cmd/pqrun -gen dc -duration 4s -pairs 16384 -ways 8 \
		-cpuprofile cpu.prof -memprofile mem.prof -rows 5 testdata/ewma.pq
	@echo "wrote cpu.prof and mem.prof — inspect with: go tool pprof cpu.prof"

vet:
	$(GO) vet ./...

# gofmt cleanliness, nested benchmark module included. CI runs this.
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt -l is not clean:"; echo "$$out"; exit 1; fi

# The tree interpreter (internal/fold/eval.go) defines fold semantics,
# folds constants at compile time (constfold.go) and is the oracle the
# differential suites compare bytecode against — nothing else: behind the
# packet path the bytecode VM is the only evaluator. Fails if any other
# non-test Go file calls EvalExpr or Program.Update. CI runs this.
oracle-check:
	@out="$$(grep -rnE 'EvalExpr\(|Prog\.Update\(' --include='*.go' *.go cmd examples internal benchmark \
		| grep -v '_test\.go:' | grep -vE '^internal/fold/(eval|constfold)\.go:')"; \
	if [ -n "$$out" ]; then echo "tree interpreter called outside eval.go/constfold.go:"; echo "$$out"; exit 1; fi

# internal/harness regenerates the paper's figures on the engine users
# run: it drives queries through the perfq facade alone, so a figure can
# never again be measured on a private cache / store / datapath loop.
# Fails if any non-test file there imports an internal package other than
# the workload generators and record types below — kvstore, backing,
# switchsim, fabric, shard, fold, compiler, lang, exec, window, netstore
# and whatever engine package comes next. CI runs this.
harness-check:
	@out="$$(grep -n '"perfq/internal/' $$(ls internal/harness/*.go | grep -v _test.go) \
		| grep -vE '"perfq/internal/(chiparea|netsim|packet|queries|topo|trace|tracegen)"')"; \
	if [ -n "$$out" ]; then echo "internal/harness imports the engine behind the facade:"; echo "$$out"; exit 1; fi

# internal/lang resolves every name a query uses and lowers each
# expression to fold IR in the same walk that types it; internal/compiler
# only assembles stages from what the checker lowered, fuses and
# annotates. Fails if any non-test file there names a query-language
# expression node, so the compiler can never again resolve a name itself.
# CI runs this.
frontend-check:
	@out="$$(grep -nwE 'lang\.(Ident|Dotted|UnaryExpr|BinExpr|CallExpr|NumberLit|BoolLit|InfinityLit)' \
		$$(ls internal/compiler/*.go | grep -v _test.go))"; \
	if [ -n "$$out" ]; then echo "internal/compiler resolves query-language expressions itself:"; echo "$$out"; exit 1; fi

# The documents, this Makefile, CI, scripts/ and the skills name only
# BENCH_*.json files that are committed, make targets that exist and
# Test*/Benchmark* functions `go test -list ./...` prints, so a deleted
# benchmark or target cannot live on in prose. CI runs this.
doc-check:
	@bash scripts/doc-check.sh

# The paper's evaluation at CI scale.
figures:
	$(GO) run ./cmd/evalhw -exp all

clean:
	$(GO) clean ./...
