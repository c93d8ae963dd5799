# Standard gate for every change: `make check` runs vet, the gofmt check,
# build, and the full test suite under the race detector. CI and
# pre-commit should both use it.

GO ?= go

.PHONY: check vet fmt build test race short fuzz-smoke bench pairs bench-module examples smoke golden capture loc knobs knobs-check wire-check

check: vet fmt knobs-check wire-check build race examples smoke golden bench-module

vet:
	$(GO) vet ./...

# Fails, naming the files, when a tracked Go file is not gofmt-clean.
fmt:
	@out=$$(gofmt -l $$(git ls-files '*.go')); \
		if [ -n "$$out" ]; then echo "gofmt -l:"; echo "$$out"; exit 1; fi

# One byte reader: internal/wire is the only product code that reads or
# writes a varint, so every segment, WAL record, frame and partial is
# decoded under the same checks. Fails, naming file and line, when an
# encoding/binary varint call appears in a tracked non-test Go file
# outside it (cmd/bivocbench is its own module and measures, not decodes).
wire-check:
	@out=$$(git ls-files '*.go' | grep -v -e '_test\.go$$' -e '^internal/wire/' -e '^cmd/bivocbench/' \
		| xargs grep -n -E 'binary\.(Put|Append)?(Uvarint|Varint)' /dev/null); \
		if [ -n "$$out" ]; then echo "varint calls outside internal/wire:"; echo "$$out"; exit 1; fi

build:
	$(GO) build ./...
	$(GO) build -o /dev/null ./cmd/bivocd
	$(GO) build -o /dev/null ./cmd/bivocfed
	$(GO) build -o /dev/null ./cmd/bivocload

test:
	$(GO) test ./...

# -timeout raised past the go test default: internal/core's full ASR
# decode suite exceeds 10m under the race detector on small hosts.
race:
	$(GO) test -race -timeout 30m ./...

# Quick loop while developing: skips the slow ASR decodes.
short:
	$(GO) test -short ./...

# Ten seconds of each fuzzer past its seeds (`go test` alone runs only
# those). -fuzz takes one package per invocation.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzEngineEquivalence$$' -fuzztime 10s ./internal/mining
	$(GO) test -run '^$$' -fuzz '^FuzzShardFrame$$' -fuzztime 10s ./internal/server
	$(GO) test -run '^$$' -fuzz '^FuzzShardRequest$$' -fuzztime 10s ./internal/server
	$(GO) test -run '^$$' -fuzz '^FuzzSegmentDecode$$' -fuzztime 10s ./internal/store
	$(GO) test -run '^$$' -fuzz '^FuzzWALReplay$$' -fuzztime 10s ./internal/store
	$(GO) test -run '^$$' -fuzz '^FuzzParseDim$$' -fuzztime 10s ./internal/mining
	$(GO) test -run '^$$' -fuzz '^FuzzWireReader$$' -fuzztime 10s ./internal/wire
	$(GO) test -run '^$$' -fuzz '^FuzzDigitLCS$$' -fuzztime 10s ./internal/fuzzy
	$(GO) test -run '^$$' -fuzz '^FuzzWords$$' -fuzztime 10s ./internal/textproc

# The repository's benchmark, declared in BENCHMARK.json: five workloads,
# five end-to-end metrics and the per-layer budget, printed by
# cmd/bivocbench (see its README). It is the only ledger; the Go
# benchmarks left in bench_test.go (paper tables, ablations, ASR-on
# decoding) are for reading by hand: `go test -bench=. -run='^$$' .`
bench:
	bash cmd/bivocbench/run.sh

# The working rule a change is judged by, as one command: alternating runs
# of one workload at REV and at the working tree, one pair per seed, then
# per end-to-end metric both sides' medians and quartiles, the ratio, the
# change's wins and a verdict (tools/benchpairs says how each is read).
# Every result line is kept in .bench_build/pairs-$(WORKLOAD).jsonl.
#   make pairs REV=<parent commit> WORKLOAD=mono_miss SEEDS="401 402 403"
pairs:
	@if [ -z "$(REV)" ] || [ -z "$(WORKLOAD)" ] || [ -z "$(SEEDS)" ]; then \
		echo 'usage: make pairs REV=<commit> WORKLOAD=<name> SEEDS="<seed> ..."'; exit 2; fi
	$(GO) run ./tools/benchpairs $(REV) $(WORKLOAD) $(SEEDS)

# cmd/bivocbench is a module of its own (its go.mod replaces bivoc with
# ../..), so the root ./... patterns neither compile nor test it although
# it imports internal/server, internal/fed, internal/store and
# internal/core. Vet and test it here, so a product refactor that breaks
# the benchmark's imports fails in CI and not in the post-merge benchmark
# run (~9 s).
bench-module:
	cd cmd/bivocbench && $(GO) vet ./... && $(GO) test ./...

examples:
	$(GO) build ./examples/...

# Black-box daemon checks: build cmd/bivocd (and cmd/bivocfed over a
# two-shard fleet), start them, query /healthz and /v1/count, SIGINT,
# require a clean exit — plus one short bivocload sweep against a daemon
# the test boots. The bivocd pattern also matches TestDaemonSmokeMapped,
# which restarts a durable daemon under -mmap and pins recovery from
# mapped segments, TestDaemonSmokeSkippedSegment, which restarts one over
# a damaged segment, and both patterns their daemon's …SignalAtStartup,
# which interrupts it the instant it announces its address.
smoke:
	$(GO) test -run TestDaemonSmoke -count=1 ./cmd/bivocd
	$(GO) test -run TestFedDaemonSmoke -count=1 ./cmd/bivocfed
	$(GO) test -run TestLoadSmoke -count=1 ./cmd/bivocload

# The paper's numbers as this reproduction measures them: the whole of
# `experiments -exp all` (small scale, seed 2009; the run is bit-identical)
# against the committed stdout. About three minutes, most of it the four
# ASR experiments' decoding, so it is not race-instrumented and not in
# tier-1; cmd/experiments' own test checks the four sections that take
# under a second against the same file.
golden:
	$(GO) run ./cmd/experiments -exp all | diff - cmd/experiments/testdata/all_small_2009.golden

# The public bytes of both daemons in every configuration of the capture
# set (tools/capture.sh says which), built from TREE (default: this
# checkout), written under OUT. Byte identity between two revisions is
# diff -r of their captures; about a minute.
#   make capture OUT=/tmp/cap-change
#   make capture OUT=/tmp/cap-parent TREE=/tmp/parent
capture:
	@if [ -z "$(OUT)" ]; then echo 'usage: make capture OUT=<dir> [TREE=<checkout>]'; exit 2; fi
	bash tools/capture.sh $(OUT) $(TREE)

# Non-test Go lines outside cmd/bivocbench: the figure a consolidation
# change reports in CHANGES.md. internal/voctest is test support (the
# shared world and comparator of the equivalence suites; only _test.go
# files import it) and is left out like them.
PRODUCT_FILES = git ls-files '*.go' | grep -v -e '_test\.go$$' -e '^cmd/bivocbench/' -e '^internal/voctest/'
loc:
	@$(PRODUCT_FILES) | xargs cat | wc -l

# What an operator or caller can set, counted over the same files as loc
# (git ls-files, no tests, no test support, no cmd/bivocbench) — the other
# figures a consolidation change reports:
#   flags   lines calling a flag.Xxx( definer: every flag.<Name>( except
#           flag.Parse(
#   fields  field lines (a tab, then an identifier — so embedded structs
#           count and comments, blanks and nested fields do not) inside
#           every `type <Name>(Config|Options|Policy) struct {` block
#   vars    exported package-level variables: `var Xxx` lines, and
#           capitalised lines of a `var (` block
knobs:
	@$(PRODUCT_FILES) | xargs cat | grep -E '\bflag\.[A-Z][A-Za-z0-9]*\(' | grep -vc 'flag\.Parse(' | sed 's/^/flags  /'
	@$(PRODUCT_FILES) | xargs awk 'FNR == 1 { s = 0 } \
		/^type [A-Za-z0-9_]*(Config|Options|Policy) struct \{/ { s = 1; next } \
		s && /^\}/ { s = 0 } s && /^\t[A-Za-z_]/ { n++ } END { print "fields " n + 0 }'
	@$(PRODUCT_FILES) | xargs awk 'FNR == 1 { v = 0 } /^var [A-Z]/ { n++ } \
		/^var \($$/ { v = 1; next } v && /^\)/ { v = 0 } v && /^\t[A-Z]/ { n++ } END { print "vars   " n + 0 }'

# The knob count is held: KNOBS holds the three lines `make knobs` printed
# when it was last changed on purpose. A change that adds a flag, a
# Config/Options/Policy field or an exported variable fails here until it
# edits KNOBS in the same diff, where a reviewer sees the number move.
knobs-check:
	@$(MAKE) -s knobs | diff KNOBS - || { echo "make knobs (>) differs from the committed baseline KNOBS (<): if the change is meant, update KNOBS in this diff"; exit 1; }
