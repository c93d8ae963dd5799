# Standard gate for every change: `make check` runs vet, build, and the
# full test suite under the race detector. CI and pre-commit should both
# use it.

GO ?= go

.PHONY: check vet build test race short bench bench-module examples smoke loc

check: vet build race examples smoke bench-module

vet:
	$(GO) vet ./...

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

# The repository's benchmark, declared in BENCHMARK.json: five workloads,
# five end-to-end metrics and the per-layer budget, printed by
# cmd/bivocbench (see its README). It is the only ledger; the Go
# benchmarks left in bench_test.go (paper tables, ablations, ASR-on
# decoding) are for reading by hand: `go test -bench=. -run='^$$' .`
bench:
	bash cmd/bivocbench/run.sh

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
# require a clean exit — plus one short bivocload self-boot sweep. The
# bivocd pattern also matches TestDaemonSmokeMapped, which restarts a
# durable daemon under -mmap and pins recovery from mapped segments.
smoke:
	$(GO) test -run TestDaemonSmoke -count=1 ./cmd/bivocd
	$(GO) test -run TestFedDaemonSmoke -count=1 ./cmd/bivocfed
	$(GO) test -run TestLoadSmoke -count=1 ./cmd/bivocload

# Non-test Go lines outside cmd/bivocbench: the figure a consolidation
# change reports in CHANGES.md.
loc:
	@git ls-files '*.go' | grep -v -e '_test\.go$$' -e '^cmd/bivocbench/' | xargs cat | wc -l
