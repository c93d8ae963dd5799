# Standard gate for every change: `make check` runs vet, build, and the
# full test suite under the race detector. CI and pre-commit should both
# use it.

GO ?= go

.PHONY: check vet build test race bench bench-pipeline bench-server bench-link bench-mine bench-store bench-seg bench-fed bench-load bench-build bench-module examples smoke

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

bench:
	$(GO) test -bench=. -benchmem -run='^$$' .

# The streaming-pipeline scaling benchmarks recorded in BENCH_pipeline.json.
bench-pipeline:
	$(GO) test -bench='BenchmarkPipelineCallAnalysis|BenchmarkStreamIndexAddWhileQuery' -run='^$$' .
	$(GO) test -bench='BenchmarkLatencyOverlap' -run='^$$' ./internal/pipeline/

# The serving-layer benchmarks recorded in BENCH_server.json.
bench-server:
	$(GO) test -bench='BenchmarkServerQuery' -run='^$$' .

# The linking hot-path benchmarks recorded in BENCH_link.json. Pass
# profiler hooks through BENCH_FLAGS, e.g.
#   make bench-link BENCH_FLAGS='-cpuprofile=cpu.out'
bench-link:
	$(GO) test -bench='BenchmarkLink$$|BenchmarkLinkFullScan$$|BenchmarkDictionaryTag$$|BenchmarkRunCallAnalysis$$' -benchmem -run='^$$' $(BENCH_FLAGS) .

# The analytics hot-path benchmarks recorded in BENCH_mine.json: every
# mining operation naive vs fast, plus /v1/associate end to end. Pass
# profiler hooks through BENCH_FLAGS, e.g.
#   make bench-mine BENCH_FLAGS='-cpuprofile=cpu.out'
bench-mine:
	$(GO) test -bench='BenchmarkMine|BenchmarkServerAssociate' -benchmem -run='^$$' $(BENCH_FLAGS) .

# The persistence benchmarks recorded in BENCH_store.json: seal-time
# segment writes, cold segment load vs full pipeline rebuild (the
# warm-restart payoff), WAL append cost per fsync cadence, disk-loaded
# vs in-memory query latency, and the mapped-segment sweep — mmap open
# vs materialized load across a 10x corpus growth (with post-open heap)
# plus hot/first query latency through the lazy-decode postings cache.
# Pass profiler hooks through BENCH_FLAGS, e.g.
#   make bench-store BENCH_FLAGS='-cpuprofile=cpu.out'
bench-store:
	$(GO) test -bench='BenchmarkStore' -benchmem -run='^$$' $(BENCH_FLAGS) .

# The segment-architecture benchmarks recorded in BENCH_seg.json: swap
# latency vs corpus size at a fixed ingest batch (monolithic reseal vs
# segmented seal) and monolithic vs 8-segment fan-in query latency.
# Pass profiler hooks through BENCH_FLAGS, e.g.
#   make bench-seg BENCH_FLAGS='-cpuprofile=cpu.out'
bench-seg:
	$(GO) test -bench='BenchmarkSeg' -benchmem -run='^$$' $(BENCH_FLAGS) .

# The federation benchmarks recorded in BENCH_fed.json: the
# scatter-gather query bundle through a bivocfed coordinator over a
# shard sweep {1, 2, 4, 8} of the same corpus, plus the coordinator
# cache's hit path against the same bundle. Pass profiler hooks
# through BENCH_FLAGS, e.g.
#   make bench-fed BENCH_FLAGS='-cpuprofile=cpu.out'
bench-fed:
	$(GO) test -bench='BenchmarkFed' -benchmem -run='^$$' $(BENCH_FLAGS) .

# The open-loop load sweep recorded in BENCH_load.json: cmd/bivocload
# self-boots a mono daemon and a four-shard federation over the same
# corpus, then sweeps offered QPS x batch size with coordinated-
# omission-corrected latency percentiles. Extra harness flags go
# through BENCH_FLAGS, e.g.
#   make bench-load BENCH_FLAGS='-qps 1000,4000 -duration 5s'
bench-load:
	$(GO) run ./cmd/bivocload -mix mixed,count -count-qps 8000,32000,64000 -out BENCH_load.json $(BENCH_FLAGS)

# One iteration of every benchmark, so benchmark code cannot rot.
bench-build:
	$(GO) test -run='^$$' -bench=. -benchtime=1x ./...

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
