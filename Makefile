# Build/test entry points; `make ci` is the full local gate.
GO ?= go

.PHONY: fmt build vet test race cover bench benchgate benchsmoke benchbuild fuzzsmoke isasweep fleet-smoke examples metricslint ci

# Formatting gate: gofmt must list no file.
fmt:
	test -z "$$(gofmt -l .)"

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Coverage gate: run every package's tests with cross-package statement
# coverage (a pipeline test in the root package exercises internal/isa,
# internal/vm, ... — -coverpkg credits those lines), print the
# per-function rollup's total, and fail if it drops below COVER_FLOOR
# percent. The profile lands in cover.out for `go tool cover -html`.
COVER_FLOOR = 77
cover:
	$(GO) test -coverprofile=cover.out -coverpkg=./... ./...
	@total=$$($(GO) tool cover -func=cover.out | awk '/^total:/ { sub(/%/, "", $$3); print $$3 }'); \
	awk -v t=$$total -v floor=$(COVER_FLOOR) 'BEGIN { \
		if (t + 0 < floor + 0) { printf "FAIL: total coverage %.1f%% is below the %d%% floor\n", t, floor; exit 1 } \
		printf "total coverage %.1f%% (floor %d%%)\n", t, floor }'

# Bench smoke: one iteration of the end-to-end rewrite benches plus the
# serial-vs-parallel pipeline pairs, with allocation reporting — enough
# to catch regressions in the nil-trace zero-overhead contract (compare
# NoTrace vs Traced allocs/op) and in the parallel pipeline's allocation
# diet (compare DisassembleSerial vs DisassembleParallel, EvalJ1 vs
# EvalJN), in inference's allocation count (InferLibc) and in the
# library's disassembly and IR construction (DisassembleLibc, and
# BuildLibc from internal/cfg), whose B/op and allocs/op repeat exactly
# from run to run. The run is converted to BENCH_pipeline.json (ns/op,
# B/op, allocs/op and the speedup-x metrics, machine-readable) via
# cmd/benchjson.
BENCH_PAT = RewriteStress|RewriteNull|RewriteNoTrace|RewriteTraced|DisassembleSerial|DisassembleParallel|DisassembleLibc|EvalJ1|EvalJN|PlaceLargeSynth|ServeHotCache|ServeColdMiss|ServeInstrumented|RewriteDelta|ServeDeltaHit|DaemonHotCache|GatewayHotCache|DiskTierHit|DiskTierPromote|CorpusPins|InferLibc|BuildLibc
bench:
	$(GO) test -run '^$$' -bench '$(BENCH_PAT)' -benchtime 1x -benchmem . ./internal/cfg/ | tee /dev/stderr | $(GO) run ./cmd/benchjson -merge BENCH_pipeline.json -o BENCH_pipeline.json

# Perf gates, read from the trajectory `bench` just merged (run after
# it):
#  - delta perf bar (ISSUE 7): applying a placement snapshot to a
#    1-function edit of the >100k-instruction stress input must stay
#    at least 5x faster than the from-scratch rewrite;
#  - served delta bar: the same edit answered through serve.Server's
#    delta tier (snapshot lookup, Apply, Rebase, store) must also stay
#    at least 5x faster than the from-scratch rewrite, so a regression
#    on the served path (once 329 ms, 1.2M allocs/op) cannot pass
#    unseen;
#  - disk-tier bar (ISSUE 8): a disk-tier hit (read + digest check)
#    must stay at least 10x faster than a cold pipeline run;
#  - gateway overhead bar (ISSUE 8): the gateway hop may cost at most
#    3x the single-daemon hot-cache round trip (speedup daemon/gateway
#    >= 1/3);
#  - arbitration pin bar (ISSUE 9): the corpus-aggregate pin count
#    under weighted three-way arbitration must be strictly below the
#    two-way baseline (ratio > 1, gated at 1.0001).
benchgate:
	$(GO) run ./cmd/benchjson -compare BenchmarkRewriteDeltaCold,BenchmarkRewriteDelta -min 5 BENCH_pipeline.json
	$(GO) run ./cmd/benchjson -compare BenchmarkRewriteDeltaCold,BenchmarkServeDeltaHit -min 5 BENCH_pipeline.json
	$(GO) run ./cmd/benchjson -compare BenchmarkServeColdMiss,BenchmarkDiskTierHit -min 10 BENCH_pipeline.json
	$(GO) run ./cmd/benchjson -compare BenchmarkDaemonHotCache,BenchmarkGatewayHotCache -min 0.333 BENCH_pipeline.json
	$(GO) run ./cmd/benchjson -compare BenchmarkCorpusPinsTwoWay,BenchmarkCorpusPinsWeighted -metric pins -min 1.0001 BENCH_pipeline.json
	$(GO) run ./cmd/benchjson -compare BenchmarkRewriteStressZVM32,BenchmarkRewriteStressZVM64 -min 0.666 BENCH_pipeline.json

# Allocator bench smoke: one iteration of the indexed-allocator
# microbenches against their sorted-slice reference, enough to catch a
# complexity regression (Alloc* must not drift toward FreeSpace*)
# without the full bench run's cost. The second line does the same for
# the delta path, for inference and for IR construction, whose allocs/op
# must stay a small constant (bitset fact base, CSR flow relation,
# slab-allocated decoded nodes and the per-instruction address index),
# and for the
# whole disassembly stage on the library, whose speedup-x over
# Options.Serial shows whether the split decode and the inference
# goroutine still pay for themselves, and for the assembler that builds
# every benchmark input, whose allocs/op must stay far below its source
# line count (BenchmarkAssemble). The
# third line runs every workload of the end-to-end benchmark harness for
# one second each (about a minute on two cores); the harness checks every
# output, so a change that breaks a benchmark run fails here first. The
# fourth runs them traced: that run also drives disasm's Options.Serial
# path and requires the separately composed layers to produce exactly
# the bytes zipr.Rewrite does.
benchsmoke:
	$(GO) test -run '^$$' -bench 'AllocCarveRelease|FreeSpaceCarveRelease|AllocNearestFit|FreeSpaceNearestFit' -benchtime 1x -benchmem ./internal/core/
	$(GO) test -run '^$$' -bench 'RewriteDelta|ServeDeltaHit|InferLibc|DisassembleLibc|BuildLibc|^BenchmarkAssemble$$' -benchtime 1x -benchmem . ./internal/cfg/
	bash bench/run.sh --seconds 1 --seed 0
	bash bench/run.sh --seconds 1 --seed 0 --trace 1

# Bench module guard: the benchmark harness is a module of its own
# (bench/go.mod, replacing zipr with ../), so `go build ./...` at the
# root never compiles it. Vet and test it here, so that deleting or
# changing a root API it imports fails CI instead of the next benchmark
# run.
benchbuild:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# Fuzz smoke: replay the committed seed corpora, then fuzz each target
# for a bounded interval — long enough to catch shallow regressions in
# the allocator's differential contract, the whole-pipeline
# transcript-equivalence property, the assembler's contract (no
# panic, a typed error with an in-source line, deterministic output),
# the disk tier's open over arbitrary files (no panic, never bytes
# that differ from their digest) and the snapshot parser (no panic, a
# stale refusal or a blob that re-marshals to itself and applies to its
# own input), short enough for CI. The snapshot seeds are whole corpus
# snapshots of 60-80 KB, whose byte-by-byte minimisation would take
# the whole interval, so that target minimises for 100 runs only.
# Crashers are written under testdata/fuzz/ for triage.
FUZZTIME ?= 30s
fuzzsmoke:
	$(GO) test -run '^$$' -fuzz '^FuzzAlloc$$' -fuzztime $(FUZZTIME) ./internal/core/
	$(GO) test -run '^$$' -fuzz '^FuzzPipelineEquivalence$$' -fuzztime $(FUZZTIME) .
	$(GO) test -run '^$$' -fuzz '^FuzzDeltaEquivalence$$' -fuzztime $(FUZZTIME) .
	$(GO) test -run '^$$' -fuzz '^FuzzInferEquivalence$$' -fuzztime $(FUZZTIME) .
	$(GO) test -run '^$$' -fuzz '^FuzzZVMEquivalence$$' -fuzztime $(FUZZTIME) .
	$(GO) test -run '^$$' -fuzz '^FuzzAssemble$$' -fuzztime $(FUZZTIME) ./internal/asm/
	$(GO) test -run '^$$' -fuzz '^FuzzDiskTierOpen$$' -fuzztime $(FUZZTIME) ./internal/serve/
	$(GO) test -run '^$$' -fuzz '^FuzzUnmarshalSnapshot$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 100x ./internal/core/

# Per-ISA sweep: the golden matrices, the veneer program's fail-closed
# contract, and the chaos schedule sweeps for every supported
# instruction set, under the race detector (where the golden suites
# stride-subsample the corpus to stay inside CI budgets; plain
# `make test` still covers every cell).
isasweep:
	$(GO) test -race -run 'TestGoldenCorpus|TestGoldenFileComplete|TestGoldenZVM64|TestVeneerFragmentationFailsClosed|TestChaosScheduleSweep' .

# Fleet smoke: build ziprd, boot two disk-backed workers plus a
# consistent-hash gateway on real TCP, then drill the fleet contract —
# byte-identical answers across a mid-run worker kill (with the outage
# visible in gateway metrics) and a disk-tier hit from a restarted
# empty-RAM worker. See cmd/fleetsmoke.
fleet-smoke:
	$(GO) run ./cmd/fleetsmoke

# Examples are part of the API contract: each must build and run to
# completion (exit 0) against the current library surface.
examples:
	$(GO) build ./examples/...
	@set -e; for d in examples/*/; do echo "run $$d"; $(GO) run ./$$d >/dev/null; done

# Metrics gate: the naming lint (lowercase dotted family names, bounded
# label cardinality, unique exposition names), the Prometheus
# exposition self-check (HELP/TYPE pairing, label escaping, monotone
# cumulative buckets, _sum/_count consistency), the pinned counter and
# gauge lines of the serving layer after a fixed request script, and
# ziprd's /metrics read against its /stats after a disk-tier restart.
metricslint:
	$(GO) test -run 'TestMetricsNamingLint|TestMetricsPinned|TestMetricsMatchStats|TestPromExposition|TestPromName' ./internal/serve/ ./internal/obs/ ./cmd/ziprd/

ci: fmt build vet race cover bench benchgate benchsmoke benchbuild fuzzsmoke isasweep fleet-smoke examples metricslint
