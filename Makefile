GO ?= go

.PHONY: build test race vet fuzz-short bench-json bench-regress bench-sweep bench-allocs perfbench-smoke obs-smoke soak soak-smoke all

all: build vet test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The experiments package exceeds go test's default 10m budget under the
# race detector, so give the suite a wider timeout.
race:
	$(GO) test -race -timeout 45m ./...

vet:
	$(GO) vet ./...

# The simulator steps on one goroutine, but GOMAXPROCS still decides how
# many CPUs the garbage collector and runtime get beside it, so both bench
# targets pin it to one explicit, overridable value
# (`make BENCH_GOMAXPROCS=8 bench-json`).  benchjson parses the run's
# GOMAXPROCS from the benchmark-name suffixes and records it in the
# snapshot; benchregress refuses to gate a run against a baseline with a
# different recorded value.
BENCH_GOMAXPROCS ?= $(shell nproc)

# Snapshot the simulator/profiler micro-benchmarks (ns/op, allocs/op,
# derived sim-ops/sec) into BENCH_<date>.json so the perf trajectory is
# tracked across PRs.
bench-json:
	GOMAXPROCS=$(BENCH_GOMAXPROCS) $(GO) test -run '^$$' -bench 'SimLocalStream|SimCXLStream|SimMultiCoreStream|SimThinkHeavyStream|CaptureSnapshot|PFBuilder|PFEstimator|PFAnalyzer|AnalyzeQueues|EpochLoop' \
		-benchmem -benchtime 200000x . | $(GO) run ./cmd/benchjson -o BENCH_$$(date +%Y%m%d).json
	@echo wrote BENCH_$$(date +%Y%m%d).json

# Gate the profiler hot paths against the committed baseline: fail when
# SimCXLStream, CaptureSnapshot, or EpochLoop ns/op regresses more than 20%
# versus the latest BENCH_*.json.  The iteration count must match
# bench-json's, or the differently-amortized warmup skews the comparison;
# the gate takes the fastest of three repetitions to filter scheduler noise.
# The TracerOff pairs additionally bound the cost of an attached-but-
# disabled request tracer — compared within the same run, where a tight
# tolerance is meaningful.  The bound is 8%: inline core stepping cut
# per-op cost ~1.5x, so the tracer's fixed per-op check (one predicted
# branch + an inlined atomic load) is now a larger fraction of a smaller
# number (~4-5% on the CXL stream), and the multi-core pair adds scheduler
# noise on top.  An accidentally-enabled tracer costs ~10x, far outside
# the bound either way.
# The Flight pairs ride the same bench run (benchregress accepts a file, so
# the output is captured once and gated at three tolerances): the disabled
# flight recorder is meant to ride along in production, so its off-cost is
# bounded at 2% — one nil check plus an inlined atomic load per completion.
# The enabled recorder (FlightOn vs FlightOff, same run) files a packed
# record through the per-core ring, quantile sketch, and histogram on every
# completion (~18% on the pure CXL stream, the worst case: every op
# completes); 25% bounds it without gating on noise.
# The -max ceilings pin the simulator hot loops at 0 allocs/op and bound
# their residual B/op.  The residual bytes at 0 allocs/op are amortized
# one-time buffer growth (observer wheel slots and buckets, pending-list
# slices) divided by b.N — they shrink as -benchtime grows (12 -> 1 B/op
# from 200k to 2M iterations on the CXL stream) and are NOT a steady-state
# leak; the ceilings catch a real per-op allocation sneaking in, which
# would add >=16 B/op at these counts.
bench-regress:
	@tmp=$$(mktemp); trap 'rm -f '"$$tmp" EXIT; \
	GOMAXPROCS=$(BENCH_GOMAXPROCS) $(GO) test -run '^$$' -bench 'SimLocalStream|SimCXLStream|SimMultiCoreStream|CaptureSnapshot|EpochLoop' -benchmem -benchtime 200000x -count 3 . \
		| tee "$$tmp" && \
	$(GO) run ./cmd/benchregress \
		-watch 'BenchmarkSimCXLStream,BenchmarkSimMultiCoreStream,BenchmarkCaptureSnapshot,BenchmarkEpochLoop' \
		-pair-tolerance 0.08 \
		-pairs 'BenchmarkSimCXLStreamTracerOff=BenchmarkSimCXLStream,BenchmarkSimMultiCoreStreamTracerOff=BenchmarkSimMultiCoreStream,BenchmarkEpochLoopTracerOff=BenchmarkEpochLoop' \
		-max 'BenchmarkSimLocalStream:allocs/op:0,BenchmarkSimCXLStream:allocs/op:0,BenchmarkSimMultiCoreStream:allocs/op:0,BenchmarkSimLocalStream:B/op:64,BenchmarkSimCXLStream:B/op:64,BenchmarkSimMultiCoreStream:B/op:256' \
		"$$tmp" && \
	$(GO) run ./cmd/benchregress \
		-watch 'BenchmarkSimCXLStream' \
		-pair-tolerance 0.02 \
		-pairs 'BenchmarkSimCXLStreamFlightOff=BenchmarkSimCXLStream,BenchmarkSimMultiCoreStreamFlightOff=BenchmarkSimMultiCoreStream' \
		"$$tmp" && \
	$(GO) run ./cmd/benchregress \
		-watch 'BenchmarkSimCXLStream' \
		-pair-tolerance 0.25 \
		-pairs 'BenchmarkSimCXLStreamFlightOn=BenchmarkSimCXLStreamFlightOff' \
		"$$tmp"

# Forked-vs-scratch sweep gate: restoring a warmed checkpoint per config
# point must cost at most half of re-warming from scratch (measured ~27x
# faster; the gate demands >=2x so it never trips on noise).  The
# negative pair tolerance inverts the usual bound into a required
# speedup: Forked ns/op may not exceed 0.5x Scratch ns/op.  -watch '' —
# the sweep benchmarks are deliberately absent from the committed
# baseline (each iteration runs a full 16-point sweep, far too slow for
# bench-json's fixed iteration counts); with no watched row benchregress
# loads no baseline, so the gate runs at any GOMAXPROCS.  5 iterations
# amortize the handful of one-time allocations (pool internals, timer)
# that would otherwise round the forked loop's allocs/op up from zero.
bench-sweep:
	@tmp=$$(mktemp); trap 'rm -f '"$$tmp" EXIT; \
	GOMAXPROCS=$(BENCH_GOMAXPROCS) $(GO) test -run '^$$' -bench 'BenchmarkSweep' -benchmem -benchtime 5x . \
		| tee "$$tmp" && \
	$(GO) run ./cmd/benchregress \
		-watch '' \
		-pair-tolerance -0.5 \
		-pairs 'BenchmarkSweepForked=BenchmarkSweepScratch' \
		-max 'BenchmarkSweepForked:allocs/op:0' \
		"$$tmp"

# Allocation guard: the three simulator stream loops must stay at 0
# allocs/op and at most 64 B/op.  Go rounds both down from total/N, so
# allocs/op:0 alone only means fewer than one allocation per op; the B/op
# ceiling (today 3, 12 and 22 B/op of amortized one-time buffer growth)
# also catches an allocation made on a fraction of the ops.  Like
# bench-sweep it gates within the run (-watch ''), so it passes or fails
# on the code alone, on any host and at any GOMAXPROCS.  200000
# iterations amortize the one-time growth that would otherwise round
# allocs/op up from zero.
bench-allocs:
	@tmp=$$(mktemp); trap 'rm -f '"$$tmp" EXIT; \
	GOMAXPROCS=$(BENCH_GOMAXPROCS) $(GO) test -run '^$$' -bench 'BenchmarkSim(Local|CXL|MultiCore)Stream$$' -benchmem -benchtime 200000x . \
		| tee "$$tmp" && \
	$(GO) run ./cmd/benchregress \
		-watch '' \
		-max 'BenchmarkSimLocalStream:allocs/op:0,BenchmarkSimCXLStream:allocs/op:0,BenchmarkSimMultiCoreStream:allocs/op:0,BenchmarkSimLocalStream:B/op:64,BenchmarkSimCXLStream:B/op:64,BenchmarkSimMultiCoreStream:B/op:64' \
		"$$tmp"

# The end-to-end benchmark (perfbench/README.md) is a Go module of its own,
# so the root build, vet and test never compile it and a change to the sim
# API could break it unseen.  This smoke vets and tests the module, then
# runs every workload for one second and fails unless the result line (the
# last line perfbench prints) reports "correct":true.
perfbench-smoke:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...
	@for w in cxl-stream profile-mix fig-suite; do \
		last=$$(python3 perfbench/run.py --workload $$w --seconds 1 --trace 0 | tail -n 1); \
		echo "$$w: $$last"; \
		case "$$last" in *'"correct":true'*) ;; \
		*) echo "perfbench-smoke: $$w did not report \"correct\":true" >&2; exit 1 ;; esac; \
	done

# End-to-end check of `pathfinder -serve`: boots the introspection server
# on a random port and requires live /metrics and /status content.
obs-smoke:
	sh scripts/obs_smoke.sh

# Chaos soak: seeded random fault plans (CRC noise, bursts, timeouts,
# throttles, poison, viral containment, surprise removal) against the
# workload matrix under invariant monitors.  Any violation is shrunk to a
# minimal plan and printed with its seed — replay it verbatim with
# `go run ./cmd/pfbench -replay 'seed,plan'`.  Exit is nonzero on findings.
soak:
	$(GO) run ./cmd/pfbench -soak 256 -soak-seed 1

# The CI-sized soak: fewer, shorter cases under the race detector, sized
# to finish well inside a minute.
soak-smoke:
	$(GO) run -race ./cmd/pfbench -soak 12 -soak-cycles 250000 -soak-seed 1

# Short fuzzing pass over the flit decoders and the fault-plan parser:
# each target runs for 10 seconds and must only ever return structured
# errors, never panic.
fuzz-short:
	$(GO) test ./internal/cxl/ -run '^$$' -fuzz FuzzFlitDecode -fuzztime 10s
	$(GO) test ./internal/cxl/ -run '^$$' -fuzz FuzzFlit256Feed -fuzztime 10s
	$(GO) test ./internal/cxl/ -run '^$$' -fuzz FuzzParseFaultPlan -fuzztime 10s
	$(GO) test ./internal/sim/ -run '^$$' -fuzz FuzzCheckpointRoundTrip -fuzztime 10s
