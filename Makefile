GO ?= go

.PHONY: all build fmt vet test test-differential test-benchmark fuzz-smoke bench-smoke bench bench-json check

all: check

build:
	$(GO) build ./...

# The format gate: gofmt -l over every tracked Go file, benchmark/
# included. It only reads; it fails and lists the files gofmt would
# rewrite.
fmt:
	@files=$$(git ls-files '*.go') && [ -n "$$files" ] || { echo 'fmt: no tracked Go files found'; exit 1; }; \
	out=$$(gofmt -l $$files) || exit 1; \
	if [ -n "$$out" ]; then echo "$$out"; echo 'fmt: gofmt would rewrite the files above'; exit 1; fi

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# The production-vs-reference differentials (bus dispatch against a
# linear scan, direct RAM against the bus interface, decode-cached
# machines — run, stepped, sliced, sharing a cache, under attack —
# against the cache-less reference machine, block admission corners,
# tick equivalence, pinned block exits and monitor callbacks), the
# restore contract (every write to the slab marks its page, and
# Space.Restore from the base snapshot copies back exactly the marked
# pages; pinned per attack job), the recycled-vs-fresh, scheduler,
# crash/resume and service-mode suites are the correctness contract of
# the hot-path optimizations, the machine-recycling subsystem,
# Runner.Run's scheduling and watchdog, the fleet's crash-safety
# (journaled checkpointing, fault containment, resume convergence) and
# the fleetd journal byte-identity; this target fails if any of them is
# skipped or matches nothing.
test-differential:
	@out=$$($(GO) test -v -run 'TestDispatchDifferential|TestSnapshotRestore|TestDirectRAMMatchesBus|TestPredecodeDifferential|TestPredecodeSelfModifying|TestFastSlow|TestBlock|TestTickEquivalence|TestTimerTickClosedForm|TestRecycle|TestGenerated|TestCrashResume|TestFault|TestJournal|TestRun|TestFleetCrashResumeCLI|TestFleetFaultInjectionCLI|TestServe|TestFleetdSmoke' \
		./internal/mem ./internal/cpu ./internal/core ./internal/periph ./internal/fleet ./internal/fleet/serve ./cmd/eilid-fleet ./cmd/eilid-fleetd) || { echo "$$out"; exit 1; }; \
	echo "$$out" | grep -q -- '--- PASS' || { echo 'no differential tests ran'; exit 1; }; \
	if echo "$$out" | grep -q -- '--- SKIP'; then echo "$$out" | grep -- '--- SKIP'; echo 'differential tests were skipped'; exit 1; fi; \
	echo "differential suites: $$(echo "$$out" | grep -c -- '--- PASS') passes, no skips"

# benchmark/ is a Go module of its own, so the root ./... patterns never
# compile it; vet and test it here so a change to the packages it drives
# cannot silently break the benchmark program.
test-benchmark:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

# A few seconds of coverage-guided fuzzing per native target: the
# assembler must never panic on arbitrary source, no UART input may
# compromise the protected overflow victim, the journal parser -resume
# runs on crash-torn files must never panic and must accept every torn
# prefix of a valid journal (and what it accepts must Validate, list
# its Remaining jobs and Merge consistently against a runner rebuilt
# from the header), and the BatchSpec decoder behind -spec and
# POST /batches must never panic and must resolve every spec it accepts
# idempotently with an overflow-free job count, and arbitrary
# instruction streams ending in a spin loop must run on the production
# path exactly as on the cache-less reference under every defense
# column. The committed seed corpora under */testdata/fuzz/ anchor the
# search; real finds land there as regression inputs. The two fleet
# targets cap minimization at 100 runs per input: with the default 60 s
# budget their workers spend all 5 s shrinking the first mutants of the
# kilobyte-sized seeds and run only a handful of inputs. The execution
# differential caps it too: each of its runs builds and runs eight
# machines, so it manages only a few hundred runs per second.
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz='^FuzzAssemble$$' -fuzztime=5s ./internal/asm
	$(GO) test -run='^$$' -fuzz='^FuzzUARTPayload$$' -fuzztime=5s ./internal/attacks
	$(GO) test -run='^$$' -fuzz='^FuzzParseJournal$$' -fuzztime=5s -fuzzminimizetime=100x ./internal/fleet
	$(GO) test -run='^$$' -fuzz='^FuzzBatchSpec$$' -fuzztime=5s -fuzzminimizetime=100x ./internal/fleet
	$(GO) test -run='^$$' -fuzz='^FuzzExecDifferential$$' -fuzztime=5s -fuzzminimizetime=100x ./internal/core

# One-iteration benchmark pass so throughput regressions surface in PRs
# without burning CI minutes. ThroughputReference rides along so the
# production path's gain over the cache-less reference machine stays
# measurable; AppsByDefense runs the Table IV apps under every defense
# column on recycled machines; MachineChurn guards the recycled
# machine-lifecycle overhead, and Fleetd_WarmResubmit the daemon's
# warm-resubmission latency.
bench-smoke:
	$(GO) test -run='^$$' -bench='BenchmarkSimulator_Throughput$$|BenchmarkSimulator_ThroughputReference$$|BenchmarkSimulator_AppsByDefense|BenchmarkFleet_MachineChurn' -benchtime=1x .
	$(GO) test -run='^$$' -bench='BenchmarkFleetd_WarmResubmit' -benchtime=1x ./cmd/eilid-fleetd

bench:
	$(GO) test -run='^$$' -bench=. -benchmem .

# bench-json records the performance trajectory in-repo: the simulator
# throughput benchmarks (timed) plus the Table IV sweep (one iteration),
# parsed into the first free BENCH_<n>.json so each PR appends a point
# to the trajectory instead of overwriting the previous one. The bench
# output goes through a temp file so a failing/panicking benchmark fails
# the target instead of silently writing a partial record.
bench-json:
	$(GO) test -run='^$$' -bench='BenchmarkSimulator_Throughput|BenchmarkFleet_MachineChurn' -benchtime=2s . > BENCH.txt.tmp
	$(GO) test -run='^$$' -bench='BenchmarkSimulator_FleetMatrix$$|BenchmarkTable4$$' -benchtime=1x . >> BENCH.txt.tmp
	$(GO) test -run='^$$' -bench='BenchmarkFleetd_WarmResubmit' -benchtime=10x ./cmd/eilid-fleetd >> BENCH.txt.tmp
	@f=$$($(GO) run ./cmd/eilid-benchjson -next < BENCH.txt.tmp) || { rm -f BENCH.txt.tmp; exit 1; }; \
	rm -f BENCH.txt.tmp; echo "wrote $$f"

check: build fmt vet test test-differential test-benchmark bench-smoke
