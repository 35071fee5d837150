GO ?= go

.PHONY: all build fmt vet vet-benchmark test test-differential test-benchmark fuzz-smoke bench-smoke bench bench-json check

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
# Space.Restore from the base snapshot restores exactly the marked
# pages; pinned per attack job, as are the pages a sealed snapshot
# holds), the staleness contract that rides on
# the same mask (a cached decode is stale exactly when its fetch window
# touches a marked page, a restore or a cache install makes it fresh,
# and a poke between runs or a reinstall on a sealed machine is seen),
# the recycled-vs-fresh, scheduler, crash/resume and service-mode
# suites are the correctness contract of the hot-path optimizations,
# the machine-recycling subsystem, Runner.Run's scheduling and
# watchdog, the fleet's crash-safety (journaled checkpointing, fault
# containment, resume convergence) and the fleetd journal
# byte-identity. The differentials compare the production path with
# the reference, but the two share their op bodies (doFormat1,
# doFormat2, reti), so the check of those bodies is the known-answer
# test (format II ops and jumps on both paths against answers worked
# by hand from the MSP430 family guide) and the fault premise (only
# live decode can fault: every word a decode cache may hold runs
# without error, on a CPU and on a machine). The countdown differential
# pins the one place the production path computes instead of running:
# a `dec Rn; jnz` self-loop retired in closed form, against the
# reference stepping every iteration. The golden journal digests pin
# what the whole simulator computes for the default matrix and
# Generate(1, 64) in every column: a change meant only to run faster
# leaves them as they are. The sealed-machine gate bounds the live heap
# one pooled machine holds, so a change that gives each machine its own
# copy of something shareable fails here. The artifact gate bounds the
# live heap one build flavour's decode cache holds (18 KiB, against 21.1
# KiB with a second page table of decodes beside the blocks and 250 KiB
# for tables sized to the whole code window), so a change that stores
# pages holding no code, a table per address of the window or a second
# table per page fails here; the image-predecode differential requires
# the cache the runner predecodes from a flavour's images to hold the
# same block at every address as one EnablePredecode takes from a
# machine loaded with them, every block's first op to be what
# isa.Decode gives, and a page to hold storage only where it holds
# code; and the fuse differential requires isa.BuildBlocks, the fuse
# pass the benchmark times on its own, to fuse every such cache's
# decodes afresh into the same blocks. This target fails if any of
# these suites is skipped or matches nothing, or if those nine tests do
# not pass under their own names.
test-differential:
	@out=$$($(GO) test -v -run 'TestDispatchDifferential|TestSnapshotRestore|TestDirectRAMMatchesBus|TestInvalidateCode|TestResetCodeState|TestPredecodeDifferential|TestPredecodeSelfModifying|TestFastSlow|TestBlock|TestTickEquivalence|TestTimerTickClosedForm|TestRecycle|TestGenerated|TestCrashResume|TestFault|TestJournal|TestRun|TestFleetCrashResumeCLI|TestFleetFaultInjectionCLI|TestServe|TestFleetdSmoke|TestKnownAnswer|TestOnlyLiveDecodeFaults|TestSealedMachineBytes|TestArtifactBytes|TestPredecodeImagesMatchMachine|TestBuildBlocksMatchesPredecode' \
		./internal/mem ./internal/cpu ./internal/core ./internal/periph ./internal/fleet ./internal/fleet/serve ./cmd/eilid-fleet ./cmd/eilid-fleetd) || { echo "$$out"; exit 1; }; \
	echo "$$out" | grep -q -- '--- PASS' || { echo 'no differential tests ran'; exit 1; }; \
	if echo "$$out" | grep -q -- '--- SKIP'; then echo "$$out" | grep -- '--- SKIP'; echo 'differential tests were skipped'; exit 1; fi; \
	for t in TestKnownAnswerFormat2AndJumps TestOnlyLiveDecodeFaults TestOnlyLiveDecodeFaultsMachine TestBlockCountdownDifferential TestJournalGoldenDigests TestSealedMachineBytes TestArtifactBytes TestPredecodeImagesMatchMachine TestBuildBlocksMatchesPredecode; do \
		echo "$$out" | grep -q -- "--- PASS: $$t (" || { echo "$$t did not pass"; exit 1; }; \
	done; \
	echo "differential suites: $$(echo "$$out" | grep -c -- '--- PASS') passes, no skips"

# benchmark/ is a Go module of its own, so the root ./... patterns never
# compile it. vet-benchmark compiles and vets it against the root
# packages, so a change to the packages it drives cannot silently break
# the benchmark program; test-benchmark also runs its tests.
# test-benchmark fails at TestSmokeTraced/apps-monitored until that
# test's fetch and poll quotients are re-pinned, so check runs it last,
# where it hides no other step.
vet-benchmark:
	cd benchmark && $(GO) vet ./...

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
# machine-lifecycle overhead, ArtifactBuild what preparing a firmware's
# shared decode caches costs and holds, and
# Fleetd_WarmResubmit the daemon's warm-resubmission latency.
bench-smoke:
	$(GO) test -run='^$$' -bench='BenchmarkSimulator_Throughput$$|BenchmarkSimulator_ThroughputReference$$|BenchmarkSimulator_AppsByDefense|BenchmarkFleet_MachineChurn|BenchmarkFleet_ArtifactBuild' -benchtime=1x .
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
	$(GO) test -run='^$$' -bench='BenchmarkSimulator_Throughput|BenchmarkFleet_MachineChurn|BenchmarkFleet_ArtifactBuild' -benchtime=2s . > BENCH.txt.tmp
	$(GO) test -run='^$$' -bench='BenchmarkSimulator_FleetMatrix$$|BenchmarkTable4$$' -benchtime=1x . >> BENCH.txt.tmp
	$(GO) test -run='^$$' -bench='BenchmarkFleetd_WarmResubmit' -benchtime=10x ./cmd/eilid-fleetd >> BENCH.txt.tmp
	@f=$$($(GO) run ./cmd/eilid-benchjson -next < BENCH.txt.tmp) || { rm -f BENCH.txt.tmp; exit 1; }; \
	rm -f BENCH.txt.tmp; echo "wrote $$f"

check: build fmt vet vet-benchmark test test-differential bench-smoke test-benchmark
