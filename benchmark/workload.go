package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"runtime"
	"time"

	"eilid/internal/core"
	"eilid/internal/fleet"
)

// sizes fixes how much work one measured unit of each workload does.
// A run repeats units for its duration; the smoke test shrinks them.
type sizes struct {
	// AppsBaselineRepeat and AppsMonitoredRepeat repeat the seven
	// Table IV apps per unit (×1 and ×3 defense columns).
	AppsBaselineRepeat  int
	AppsMonitoredRepeat int
	// AttacksRepeat repeats the six handcrafted scenarios ×4 columns.
	AttacksRepeat int
	// ServiceBatches is the batches one fleetd-service pass submits to
	// its server (a multiple of 4, so the last carries a fresh seed),
	// each of ServiceGenCount generated scenarios ×4 columns.
	ServiceBatches  int
	ServiceGenCount int
	// SetupReps is how many times a runner workload sets up cold per
	// run; setup_s is their median.
	SetupReps int
	// MinUnits is the least number of measured units per run, however
	// short the run.
	MinUnits int
}

// fullSizes are the committed workload sizes (see README.md).
var fullSizes = sizes{
	AppsBaselineRepeat:  5,
	AppsMonitoredRepeat: 1,
	AttacksRepeat:       50,
	ServiceBatches:      100,
	ServiceGenCount:     64,
	SetupReps:           21,
	MinUnits:            5,
}

// workload is one named set of inputs. Runner workloads repeat the
// unit batch their spec describes; fleetd-service drives a sequence of
// batches through an in-process server.
type workload struct {
	name string
	why  string
	// spec is the batch one unit of a runner workload runs (nil for the
	// service).
	spec func(z sizes, seed uint64) fleet.BatchSpec
	// ref is the reference burst that tracks how the host's busy phases
	// slow the workload (see hostspeed.go).
	ref refBurst
}

var workloads = []workload{
	{
		name: "apps-baseline",
		why:  "unit: 7 Table IV apps x baseline x 5 repeats; long unmonitored jobs on the pure block path of cpu/isa/mem, the bypass case for monitor-path changes",
		spec: func(z sizes, _ uint64) fleet.BatchSpec {
			return fleet.BatchSpec{Matrix: fleet.MatrixSpec{NoScenarios: true, Defenses: []string{"baseline"}, Repeat: z.AppsBaselineRepeat}}
		},
		ref: regexpBurst,
	},
	{
		name: "apps-monitored",
		why:  "unit: the 7 apps x eilid/shadow/critvar; the same code with a monitor called on every instruction, so casu and the guarded block loop dominate",
		spec: func(z sizes, _ uint64) fleet.BatchSpec {
			return fleet.BatchSpec{Matrix: fleet.MatrixSpec{NoScenarios: true, Defenses: monitoredDefenses(), Repeat: z.AppsMonitoredRepeat}}
		},
		ref: mixedBurst,
	},
	{
		name: "attacks-short",
		why:  "unit: 6 handcrafted attacks x 4 columns x 50 repeats, 3-1144 cycles per job; per-job lifecycle (recycle, boot, oracle, encode, dispatch) does the work",
		spec: func(z sizes, _ uint64) fleet.BatchSpec {
			return fleet.BatchSpec{Matrix: fleet.MatrixSpec{NoApps: true, Repeat: z.AttacksRepeat}}
		},
		ref: mixedBurst,
	},
	{
		name: "fleetd-service",
		why:  "passes of 100 batches (64 generated x 4 columns), each through a fresh server, from one closed-loop client over loopback HTTP; 3 of 4 resubmit one of 3 fixed seeds, every 4th is fresh",
		ref:  mixedBurst,
	},
}

func workloadByName(name string) (*workload, bool) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], true
		}
	}
	return nil, false
}

// runConfig is what one run of one workload is given.
type runConfig struct {
	seed    uint64
	seconds float64
	trace   bool
	workers int
	sizes   sizes
	// traceOut is where a traced run writes its Chrome trace ("" = none).
	traceOut string
}

// defaultWorkers is the pool size every run uses: all cores, at most 4.
func defaultWorkers() int { return min(runtime.NumCPU(), 4) }

// exec is the execution section every batch carries: the CLI's default
// watchdog, so each job runs behind the fault boundary users get.
func (c runConfig) exec() fleet.ExecSpec {
	return fleet.ExecSpec{Workers: c.workers, JobTimeout: fleet.Duration(2 * time.Minute)}
}

// runOutcome is the result of one run.
type runOutcome struct {
	// Metrics holds every end-to-end metric (untraced) or every
	// per-layer metric (traced).
	Metrics map[string]float64 `json:"metrics"`
	// Extra holds breakdowns that are reported but not listed in
	// BENCHMARK.json, such as timings only some workloads produce.
	Extra map[string]float64 `json:"extra,omitempty"`
	// Sim are the deterministic totals of one unit (or of the service's
	// batch sequence), and Digest the sha256 of its journal bytes: both
	// repeat exactly for a given workload, size and seed.
	Sim    simTotals `json:"sim"`
	Digest string    `json:"digest"`
	// Attempted counts jobs run (plus HTTP requests made); Failed counts
	// failed jobs, failed oracle checks, HTTP errors and failed
	// benchmark checks.
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Errors    []string `json:"errors,omitempty"`
}

// simTotals are the deterministic counters of one unit.
type simTotals struct {
	Jobs   int    `json:"jobs"`
	Cycles uint64 `json:"cycles"`
	Insns  uint64 `json:"insns"`
}

func newOutcome() *runOutcome {
	return &runOutcome{Metrics: map[string]float64{}, Extra: map[string]float64{}}
}

// fail records a failed correctness check.
func (o *runOutcome) fail(format string, args ...any) {
	o.Failed++
	if len(o.Errors) < 20 {
		o.Errors = append(o.Errors, fmt.Sprintf(format, args...))
	}
}

// journalHash digests journal bytes as they are written.
type journalHash struct {
	h hash.Hash
	n int64
}

func newJournalHash() *journalHash { return &journalHash{h: sha256.New()} }

func (j *journalHash) Write(p []byte) (int, error) {
	j.n += int64(len(p))
	return j.h.Write(p)
}

func (j *journalHash) sum() string { return hex.EncodeToString(j.h.Sum(nil)) }

// unitResult is one unit: the workload's batch run once through the
// CLI path.
type unitResult struct {
	wall time.Duration
	// firstJob is the time from the batch's start to its first job line.
	firstJob time.Duration
	digest   string // over the unit's journal
	bytes    int64
	sim      simTotals
	failures int
	checks   int
	// results holds every job line when the caller asked to keep them.
	results []fleet.JobResult
}

// batch is a set-up runner workload: a pipeline and the runner of the
// workload's batch.
type batch struct {
	p *core.Pipeline
	r *fleet.Runner
}

// setupBatch is the cold set-up a CLI invocation pays: the EILID
// pipeline (secure ROM build) and a runner with every firmware of the
// batch assembled, instrumented, predecoded and block-fused.
func setupBatch(spec fleet.BatchSpec) (*batch, error) {
	p, err := core.NewPipeline(core.DefaultConfig())
	if err != nil {
		return nil, err
	}
	return newBatch(p, spec)
}

// newBatch builds the batch's runner on an existing pipeline.
func newBatch(p *core.Pipeline, spec fleet.BatchSpec) (*batch, error) {
	r, err := fleet.NewRunner(p, spec)
	if err != nil {
		return nil, err
	}
	return &batch{p: p, r: r}, nil
}

// runUnit runs the batch once, writing its journal exactly as
// `eilid-fleet -json` does — header, one line per job, summary — into
// a digest.
func (b *batch) runUnit(keep bool) (*unitResult, error) {
	u := &unitResult{}
	jw := newJournalHash()
	start := time.Now()
	if err := fleet.WriteJournalHeader(jw, b.r.JournalHeader()); err != nil {
		return nil, err
	}
	var werr error
	rep, err := b.r.RunStream(func(jr fleet.JobResult) {
		if u.sim.Jobs == 0 {
			u.firstJob = time.Since(start)
		}
		u.sim.Jobs++
		u.sim.Cycles += jr.Cycles
		u.sim.Insns += jr.Insns
		switch {
		case jr.Err != "":
			u.failures++
		case !jr.CheckOK:
			u.checks++
		}
		if keep {
			u.results = append(u.results, jr)
		}
		if err := fleet.WriteNDJSONLine(jw, jr); err != nil && werr == nil {
			werr = err
		}
	})
	if err != nil {
		return nil, err
	}
	if werr != nil {
		return nil, werr
	}
	if rep.Jobs != u.sim.Jobs || rep.TotalCycles != u.sim.Cycles || rep.Failures != u.failures || rep.ChecksFailed != u.checks {
		return nil, fmt.Errorf("batch report disagrees with its streamed job lines")
	}
	if err := fleet.WriteJournalSummary(jw, rep); err != nil {
		return nil, err
	}
	u.wall = time.Since(start)
	u.digest, u.bytes = jw.sum(), jw.n
	return u, nil
}

// checkUnit applies the per-unit correctness checks: every job ran
// clean, passed its oracle, and the journal is byte-identical to the
// run's first unit.
func (o *runOutcome) checkUnit(w string, want int, u *unitResult) {
	o.Attempted += u.sim.Jobs
	if u.sim.Jobs != want {
		o.fail("%s: %d job lines, the batch has %d", w, u.sim.Jobs, want)
	}
	if u.failures > 0 {
		o.fail("%s: %d jobs failed", w, u.failures)
	}
	if u.checks > 0 {
		o.fail("%s: %d oracle checks failed", w, u.checks)
	}
	if o.Digest == "" {
		o.Digest, o.Sim = u.digest, u.sim
	} else if u.digest != o.Digest {
		o.fail("%s: journal digest %.12s differs from the run's first unit %.12s", w, u.digest, o.Digest)
	}
}

// liveHeapMB collects garbage and returns the live heap in MB.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// runBatchWorkload is an untraced run of a runner workload: a cold
// set-up, then units until the run's time is up, with one more cold
// set-up (timed, then dropped and collected) between units so set-up
// samples span the run. The first unit fills the machine pools and is
// checked but not timed. The workload's reference burst follows every
// unit and set-up, and each is scaled to the nominal host (see
// hostspeed.go); the run reports the median unit rate and set-up time.
func runBatchWorkload(w *workload, cfg runConfig) (*runOutcome, error) {
	spec := w.spec(cfg.sizes, cfg.seed)
	spec.Exec = cfg.exec()
	out := newOutcome()
	hc := newHostClock(cfg.workers, w.ref)
	heap0 := liveHeapMB()
	var setup, rawSetup, speed []float64
	timedSetup := func() (*batch, error) {
		runtime.GC()
		t0 := time.Now()
		b, err := setupBatch(spec)
		s := time.Since(t0).Seconds()
		f := hc.tick()
		setup = append(setup, s*f)
		rawSetup = append(rawSetup, s)
		return b, err
	}
	b, err := timedSetup()
	if err != nil {
		return nil, err
	}
	var jobsPerS, mcps, rawJobsPerS, batchMS, firstMS []float64
	start := time.Now()
	deadline := start.Add(seconds(cfg.seconds))
	setupEvery := seconds(cfg.seconds / float64(max(cfg.sizes.SetupReps, 1)))
	nextSetup := start.Add(setupEvery)
	for unit := 0; ; unit++ {
		u, err := b.runUnit(false)
		if err != nil {
			return nil, err
		}
		f := hc.tick()
		out.checkUnit(w.name, len(b.r.Jobs()), u)
		if unit > 0 {
			s := u.wall.Seconds()
			jobsPerS = append(jobsPerS, float64(u.sim.Jobs)/s/f)
			mcps = append(mcps, float64(u.sim.Cycles)/s/f/1e6)
			rawJobsPerS = append(rawJobsPerS, float64(u.sim.Jobs)/s)
			speed = append(speed, f)
			batchMS = append(batchMS, ms(u.wall))
			firstMS = append(firstMS, ms(u.firstJob))
		}
		// Catch up on every set-up due, so that units longer than the
		// set-up interval do not push the last set-ups past the deadline.
		for len(setup) < cfg.sizes.SetupReps && time.Now().After(nextSetup) {
			if _, err := timedSetup(); err != nil {
				return nil, err
			}
			// Collect the dropped set-up now rather than inside the next
			// timed unit.
			runtime.GC()
			nextSetup = nextSetup.Add(setupEvery)
		}
		if unit >= cfg.sizes.MinUnits && len(setup) >= cfg.sizes.SetupReps && time.Now().After(deadline) {
			break
		}
	}
	out.Metrics["setup_s"] = median(setup)
	out.Metrics["jobs_per_s"] = median(jobsPerS)
	out.Metrics["sim_mcycles_per_s"] = median(mcps)
	out.Extra["first_job_ms_p50"] = median(firstMS)
	out.Metrics["heap_mb"] = liveHeapMB() - heap0
	out.Extra["batch_ms_p50"] = median(batchMS)
	out.Extra["batch_ms_p95"] = percentile(batchMS, 0.95)
	out.Extra["raw.setup_s"] = median(rawSetup)
	out.Extra["raw.jobs_per_s"] = median(rawJobsPerS)
	out.Extra["host_speed"] = median(speed)
	runtime.KeepAlive(b)
	runtime.KeepAlive(hc)
	return out, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
