// Package fleet is the fleet-scale simulation subsystem: it executes a
// matrix of (application × defense × attack-scenario) jobs concurrently
// on independent core.Machine instances while sharing the expensive
// read-only build artifacts — each firmware is assembled and
// instrumented exactly once via core.Pipeline, and its predecoded
// instruction cache (core.Machine.EnablePredecode) and fused
// basic-block table (isa.Predecoded.Blocks) are built once per ROM and
// handed to every machine that runs it. Machines live in one pool per
// firmware and defense, in the runner's Warm: every job checks a
// machine out, recycled to its sealed snapshot, and checks it back in.
// Job results are aggregated deterministically in job order, so a run
// with eight workers is byte-identical to a sequential run of the same
// matrix.
//
// The cmd/eilid-fleet CLI, eilid-fleetd, the eilid-attack sweep and
// the repository benchmarks all sit on top of this package; it is the
// one scheduler of simulation batches.
package fleet

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"eilid/internal/apps"
	"eilid/internal/attacks"
	"eilid/internal/core"
	"eilid/internal/fleet/pool"
	"eilid/internal/isa"
	"eilid/internal/scenario"
)

// Job is one cell of the matrix.
type Job struct {
	Index int    `json:"index"`
	Kind  string `json:"kind"` // "app", "attack" or "gen"
	Name  string `json:"name"`
	// Defense is the registry name of the job's defense column.
	Defense string `json:"defense"`
	Repeat  int    `json:"repeat"`
	// Family and Victim describe generated jobs: the generator family
	// and the shared victim build the scenario runs on.
	Family string `json:"family,omitempty"`
	Victim string `json:"victim,omitempty"`
}

// JobResult is the deterministic outcome of one job. It carries only
// simulated observables (no wall-clock fields), so marshalled results
// are byte-identical across worker counts and runs.
type JobResult struct {
	Job
	Cycles   uint64 `json:"cycles"`
	Insns    uint64 `json:"insns"`
	Halted   bool   `json:"halted"`
	ExitCode uint16 `json:"exit_code"`
	Resets   int    `json:"resets"`
	Reason   string `json:"reason,omitempty"`
	// ReasonsRecorded is how many per-reset violation records the
	// machine retained; under a reset storm it saturates at
	// core.MaxResetReasons while Resets keeps the true total.
	ReasonsRecorded int    `json:"reasons_recorded,omitempty"`
	UART            string `json:"uart,omitempty"`
	Compromised     bool   `json:"compromised,omitempty"`
	CheckOK         bool   `json:"check_ok"`
	// Oracle carries the oracle's failure description when a generated
	// job's protected outcome violates it (CheckOK false).
	Oracle string `json:"oracle,omitempty"`
	Err    string `json:"error,omitempty"`
}

// artifact is the shared read-only build product for one firmware:
// assembled images plus one predecoded instruction cache per build
// flavour (instrumented defenses share preInst, all others preOrig —
// their memory contents are byte-identical).
type artifact struct {
	build   *core.BuildResult
	preOrig *isa.Predecoded
	preInst *isa.Predecoded
}

// pre returns the decode cache for a defense's build flavour.
func (a *artifact) pre(spec *core.DefenseSpec) *isa.Predecoded {
	if spec.Instrumented {
		return a.preInst
	}
	return a.preOrig
}

// cell is what a job resolves to when NewRunnerWarm enumerates it: the
// machine pool it runs in (its build under its defense) and its entry
// in the runner's app, scenario or generated list.
type cell struct {
	pool poolKey
	item int
}

// Runner holds a prepared matrix: every firmware built, every decode
// cache snapshotted, every job enumerated and resolved to its cell. Run
// may be called multiple times; the artifacts and the machines idle in
// the runner's Warm are reused.
type Runner struct {
	p         *core.Pipeline
	spec      BatchSpec // resolved (ResolveSpec) — the batch's canonical identity
	apps      []apps.App
	scenarios []attacks.Scenario
	items     []scenario.Generated // the generated dimension, in batch order
	defenses  []*core.DefenseSpec
	artifacts map[string]*artifact // keyed by kind/name (gen jobs: gen/victim)
	jobs      []Job
	cells     []cell // cells[i] is where jobs[i] runs
	workers   int

	// jobTimeout arms the per-job watchdog (see runJobSafe); each worker
	// reuses its own timer, touched only on the worker's goroutine.
	jobTimeout time.Duration
	watchdogs  []*time.Timer
	// beforeJob, when set, runs inside runJobOnce's recover before the
	// job touches a machine. Only this package's tests set it, to panic
	// or hang chosen jobs; a resume builds a new runner, so whatever it
	// injects is never carried across one.
	beforeJob func(job int)

	// warm is the runner's machine pool and artifact cache: private to
	// the runner (NewRunner) or shared across batches (NewRunnerWarm).
	// Every job checks a machine out of its cell's pool and back in; gen
	// tags the machines this runner checks in, so the cache can tell
	// cross-batch reuse from reuse within the batch.
	warm *Warm
	gen  uint64
	// noRecycle, set only by this package's tests, constructs a fresh
	// machine for every job and checks none in: the reference the
	// recycle differential suites compare pooled machines against.
	noRecycle bool
}

// NewRunner resolves the spec (ResolveSpec), builds all artifacts for
// the selected matrix (sequentially, so preparation is deterministic)
// and enumerates the jobs. The runner pools its machines in a private
// Warm.
func NewRunner(p *core.Pipeline, spec BatchSpec) (*Runner, error) {
	return NewRunnerWarm(p, spec, NewWarm())
}

// NewRunnerWarm is NewRunner backed by a Warm shared across batches:
// artifacts already in the cache are reused instead of rebuilt, fresh
// builds are published into it, and jobs check their machines out of
// its pools and back in. Results are byte-identical to a cold runner's
// — every reused machine is recycled to its sealed snapshot before a
// job touches it — which the warm differential suites pin.
func NewRunnerWarm(p *core.Pipeline, spec BatchSpec, warm *Warm) (*Runner, error) {
	spec, err := ResolveSpec(spec)
	if err != nil {
		return nil, err
	}
	r := &Runner{p: p, spec: spec, warm: warm, gen: warm.generation(), artifacts: map[string]*artifact{}, workers: spec.Exec.Workers}
	if r.workers <= 0 {
		r.workers = runtime.GOMAXPROCS(0)
	}
	r.watchdogs = make([]*time.Timer, r.workers)
	r.jobTimeout = spec.Exec.JobTimeout.Std()
	// The resolved matrix carries explicit, registry-validated name
	// lists; map them back to their registry objects.
	for _, name := range spec.Matrix.Defenses {
		d, err := core.DefenseByName(name)
		if err != nil {
			return nil, fmt.Errorf("fleet: %w", err)
		}
		r.defenses = append(r.defenses, d)
	}
	for _, n := range spec.Matrix.Apps {
		a, ok := apps.ByName(n)
		if !ok {
			return nil, fmt.Errorf("fleet: unknown application %q", n)
		}
		r.apps = append(r.apps, a)
	}
	if len(spec.Matrix.Scenarios) > 0 {
		byName := map[string]attacks.Scenario{}
		for _, s := range attacks.Scenarios() {
			byName[s.Name] = s
		}
		for _, n := range spec.Matrix.Scenarios {
			s, ok := byName[n]
			if !ok {
				return nil, fmt.Errorf("fleet: unknown scenario %q", n)
			}
			r.scenarios = append(r.scenarios, s)
		}
	}

	// Every row of the matrix resolves once to its artifact and its list
	// entry; the jobs cross the rows with the defense columns, per repeat.
	type row struct {
		job  Job // kind and name (generated rows: family and victim too)
		a    *artifact
		item int
	}
	var rows []row
	for i, app := range r.apps {
		a, err := r.prepare("app/"+app.Name, app.Name+".s", app.Source)
		if err != nil {
			return nil, fmt.Errorf("fleet: building %s: %w", app.Name, err)
		}
		rows = append(rows, row{Job{Kind: "app", Name: app.Name}, a, i})
	}
	for i, sc := range r.scenarios {
		a, err := r.prepare("attack/"+sc.Name, sc.Name+".s", sc.Source)
		if err != nil {
			return nil, fmt.Errorf("fleet: building %s: %w", sc.Name, err)
		}
		rows = append(rows, row{Job{Kind: "attack", Name: sc.Name}, a, i})
	}
	if spec.Matrix.Generated.Count > 0 {
		batch := scenario.Generate(spec.Matrix.Generated.Seed, spec.Matrix.Generated.Count)
		for _, v := range batch.Victims {
			if _, err := r.prepare("gen/"+v.Name, v.Name+".s", v.Source); err != nil {
				return nil, fmt.Errorf("fleet: building generated victim %s: %w", v.Name, err)
			}
		}
		r.items = batch.Items
		// Generated jobs share their victim's artifact: a thousand-item
		// batch runs on a dozen builds.
		for i, g := range batch.Items {
			job := Job{Kind: "gen", Name: g.Scenario.Name, Family: g.Family, Victim: g.Victim}
			rows = append(rows, row{job, r.artifacts["gen/"+g.Victim], i})
		}
	}
	for rep := 0; rep < spec.Matrix.Repeat; rep++ {
		for _, rw := range rows {
			for _, d := range r.defenses {
				job := rw.job
				job.Index, job.Defense, job.Repeat = len(r.jobs), d.Name, rep
				r.jobs = append(r.jobs, job)
				r.cells = append(r.cells, cell{pool: poolKey{a: rw.a, spec: d}, item: rw.item})
			}
		}
	}
	return r, nil
}

// prepare builds one firmware and snapshots its per-flavour decode
// caches from reference machines carrying the exact images the jobs
// will run, or takes the artifact from the Warm when it holds one for
// this source. Both flavours are snapshotted regardless of the selected
// defenses, so artifacts are identical whatever columns run.
func (r *Runner) prepare(key, file, source string) (*artifact, error) {
	if a, ok := r.artifacts[key]; ok {
		return a, nil
	}
	content := warmContentKey(file, source)
	a := r.warm.artifact(content)
	if a == nil {
		build, err := r.p.Build(file, source)
		if err != nil {
			return nil, err
		}
		a = &artifact{build: build}
		if a.preOrig, err = r.snapshot(build, core.DefenseBaseline); err != nil {
			return nil, err
		}
		if a.preInst, err = r.snapshot(build, core.DefenseEILID); err != nil {
			return nil, err
		}
		r.warm.putArtifact(content, a)
	}
	r.artifacts[key] = a
	return a, nil
}

// snapshot loads the build flavour a defense runs on a throwaway
// machine and returns the decode cache it predecoded. Installing the
// cache fused its block table too, during sequential preparation, so
// the first job to run this ROM pays for neither.
func (r *Runner) snapshot(build *core.BuildResult, flavour *core.DefenseSpec) (*isa.Predecoded, error) {
	m, err := attacks.TargetFor(r.p, build, flavour).NewMachine()
	if err != nil {
		return nil, err
	}
	return m.CPU.Predecoded(), nil
}

// Jobs returns the enumerated matrix in execution order.
func (r *Runner) Jobs() []Job { return append([]Job(nil), r.jobs...) }

// BuildFor returns the prepared build artifact for a matrix cell
// (kind "app" or "attack"), or nil when the name is not in the matrix.
// The artifact is the shared read-only product every job of that cell
// runs; callers must not mutate it.
func (r *Runner) BuildFor(kind, name string) *core.BuildResult {
	if a, ok := r.artifacts[kind+"/"+name]; ok {
		return a.build
	}
	return nil
}

// Workers returns the configured pool size.
func (r *Runner) Workers() int { return r.workers }

// Spec returns the runner's resolved BatchSpec — the canonical,
// serializable identity of the batch. It round-trips: NewRunner on the
// returned spec enumerates the identical job matrix.
func (r *Runner) Spec() BatchSpec { return r.spec }

// Run executes jobs on the worker pool and delivers each JobResult to
// emit (nil = discard) on the calling goroutine, in the order given, as
// soon as it and its predecessors complete. Nil indices runs every job;
// a resume passes the remainder of an interrupted batch. An index
// outside the matrix is an error before any job runs. A job's result
// depends neither on the worker count nor on which jobs ran beside it —
// job identity is (seed, index)-deterministic and machines recycle to
// sealed snapshots — so a resumed batch merges byte-identically into an
// uninterrupted one.
//
// The report carries the aggregate counters of the emitted jobs; the
// results are not retained. A failing or panicking job becomes a result
// with Err set rather than aborting the batch. Closing cancel stops
// dispatch: the in-flight jobs drain and emit, and Run returns
// interrupted=true. Every emitted result is final.
func (r *Runner) Run(indices []int, cancel <-chan struct{}, emit func(JobResult)) (rep *Report, interrupted bool, err error) {
	n := len(r.jobs)
	if indices != nil {
		for _, i := range indices {
			if i < 0 || i >= len(r.jobs) {
				return nil, false, fmt.Errorf("fleet: job index %d out of range [0, %d)", i, len(r.jobs))
			}
		}
		n = len(indices)
	}
	start := time.Now()
	rep = &Report{Workers: r.workers}
	_, interrupted = pool.Stream(n, r.workers, cancel, func(worker, k int) JobResult {
		if indices != nil {
			k = indices[k]
		}
		return r.runJobSafe(worker, k)
	}, func(_ int, jr JobResult) {
		rep.add(jr)
		if emit != nil {
			emit(jr)
		}
	})
	return rep.finish(time.Since(start)), interrupted, nil
}

// RunStream is Run over every job with no cancel; the benchmark module
// (benchmark/) calls it.
func (r *Runner) RunStream(emit func(JobResult)) (*Report, error) {
	rep, _, err := r.Run(nil, nil, emit)
	return rep, err
}

// runJobSafe is the fault boundary around one job: per-job watchdog
// and panic containment. Everything the runner executes goes through
// it, so a panicking or runaway job becomes a deterministic JobResult
// instead of a lost batch.
func (r *Runner) runJobSafe(worker, i int) JobResult {
	if r.jobTimeout <= 0 {
		return r.runJobOnce(i)
	}
	// The attempt runs on its own goroutine so the watchdog can abandon
	// it; the buffered channel lets a late attempt finish and exit
	// without a receiver. runJobOnce contains panics itself.
	done := make(chan JobResult, 1)
	go func() { done <- r.runJobOnce(i) }()
	t := r.watchdogs[worker]
	if t == nil {
		t = time.NewTimer(r.jobTimeout)
		r.watchdogs[worker] = t
	} else {
		t.Reset(r.jobTimeout)
	}
	select {
	case res := <-done:
		if !t.Stop() {
			<-t.C
		}
		return res
	case <-t.C:
		// The abandoned attempt keeps the machine it checked out; no
		// other job can reach it, and it returns to its pool only if
		// the attempt ever finishes.
		return JobResult{Job: r.jobs[i], Err: fmt.Sprintf("watchdog: job exceeded the %v wall-clock limit", r.jobTimeout)}
	}
}

// runJobOnce runs one job under recover: it checks a machine out of the
// job's pool, runs the job on it and checks it back in. A panic becomes
// a deterministic failure record (stable message, no stack addresses),
// drops the machine — its state is unknown — and the batch continues.
// The test hook fires before the job touches any machine.
func (r *Runner) runJobOnce(i int) (res JobResult) {
	defer func() {
		if v := recover(); v != nil {
			res = JobResult{Job: r.jobs[i], Err: fmt.Sprintf("panic: %v", v)}
		}
	}()
	if r.beforeJob != nil {
		r.beforeJob(i)
	}
	job, c := r.jobs[i], r.cells[i]
	m, err := r.checkout(c.pool)
	if err != nil {
		return JobResult{Job: job, Err: err.Error()}
	}
	switch job.Kind {
	case "app":
		res = r.runAppJob(m, job, r.apps[c.item])
	case "gen":
		res = r.runGenJob(m, job, c.pool, r.items[c.item])
	default:
		res = r.runAttackJob(m, job, c.pool, r.scenarios[c.item])
	}
	if !r.noRecycle {
		r.warm.checkin(c.pool, r.gen, m)
	}
	return res
}

// target is the attack target of a pool: its defense's build flavour
// with the shared per-ROM decode cache.
func (r *Runner) target(k poolKey) attacks.Target {
	t := attacks.TargetFor(r.p, k.a.build, k.spec)
	t.Predecoded = k.a.pre(k.spec)
	return t
}

// checkout hands a job a machine from its pool: an idle one recycled
// to its sealed snapshot, or a fresh construction sealed on the spot —
// through the same attacks.Target.NewMachine sequence ExecuteApp and
// one-shot scenario runs use, so pooled and one-shot machines cannot
// diverge.
func (r *Runner) checkout(k poolKey) (*core.Machine, error) {
	if !r.noRecycle {
		if m := r.warm.checkout(k, r.gen); m != nil {
			if err := m.Recycle(); err != nil {
				return nil, err
			}
			return m, nil
		}
	}
	m, err := r.target(k).NewMachine()
	if err != nil {
		return nil, err
	}
	m.Snapshot()
	return m, nil
}

// ExecuteApp runs one application build under the given defense on a
// fresh machine and returns the observable inspection plus the first
// reset reason (empty when none). pre optionally shares a decode cache
// built from the same image; nil snapshots a private one. A non-nil
// error with a non-nil inspection is a run error (e.g. cycle-budget
// exhaustion) after which the partial observables are still meaningful.
// This is the one app-run sequence both the fleet jobs and eval's
// Table IV measurement go through.
func ExecuteApp(p *core.Pipeline, app apps.App, build *core.BuildResult, spec *core.DefenseSpec, pre *isa.Predecoded) (*apps.Inspection, string, error) {
	t := attacks.TargetFor(p, build, spec)
	t.Predecoded = pre
	m, err := t.NewMachine()
	if err != nil {
		return nil, "", err
	}
	return ExecuteAppOn(m, app)
}

// ExecuteAppOn runs one application on a prepared machine — fresh from
// construction + firmware load, or recycled by the fleet's machine pool
// — feeding UART input, booting and running to the app's cycle budget.
func ExecuteAppOn(m *core.Machine, app apps.App) (*apps.Inspection, string, error) {
	if app.UARTInput != "" {
		m.UART.Feed([]byte(app.UARTInput))
	}
	m.Boot()
	run, runErr := m.Run(app.MaxCycles)
	insp := apps.Inspect(m, run)
	reason := ""
	if len(m.ResetReasons) > 0 {
		reason = m.ResetReasons[0].Kind.String()
	}
	return insp, reason, runErr
}

func (r *Runner) runAppJob(m *core.Machine, job Job, app apps.App) JobResult {
	res := JobResult{Job: job}
	insp, reason, err := ExecuteAppOn(m, app)
	if err != nil {
		res.Err = err.Error()
	}
	if insp == nil {
		return res
	}
	res.Cycles = insp.Cycles
	res.Insns = insp.Insns
	res.Halted = insp.Halted
	res.ExitCode = insp.ExitCode
	res.Resets = insp.Resets
	res.ReasonsRecorded = insp.ReasonsRecorded
	res.UART = insp.UART
	res.Reason = reason
	if err == nil {
		if chk := app.Check(insp); chk != nil {
			res.Err = fmt.Sprintf("behaviour check failed: %v", chk)
		} else {
			res.CheckOK = true
		}
	}
	return res
}

func (r *Runner) runAttackJob(m *core.Machine, job Job, k poolKey, sc attacks.Scenario) JobResult {
	res := JobResult{Job: job}
	o, err := attacks.ExecuteOn(m, r.target(k), sc)
	if err != nil {
		res.Err = err.Error()
		return res
	}
	res.fillOutcome(o)
	// The check depends on the defense column. The baseline must fall
	// (demonstrating the threat is real) and EILID — the paper's defense,
	// whose claims cover every handcrafted attack — must reset
	// un-compromised, for the reason the scenario declares. The
	// comparative defenses are allowed to miss: their detection or
	// compromise is the matrix cell itself, so the check only demands
	// architectural sanity (any reset reason must be one the defense can
	// emit).
	switch {
	case k.spec.New == nil:
		res.CheckOK = o.Compromised
	case k.spec.Name == core.DefenseEILID.Name:
		res.CheckOK = !o.Compromised && o.Resets > 0 && strings.Contains(o.Reason, sc.WantReason)
	default:
		res.CheckOK = o.Resets == 0 || k.spec.EmitsReason(o.Reason)
	}
	return res
}

// fillOutcome copies a scenario outcome's observables into the result.
func (res *JobResult) fillOutcome(o attacks.Outcome) {
	res.Cycles = o.Cycles
	res.Insns = o.Insns
	res.Halted = o.Halted
	res.ExitCode = o.ExitCode
	res.Resets = o.Resets
	res.ReasonsRecorded = o.ReasonsRecorded
	res.Reason = o.Reason
	res.UART = o.UART
	res.Compromised = o.Compromised
}

// runGenJob executes one generated scenario variant. The check is the
// generator's per-defense oracle (scenario.Generated.Check): EILID must
// uphold the paper's guarantee, the comparative defenses must only
// reset for reasons they can emit, and the baseline is recorded purely
// as a diagnostic — many generated variants are deliberate near-misses
// that fizzle everywhere.
func (r *Runner) runGenJob(m *core.Machine, job Job, k poolKey, g scenario.Generated) JobResult {
	res := JobResult{Job: job}
	o, err := attacks.ExecuteOn(m, r.target(k), g.Scenario)
	if err != nil {
		res.Err = err.Error()
		return res
	}
	res.fillOutcome(o)
	res.Oracle = g.Check(k.spec, o)
	res.CheckOK = res.Oracle == ""
	return res
}
