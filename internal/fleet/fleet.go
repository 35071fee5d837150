// Package fleet is the fleet-scale simulation subsystem: it executes a
// matrix of (application × defense × attack-scenario) jobs concurrently
// on independent core.Machine instances while sharing the expensive
// read-only build artifacts — each firmware is assembled and
// instrumented exactly once via core.Pipeline, and its predecoded
// instruction cache (core.Machine.EnablePredecode) and fused
// basic-block table (isa.Predecoded.Blocks) are built once per ROM and
// handed to every machine that runs it. Job results are
// aggregated deterministically in job order, so a run with eight
// workers is byte-identical to a sequential run of the same matrix.
//
// The cmd/eilid-fleet CLI, the eval/attacks sweeps and the repository
// benchmarks all sit on top of this package; it is the substrate for
// scaling the simulator to large scenario matrices.
package fleet

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"eilid/internal/apps"
	"eilid/internal/asm"
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
	// warmKey content-addresses the artifact (sha256 of its assembly
	// source) for the cross-batch Warm cache; empty outside warm runs.
	warmKey string
}

// pre returns the decode cache for a defense's build flavour.
func (a *artifact) pre(spec *core.DefenseSpec) *isa.Predecoded {
	if spec.Instrumented {
		return a.preInst
	}
	return a.preOrig
}

// Runner holds a prepared matrix: every firmware built, every decode
// cache snapshotted, every job enumerated. Run may be called multiple
// times; the artifacts — and, when recycling, the pooled machines —
// are reused.
type Runner struct {
	p         *core.Pipeline
	spec      BatchSpec // resolved (ResolveSpec) — the batch's canonical identity
	apps      []apps.App
	scenarios []attacks.Scenario
	defenses  []*core.DefenseSpec
	specOf    map[string]*core.DefenseSpec // defense name → spec
	artifacts map[string]*artifact         // keyed by kind/name (gen jobs: gen/victim)
	generated map[string]scenario.Generated
	jobs      []Job
	workers   int
	repeat    int

	// jobTimeout arms the per-job watchdog (see runJobSafe).
	jobTimeout time.Duration
	// beforeJob, when set, runs inside runJobOnce's recover before the
	// job touches a machine. Only this package's tests set it, to panic
	// or hang chosen jobs; a resume builds a new runner, so whatever it
	// injects is never carried across one.
	beforeJob func(job int)

	// warm is the optional cross-batch cache (NewRunnerWarm): prepare
	// consults it before building, machineFor before constructing, and
	// ReleaseMachines returns the pooled machines to it when the batch
	// is over. Nil for ordinary single-batch runners.
	warm *Warm

	// The pool keeps one fully constructed machine per worker per matrix
	// cell and recycles it between jobs instead of paying NewMachine +
	// firmware load per job. worker[w] is owned by worker w, and every
	// attempt borrows the worker's current machinePool handle; the mutex
	// guards only that handle, so the watchdog can swap it out and leave
	// an abandoned runaway attempt as the sole owner of its machines.
	// Machine state never leaks between jobs because Recycle restores
	// the sealed snapshot — the recycle differential suites pin
	// byte-identical JobResults against noRecycle, set only by this
	// package's tests, which constructs a fresh machine per job.
	noRecycle bool
	worker    []workerState
}

// workerState is one worker's machine-pool handle plus its reusable
// watchdog timer (the timer is touched only on the worker goroutine).
type workerState struct {
	mu       sync.Mutex
	pool     *machinePool
	watchdog *time.Timer
}

// machinePool is owned by exactly one job attempt at a time: attempts
// of a worker borrow it sequentially, and when the watchdog abandons a
// runaway attempt the handle is replaced, so the runaway keeps (only)
// its own machines and later jobs never share one with it.
type machinePool struct {
	machines map[string]pooledMachine // kind/name/defense → machine
}

// pooledMachine pairs a pooled machine with the content-addressed key
// ReleaseMachines files it under in the warm cache (empty when the
// runner has none).
type pooledMachine struct {
	m       *core.Machine
	warmKey string
}

// attemptPool hands the next job attempt the worker's current pool,
// creating a fresh one after a watchdog abandonment.
func (r *Runner) attemptPool(worker int) *machinePool {
	st := &r.worker[worker]
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.pool == nil {
		st.pool = &machinePool{machines: map[string]pooledMachine{}}
	}
	return st.pool
}

// NewRunner resolves the spec (ResolveSpec), builds all artifacts for
// the selected matrix (sequentially, so preparation is deterministic)
// and enumerates the jobs.
func NewRunner(p *core.Pipeline, spec BatchSpec) (*Runner, error) {
	return NewRunnerWarm(p, spec, nil)
}

// NewRunnerWarm is NewRunner backed by a cross-batch warm cache:
// artifacts already in the cache are reused instead of rebuilt, fresh
// builds are published into it, and machineFor checks out idle warm
// machines before constructing new ones. Results are byte-identical to
// a cold runner's — every reused machine is recycled to its sealed
// snapshot before a job touches it — which the warm differential
// suites pin. Call ReleaseMachines when the batch is done to return
// the pooled machines for the next batch.
func NewRunnerWarm(p *core.Pipeline, spec BatchSpec, warm *Warm) (*Runner, error) {
	spec, err := ResolveSpec(spec)
	if err != nil {
		return nil, err
	}
	r := &Runner{p: p, spec: spec, warm: warm, artifacts: map[string]*artifact{}, workers: spec.Exec.Workers}
	if r.workers <= 0 {
		r.workers = runtime.GOMAXPROCS(0)
	}
	r.worker = make([]workerState, r.workers)
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
	r.specOf = make(map[string]*core.DefenseSpec, len(r.defenses))
	for _, d := range r.defenses {
		r.specOf[d.Name] = d
	}
	r.repeat = spec.Matrix.Repeat
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

	for _, app := range r.apps {
		if _, err := r.prepare("app/"+app.Name, app.Name+".s", app.Source); err != nil {
			return nil, fmt.Errorf("fleet: building %s: %w", app.Name, err)
		}
	}
	for _, sc := range r.scenarios {
		if _, err := r.prepare("attack/"+sc.Name, sc.Name+".s", sc.Source); err != nil {
			return nil, fmt.Errorf("fleet: building %s: %w", sc.Name, err)
		}
	}
	var genItems []scenario.Generated
	if spec.Matrix.Generated.Count > 0 {
		batch := scenario.Generate(spec.Matrix.Generated.Seed, spec.Matrix.Generated.Count)
		for _, v := range batch.Victims {
			if _, err := r.prepare("gen/"+v.Name, v.Name+".s", v.Source); err != nil {
				return nil, fmt.Errorf("fleet: building generated victim %s: %w", v.Name, err)
			}
		}
		genItems = batch.Items
		r.generated = make(map[string]scenario.Generated, len(batch.Items))
		for _, g := range batch.Items {
			r.generated[g.Scenario.Name] = g
		}
	}

	for rep := 0; rep < r.repeat; rep++ {
		for _, app := range r.apps {
			for _, d := range r.defenses {
				r.jobs = append(r.jobs, Job{
					Index: len(r.jobs), Kind: "app", Name: app.Name, Defense: d.Name, Repeat: rep,
				})
			}
		}
		for _, sc := range r.scenarios {
			for _, d := range r.defenses {
				r.jobs = append(r.jobs, Job{
					Index: len(r.jobs), Kind: "attack", Name: sc.Name, Defense: d.Name, Repeat: rep,
				})
			}
		}
		for _, g := range genItems {
			for _, d := range r.defenses {
				r.jobs = append(r.jobs, Job{
					Index: len(r.jobs), Kind: "gen", Name: g.Scenario.Name,
					Family: g.Family, Victim: g.Victim, Defense: d.Name, Repeat: rep,
				})
			}
		}
	}
	return r, nil
}

// Defenses returns the selected defense columns in matrix order.
func (r *Runner) Defenses() []*core.DefenseSpec {
	return append([]*core.DefenseSpec(nil), r.defenses...)
}

// prepare builds one firmware and snapshots its per-flavour decode
// caches from reference machines carrying the exact images the jobs
// will run. Both flavours are snapshotted regardless of the selected
// defenses, so artifacts are identical whatever columns run.
func (r *Runner) prepare(key, file, source string) (*artifact, error) {
	if a, ok := r.artifacts[key]; ok {
		return a, nil
	}
	if r.warm != nil {
		if a := r.warm.artifact(file, source); a != nil {
			r.artifacts[key] = a
			return a, nil
		}
	}
	build, err := r.p.Build(file, source)
	if err != nil {
		return nil, err
	}
	a := &artifact{build: build}
	if a.preOrig, err = r.snapshot(build.Original.Image, false); err != nil {
		return nil, err
	}
	if a.preInst, err = r.snapshot(build.Instrumented.Image, true); err != nil {
		return nil, err
	}
	if r.warm != nil {
		a.warmKey = warmContentKey(file, source)
		r.warm.putArtifact(a)
	}
	r.artifacts[key] = a
	return a, nil
}

// snapshot loads img on a throwaway machine of the given build flavour
// and predecodes its fetchable memory.
func (r *Runner) snapshot(img *asm.Image, instrumented bool) (*isa.Predecoded, error) {
	opts := core.MachineOptions{Config: r.p.Config()}
	if instrumented {
		opts.ROM = r.p.ROM()
		opts.Defense = core.DefenseEILID
	}
	m, err := core.NewMachine(opts)
	if err != nil {
		return nil, err
	}
	if err := img.WriteTo(m.Space); err != nil {
		return nil, err
	}
	pre := m.EnablePredecode()
	// Fuse the basic-block table now, during sequential preparation, so
	// the first job to run this ROM does not pay for it and every
	// machine shares the one per-ROM table.
	pre.Blocks()
	return pre, nil
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

// Run executes the matrix on the worker pool and aggregates the report.
// Per-job failures — including panics, which the fault boundary turns
// into deterministic failure records — are recorded in the job's Err
// field rather than aborting the fleet: one wild scenario must not sink
// the batch.
func (r *Runner) Run() (*Report, error) {
	start := time.Now()
	results := pool.DoIndexed(len(r.jobs), r.workers, r.runJobSafe)
	return Aggregate(results, r.workers, time.Since(start)), nil
}

// RunSequential executes the same matrix on one worker — the reference
// ordering for determinism checks.
func (r *Runner) RunSequential() (*Report, error) {
	start := time.Now()
	results := pool.DoIndexed(len(r.jobs), 1, r.runJobSafe)
	return Aggregate(results, 1, time.Since(start)), nil
}

// RunStream executes the matrix and delivers every JobResult to emit —
// in job order, on the calling goroutine, as soon as it and its
// predecessors complete — without retaining the per-job results in
// memory. The returned report carries only the aggregate counters
// (Results is nil); because emission is in job order, the stream is as
// deterministic as Run's results array.
func (r *Runner) RunStream(emit func(JobResult)) (*Report, error) {
	rep, _, err := r.RunStreamCancel(nil, emit)
	return rep, err
}

// RunStreamCancel is RunStream with graceful shutdown: when cancel is
// closed, dispatch stops, the in-flight jobs drain and emit, and the
// call returns interrupted=true with the partial aggregate. Every
// emitted result is final — exactly what a journal needs to make the
// batch resumable.
func (r *Runner) RunStreamCancel(cancel <-chan struct{}, emit func(JobResult)) (rep *Report, interrupted bool, err error) {
	start := time.Now()
	rep = &Report{Workers: r.workers}
	_, interrupted = pool.StreamIndexedCancel(len(r.jobs), r.workers, cancel, r.runJobSafe, func(_ int, jr JobResult) {
		rep.add(jr)
		if emit != nil {
			emit(jr)
		}
	})
	return rep.finish(time.Since(start)), interrupted, nil
}

// RunIndices executes only the named jobs (the remainder of an
// interrupted batch, in ascending order) and streams their results to
// emit as each completes. Results are identical to the same jobs' slice
// of a full run: job identity is (seed, index)-deterministic and
// machines recycle to sealed snapshots, so a resumed batch merges
// byte-identically into an uninterrupted one.
func (r *Runner) RunIndices(indices []int, cancel <-chan struct{}, emit func(JobResult)) (interrupted bool, err error) {
	for _, i := range indices {
		if i < 0 || i >= len(r.jobs) {
			return false, fmt.Errorf("fleet: resume index %d out of range [0, %d)", i, len(r.jobs))
		}
	}
	_, interrupted = pool.StreamIndexedCancel(len(indices), r.workers, cancel,
		func(worker, k int) JobResult { return r.runJobSafe(worker, indices[k]) },
		func(_ int, jr JobResult) {
			if emit != nil {
				emit(jr)
			}
		})
	return interrupted, nil
}

// runJobSafe is the fault boundary around one job: per-job watchdog
// and panic containment. Everything the runner executes goes through
// it, so a panicking or runaway job becomes a deterministic JobResult
// instead of a lost batch.
func (r *Runner) runJobSafe(worker, i int) JobResult {
	mp := r.attemptPool(worker)
	if r.jobTimeout <= 0 {
		return r.runJobOnce(mp, i)
	}
	// The attempt runs on its own goroutine so the watchdog can abandon
	// it; the buffered channel lets a late attempt finish and exit
	// without a receiver. runJobOnce contains panics itself.
	done := make(chan JobResult, 1)
	go func() { done <- r.runJobOnce(mp, i) }()
	st := &r.worker[worker]
	t := st.watchdog
	if t == nil {
		t = time.NewTimer(r.jobTimeout)
		st.watchdog = t
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
		// The attempt goroutine may still be mutating the machines in
		// mp; swap the worker's handle so no later job shares one with
		// it. The runaway goroutine keeps (only) its own pool and exits
		// whenever (if ever) the attempt returns.
		st.mu.Lock()
		st.pool = nil
		st.mu.Unlock()
		res := JobResult{Job: r.jobs[i]}
		res.Err = fmt.Sprintf("watchdog: job exceeded the %v wall-clock limit", r.jobTimeout)
		return res
	}
}

// runJobOnce runs one job under recover: a panic becomes a
// deterministic failure record (stable message, no stack addresses)
// and the batch continues. The test hook fires before the job touches
// any machine.
func (r *Runner) runJobOnce(mp *machinePool, i int) (res JobResult) {
	defer func() {
		if v := recover(); v != nil {
			res = JobResult{Job: r.jobs[i]}
			res.Err = fmt.Sprintf("panic: %v", v)
		}
	}()
	if r.beforeJob != nil {
		r.beforeJob(i)
	}
	return r.runJob(mp, i)
}

func (r *Runner) runJob(mp *machinePool, i int) JobResult {
	job := r.jobs[i]
	switch job.Kind {
	case "app":
		return r.runAppJob(mp, job)
	case "gen":
		return r.runGenJob(mp, job)
	default:
		return r.runAttackJob(mp, job)
	}
}

// newMachine constructs a fresh, fully loaded machine for one matrix
// cell — defense wiring, firmware image, shared per-ROM decode cache —
// through the same attacks.Target.NewMachine sequence the standalone
// scenario path uses, so pooled and one-shot machines cannot diverge.
func (r *Runner) newMachine(a *artifact, spec *core.DefenseSpec) (*core.Machine, error) {
	t := attacks.TargetFor(r.p, a.build, spec)
	t.Predecoded = a.pre(spec)
	return t.NewMachine()
}

// artifactKey locates a job's shared build: generated jobs share their
// victim's artifact (a thousand-item batch runs on a dozen builds),
// everything else builds per name.
func artifactKey(job Job) string {
	if job.Kind == "gen" {
		return "gen/" + job.Victim
	}
	return job.Kind + "/" + job.Name
}

// machineFor hands the attempt a machine for the cell: its borrowed
// pool's, recycled back to the sealed snapshot, or — on the cell's
// first job in this pool, or with recycling off — a fresh build.
// Machines are pooled per (artifact, defense): a defense monitor is
// stateful hardware, never shared across columns. mp is exclusively
// owned by the calling attempt, so no locking is needed here.
func (r *Runner) machineFor(mp *machinePool, job Job) (*core.Machine, error) {
	a := r.artifacts[artifactKey(job)]
	if a == nil {
		return nil, fmt.Errorf("fleet: no artifact for %s", artifactKey(job))
	}
	spec := r.specOf[job.Defense]
	if spec == nil {
		return nil, fmt.Errorf("fleet: job %d names unselected defense %q", job.Index, job.Defense)
	}
	if r.noRecycle {
		return r.newMachine(a, spec)
	}
	key := artifactKey(job) + "/" + job.Defense
	if pm, ok := mp.machines[key]; ok {
		if err := pm.m.Recycle(); err != nil {
			return nil, err
		}
		return pm.m, nil
	}
	// Before constructing, try the cross-batch warm cache: an idle
	// machine from an earlier batch of the same (artifact, defense)
	// cell recycles to its sealed snapshot exactly like an in-batch
	// pool hit does.
	var warmKey string
	if r.warm != nil && a.warmKey != "" {
		warmKey = a.warmKey + "/" + job.Defense
		if m := r.warm.takeMachine(warmKey); m != nil {
			if err := m.Recycle(); err != nil {
				return nil, err
			}
			mp.machines[key] = pooledMachine{m: m, warmKey: warmKey}
			return m, nil
		}
	}
	m, err := r.newMachine(a, spec)
	if err != nil {
		return nil, err
	}
	m.Snapshot()
	mp.machines[key] = pooledMachine{m: m, warmKey: warmKey}
	return m, nil
}

// ReleaseMachines moves every machine still held by the runner's
// worker pools into the warm cache, leaving the runner's pools empty.
// Call it only after the batch has fully drained (no attempt running);
// machines the per-job watchdog abandoned were already detached from
// the worker pools, so they are never released — their runaway attempt
// keeps sole ownership. No-op without a warm cache or with recycling
// off.
func (r *Runner) ReleaseMachines() {
	if r.warm == nil || r.noRecycle {
		return
	}
	for i := range r.worker {
		st := &r.worker[i]
		st.mu.Lock()
		mp := st.pool
		st.pool = nil
		st.mu.Unlock()
		if mp == nil {
			continue
		}
		for _, pm := range mp.machines {
			if pm.warmKey != "" {
				r.warm.putMachine(pm.warmKey, pm.m)
			}
		}
	}
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
	if spec == nil {
		spec = core.DefenseBaseline
	}
	opts := core.MachineOptions{Config: p.Config(), Defense: spec}
	img := build.Original.Image
	if spec.Instrumented {
		opts.ROM = p.ROM()
		img = build.Instrumented.Image
	}
	m, err := core.NewMachine(opts)
	if err != nil {
		return nil, "", err
	}
	if err := m.LoadFirmware(img); err != nil {
		return nil, "", err
	}
	if pre != nil {
		m.UsePredecoded(pre)
	} else {
		m.EnablePredecode()
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

func (r *Runner) runAppJob(mp *machinePool, job Job) JobResult {
	res := JobResult{Job: job}
	app, ok := apps.ByName(job.Name)
	if !ok {
		res.Err = fmt.Sprintf("unknown app %q", job.Name)
		return res
	}
	m, err := r.machineFor(mp, job)
	if err != nil {
		res.Err = err.Error()
		return res
	}
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

func (r *Runner) runAttackJob(mp *machinePool, job Job) JobResult {
	res := JobResult{Job: job}
	var sc attacks.Scenario
	found := false
	for _, s := range r.scenarios {
		if s.Name == job.Name {
			sc, found = s, true
			break
		}
	}
	if !found {
		res.Err = fmt.Sprintf("unknown scenario %q", job.Name)
		return res
	}
	o, err := r.executeScenario(mp, job, sc)
	if err != nil {
		res.Err = err.Error()
		return res
	}
	res.fillOutcome(o)
	// The check depends on the defense column. The baseline must fall
	// (demonstrating the threat is real) and EILID — the paper's defense,
	// whose claims cover every handcrafted attack — must reset
	// un-compromised. The comparative defenses are allowed to miss: their
	// detection or compromise is the matrix cell itself, so the check
	// only demands architectural sanity (any reset reason must be one the
	// defense can emit).
	spec := r.specOf[job.Defense]
	switch {
	case spec.New == nil:
		res.CheckOK = o.Compromised
	case spec.Name == core.DefenseEILID.Name:
		res.CheckOK = !o.Compromised && o.Resets > 0
	default:
		res.CheckOK = o.Resets == 0 || spec.EmitsReason(o.Reason)
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

// executeScenario runs a scenario for the job's matrix cell: shared
// build artifact, defense target with the per-ROM decode cache, pooled
// (or fresh) machine. Handcrafted attack jobs and generated jobs both
// go through it, so the two kinds cannot diverge in target preparation
// or machine lifecycle.
func (r *Runner) executeScenario(mp *machinePool, job Job, sc attacks.Scenario) (attacks.Outcome, error) {
	a := r.artifacts[artifactKey(job)]
	if a == nil {
		return attacks.Outcome{}, fmt.Errorf("no artifact for %s", artifactKey(job))
	}
	spec := r.specOf[job.Defense]
	if spec == nil {
		return attacks.Outcome{}, fmt.Errorf("job %d names unselected defense %q", job.Index, job.Defense)
	}
	t := attacks.TargetFor(r.p, a.build, spec)
	t.Predecoded = a.pre(spec)

	m, err := r.machineFor(mp, job)
	if err != nil {
		return attacks.Outcome{}, err
	}
	return attacks.ExecuteOn(m, t, sc)
}

// runGenJob executes one generated scenario variant. The check is the
// generator's per-defense oracle (scenario.Generated.Check): EILID must
// uphold the paper's guarantee, the comparative defenses must only
// reset for reasons they can emit, and the baseline is recorded purely
// as a diagnostic — many generated variants are deliberate near-misses
// that fizzle everywhere.
func (r *Runner) runGenJob(mp *machinePool, job Job) JobResult {
	res := JobResult{Job: job}
	g, ok := r.generated[job.Name]
	if !ok {
		res.Err = fmt.Sprintf("unknown generated scenario %q", job.Name)
		return res
	}
	o, err := r.executeScenario(mp, job, g.Scenario)
	if err != nil {
		res.Err = err.Error()
		return res
	}
	res.fillOutcome(o)
	res.Oracle = g.Check(r.specOf[job.Defense], o)
	res.CheckOK = res.Oracle == ""
	return res
}
