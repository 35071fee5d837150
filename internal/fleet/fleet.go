// Package fleet is the fleet-scale simulation subsystem: it executes a
// matrix of (application × defense × attack-scenario) jobs concurrently
// on independent core.Machine instances while sharing the expensive
// read-only build artifacts — each firmware is assembled and
// instrumented exactly once via core.Pipeline, and its predecoded
// instruction cache (core.PredecodeImages, from the images alone), which
// holds the fused basic blocks too, is built once per ROM and handed to
// every machine that runs it. Machines live in one pool per
// firmware and defense, in the runner's Warm: every job checks a
// machine out, recycled to its sealed snapshot, and checks it back in.
// Job results are aggregated deterministically in job order, so a run
// with eight workers is byte-identical to a sequential run of the same
// matrix.
//
// Runner.Run is the one scheduler of simulation batches: it starts one
// goroutine per worker, hands out jobs, emits their results in order
// and abandons a job that outruns the batch's job timeout. The
// cmd/eilid-fleet CLI, eilid-fleetd, the eilid-attack sweep and the
// repository benchmarks all sit on top of this package.
package fleet

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"eilid/internal/apps"
	"eilid/internal/attacks"
	"eilid/internal/core"
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

// artifact is the shared build product for one firmware: assembled
// images plus up to one decode cache per build flavour, one table that
// holds each cached address's decode and the basic block starting there
// (instrumented defenses share inst, all others orig — their memory
// contents are byte-identical). A flavour's cache is built the first
// time a runner that runs it prepares the artifact, and never changes
// after.
type artifact struct {
	build      *core.BuildResult
	orig, inst flavour
}

// flavour is one build flavour's decode cache, built at most once from
// the images a machine of the flavour's reference defense holds.
type flavour struct {
	once sync.Once
	pre  *isa.Predecoded
}

// flavour returns the slot of a defense's build flavour and the defense
// its cache is predecoded under: eilid for the instrumented build,
// baseline for the original one.
func (a *artifact) flavour(spec *core.DefenseSpec) (*flavour, *core.DefenseSpec) {
	if spec.Instrumented {
		return &a.inst, core.DefenseEILID
	}
	return &a.orig, core.DefenseBaseline
}

// pre returns the decode cache for a defense's build flavour. The
// runner's prepare built it before any of the runner's jobs started.
func (a *artifact) pre(spec *core.DefenseSpec) *isa.Predecoded {
	f, _ := a.flavour(spec)
	return f.pre
}

// cell is what a job resolves to when NewRunnerWarm enumerates it: the
// machine pool it runs in (its build under its defense) and its entry
// in the runner's app, scenario or generated list.
type cell struct {
	pool poolKey
	item int
}

// Runner holds a prepared matrix: every firmware built, the decode cache
// of every build flavour its columns run snapshotted, every job
// enumerated and resolved to its cell. Run may be called multiple
// times; the artifacts and the machines idle in the runner's Warm are
// reused.
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

	// jobTimeout is the wall-clock limit past which Run abandons a job
	// (0 = none).
	jobTimeout time.Duration
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
	n := spec.Matrix.Repeat * len(rows) * len(r.defenses)
	r.jobs, r.cells = make([]Job, 0, n), make([]cell, 0, n)
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

// prepare builds one firmware, or takes the artifact from the Warm when
// it holds one for this source, and makes sure the artifact carries the
// decode cache of every build flavour the runner's defenses run: a
// baseline-only batch never builds the instrumented cache, and an
// eilid-only batch never builds the original one. A flavour missing
// from a warm artifact is built here, once, whichever of the runners
// sharing the Warm gets there first; the others wait for it. Each cache
// is predecoded straight from the exact images the jobs' machines will
// hold (attacks.Target.Predecode), blocks fused, during sequential
// preparation, so the first job to run this ROM pays for neither.
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
		a = r.warm.putArtifact(content, &artifact{build: build})
	}
	for _, d := range r.defenses {
		f, ref := a.flavour(d)
		f.once.Do(func() { f.pre = attacks.TargetFor(r.p, a.build, ref).Predecode() })
	}
	r.artifacts[key] = a
	return a, nil
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

// Run executes jobs and delivers each JobResult to emit (nil = discard)
// on the calling goroutine, in the order given, as soon as it and its
// predecessors complete. Nil indices runs every job; a resume passes the
// remainder of an interrupted batch. An index outside the matrix is an
// error before any job runs. A job's result depends neither on the
// worker count nor on which jobs ran beside it — job identity is
// (seed, index)-deterministic and machines recycle to sealed snapshots
// — so a resumed batch merges byte-identically into an uninterrupted
// one.
//
// Run is the one place job goroutines start. It starts min(workers, n)
// workers (at least one), each running one job at a time, and the
// calling goroutine alone schedules them. It hands out job positions
// at most 2×workers past the last emitted one, so a batch streams in
// O(workers) memory however slow an early job is. A single worker gets
// one position at a time: it runs its jobs one after another, as a
// sequential run does, and a cancel closed by emit stops the next one.
// Run is also the watchdog: a job running longer than the batch's
// job_timeout is recorded as a watchdog failure at its place in the
// order, and a replacement worker takes its worker's place. The
// abandoned worker keeps the machine it checked out, which no other
// job can reach; it checks the machine back in and exits only if its
// job ever returns, and Run never waits for it. A job that returns past
// its timeout before the watchdog looked is recorded the same way by
// its own worker, so whether a job that ran too long is a watchdog
// failure does not depend on when the watchdog wakes.
//
// The report carries the aggregate counters of the emitted jobs; the
// results are not retained. A failing or panicking job becomes a result
// with Err set rather than aborting the batch. Closing cancel stops
// dispatch: the jobs already handed out run and emit, and Run returns
// interrupted=true. Every emitted result is final. emit must not panic.
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

	workers := max(min(r.workers, n), 1)
	window := 2 * workers
	if workers == 1 {
		window = 1
	}
	// slots[pos%window] is the attempt at a handed-out, unemitted
	// position. Both channels hold a whole window, so neither Run nor a
	// worker ever waits to hand one over.
	slots := make([]*attempt, window)
	todo := make(chan *attempt, window)
	done := make(chan *attempt, window)
	defer close(todo)
	for w := 0; w < workers; w++ {
		go r.work(todo, done)
	}
	var (
		next, emitted int
		stopped       bool
		watchdog      *time.Timer
		armed         bool
	)
	for {
		for emitted < next && slots[emitted%window].ready {
			a := slots[emitted%window]
			slots[emitted%window] = nil
			emitted++
			rep.add(a.res)
			if emit != nil {
				emit(a.res)
			}
		}
		// Cancel stops hand-outs, and every hand-out is preceded by
		// this check.
		select {
		case <-cancel:
			stopped = true
		default:
		}
		if emitted == next && (stopped || next == n) {
			break
		}
		if !stopped && next < n && next < emitted+window {
			a := &attempt{job: next}
			if indices != nil {
				a.job = indices[next]
			}
			slots[next%window] = a
			next++
			todo <- a
			continue
		}
		if r.jobTimeout > 0 && !armed {
			if d, ok := r.watchdogDue(slots, emitted, next); ok {
				if watchdog == nil {
					watchdog = time.NewTimer(d)
				} else {
					watchdog.Reset(d)
				}
				armed = true
			}
		}
		var fired <-chan time.Time
		if armed {
			fired = watchdog.C
		}
		select {
		case a := <-done:
			a.ready = true
		case <-fired:
			armed = false
			now := monotonic()
			for pos := emitted; pos < next; pos++ {
				a := slots[pos%window]
				if at := time.Duration(a.started.Load()); at == 0 || now-at < r.jobTimeout {
					continue
				}
				if a.claimed.CompareAndSwap(false, true) {
					a.res = r.watchdogRecord(a.job)
					a.ready = true
					go r.work(todo, done)
				}
			}
		}
	}
	if watchdog != nil {
		watchdog.Stop()
	}
	return rep.finish(time.Since(start)), emitted < n, nil
}

// RunStream is Run over every job with no cancel; the benchmark module
// (benchmark/) calls it.
func (r *Runner) RunStream(emit func(JobResult)) (*Report, error) {
	rep, _, err := r.Run(nil, nil, emit)
	return rep, err
}

// attempt is one job position handed to Run's workers. The worker
// finishing it and the watchdog abandoning it race to claim it, and
// exactly one wins: only a worker that claims its attempt reports it,
// and an abandoned attempt's result is the watchdog's record.
type attempt struct {
	job     int
	started atomic.Int64 // monotonic() when a worker took it; 0 while queued
	claimed atomic.Bool
	res     JobResult // written by whoever claimed the attempt
	ready   bool      // res is final; Run's goroutine only
}

// epoch anchors monotonic.
var epoch = time.Now()

// monotonic reads the monotonic clock as a Duration since epoch, so an
// attempt's start fits one atomic word.
func monotonic() time.Duration { return time.Since(epoch) }

// watchdogDue returns how long the watchdog may sleep before a job
// among positions [from, to) that nobody has claimed can first pass
// the job timeout, or false when no such job is out. A job still
// queued starts no earlier than now.
func (r *Runner) watchdogDue(slots []*attempt, from, to int) (time.Duration, bool) {
	now := monotonic()
	first, ok := now, false
	for pos := from; pos < to; pos++ {
		a := slots[pos%len(slots)]
		if a.claimed.Load() {
			continue
		}
		if at := time.Duration(a.started.Load()); at != 0 && at < first {
			first = at
		}
		ok = true
	}
	return first + r.jobTimeout - now, ok
}

// work is one of Run's workers: it runs the attempts handed out, one at
// a time, until todo closes, or until it loses a claim to the watchdog
// and leaves its place to a replacement.
func (r *Runner) work(todo <-chan *attempt, done chan<- *attempt) {
	for a := range todo {
		start := monotonic()
		a.started.Store(int64(start))
		res := r.runJobOnce(a.job)
		if !a.claimed.CompareAndSwap(false, true) {
			return
		}
		if r.jobTimeout > 0 && monotonic()-start >= r.jobTimeout {
			res = r.watchdogRecord(a.job)
		}
		a.res = res
		done <- a
	}
}

// watchdogRecord is the result of a job that ran past the job timeout.
func (r *Runner) watchdogRecord(job int) JobResult {
	return JobResult{Job: r.jobs[job], Err: fmt.Sprintf("watchdog: job exceeded the %v wall-clock limit", r.jobTimeout)}
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
// fresh machine with a private decode cache and returns the observable
// inspection plus the first reset reason (empty when none). A non-nil
// error with a non-nil inspection is a run error (e.g. cycle-budget
// exhaustion) after which the partial observables are still meaningful.
// It is eval's Table IV measurement; the fleet jobs run the same
// sequence on pooled machines through ExecuteAppOn.
func ExecuteApp(p *core.Pipeline, app apps.App, build *core.BuildResult, spec *core.DefenseSpec) (*apps.Inspection, string, error) {
	m, err := attacks.TargetFor(p, build, spec).NewMachine()
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
