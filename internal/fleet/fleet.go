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
// goroutine per worker, whose workers claim their jobs in order
// themselves and emit the finished results in order, one of them at a
// time; the calling goroutine sleeps until the batch ends and is the
// watchdog, abandoning a job that outruns the batch's job timeout. The
// cmd/eilid-fleet CLI, eilid-fleetd, the eilid-attack sweep and the
// repository benchmarks all sit on top of this package.
package fleet

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
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
// machine pool it runs in (its build under its defense), that pool's
// number in the runner and its entry in the runner's app, scenario or
// generated list.
type cell struct {
	pool poolKey
	id   int32
	item int32
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
	pools     int    // the cells' pool numbers are [0, pools)
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

	// Every row of the matrix resolves once to its artifact, its list
	// entry and its pools; the jobs cross the rows with the defense
	// columns, per repeat. The pools are numbered densely as the rows and
	// columns are enumerated: an artifact's pools get the next
	// len(defenses) numbers the first time a row runs it, one per column.
	type row struct {
		job  Job // kind and name (generated rows: family and victim too)
		a    *artifact
		item int
		pool int // the number of its pool in the first column
	}
	var rows []row
	pools := map[*artifact]int{}
	addRow := func(job Job, a *artifact, item int) {
		pool, ok := pools[a]
		if !ok {
			pool = len(pools) * len(r.defenses)
			pools[a] = pool
		}
		rows = append(rows, row{job, a, item, pool})
	}
	for i, app := range r.apps {
		a, err := r.prepare("app/"+app.Name, app.Name+".s", app.Source)
		if err != nil {
			return nil, fmt.Errorf("fleet: building %s: %w", app.Name, err)
		}
		addRow(Job{Kind: "app", Name: app.Name}, a, i)
	}
	for i, sc := range r.scenarios {
		a, err := r.prepare("attack/"+sc.Name, sc.Name+".s", sc.Source)
		if err != nil {
			return nil, fmt.Errorf("fleet: building %s: %w", sc.Name, err)
		}
		addRow(Job{Kind: "attack", Name: sc.Name}, a, i)
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
			addRow(Job{Kind: "gen", Name: g.Scenario.Name, Family: g.Family, Victim: g.Victim}, r.artifacts["gen/"+g.Victim], i)
		}
	}
	r.pools = len(pools) * len(r.defenses)
	n := spec.Matrix.Repeat * len(rows) * len(r.defenses)
	r.jobs, r.cells = make([]Job, 0, n), make([]cell, 0, n)
	for rep := 0; rep < spec.Matrix.Repeat; rep++ {
		for _, rw := range rows {
			for k, d := range r.defenses {
				job := rw.job
				job.Index, job.Defense, job.Repeat = len(r.jobs), d.Name, rep
				r.jobs = append(r.jobs, job)
				r.cells = append(r.cells, cell{pool: poolKey{a: rw.a, spec: d}, id: int32(rw.pool + k), item: int32(rw.item)})
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
// in the order given, as soon as it and its predecessors complete. Nil
// indices runs every job; a resume passes the remainder of an
// interrupted batch. An index outside the matrix is an error before any
// job runs. A job's result depends neither on the worker count nor on
// which jobs ran beside it — job identity is (seed, index)-deterministic
// and machines recycle to sealed snapshots — so a resumed batch merges
// byte-identically into an uninterrupted one.
//
// emit is called once per position, in order and one call at a time,
// and every call returns before Run does, so emit may keep unguarded
// state that the caller reads once Run returns. It is not called on the
// calling goroutine, bar the results a watchdog record frees: the
// workers call it, so it must not panic or call runtime.Goexit (as
// t.FailNow does).
//
// Run is the one place job goroutines start. It starts min(workers, n)
// workers (at least one), each running one job at a time, and the
// workers claim job positions themselves, in order, under one lock. A
// worker claims the next position only while it is fewer than
// backlogPerWorker×workers past the last emitted one, so a batch
// streams in O(workers) memory however slow emit or an early job is,
// and, when it is 2×workers or more past the oldest unfinished one,
// only while no job of its machine pool is running: jobs of one pool
// that far apart in the order never run at once, so a pool holds no
// more machines than a window of that width needs, while a job that
// holds the oldest position back stops only the claims of its own
// pool. A single worker may claim one position at a time, and only once
// its last one is emitted: it runs its jobs one after another, as a
// sequential run does, and a cancel closed by emit stops the next one.
//
// The worker whose result completes the oldest unfinished position
// emits the finished prefix itself, outside the lock, and then claims
// again; a worker that finds another emitting goes straight on to its
// next claim, and the emitting one emits its result too. The calling
// goroutine sleeps until the batch is finished, the watchdog is due or
// cancel closes.
//
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
// claims: no worker claims a position once it has seen cancel closed,
// the jobs already claimed run, every claimed position is emitted, and
// Run returns interrupted=true if any position was left unclaimed.
// Every emitted result is final.
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
	s := &sched{indices: indices, cells: r.cells, cancel: cancel, emit: emit, rep: rep, n: n,
		inflight: 2 * workers, backlog: backlogPerWorker * workers, running: make([]int32, r.pools), wake: make(chan struct{}, 1)}
	if workers == 1 {
		s.inflight, s.backlog = 1, 1
	}
	s.slots = make([]*attempt, s.backlog)
	s.claimable.L = &s.mu
	for w := 0; w < workers; w++ {
		go r.work(s)
	}
	var (
		watchdog *time.Timer
		fired    <-chan time.Time
	)
	s.mu.Lock()
	for !s.finished() {
		if r.jobTimeout > 0 && fired == nil {
			d := r.watchdogDue(s)
			if watchdog == nil {
				watchdog = time.NewTimer(d)
			} else {
				watchdog.Reset(d)
			}
			fired = watchdog.C
		}
		s.mu.Unlock()
		select {
		case <-s.wake:
			s.mu.Lock()
		case <-fired:
			s.mu.Lock()
			fired = nil
			r.abandonOverdue(s)
			s.flush()
		case <-cancel:
			s.mu.Lock()
			// A closed channel is always ready: stop selecting on it.
			s.stopped, cancel = true, nil
			s.claimable.Broadcast()
		}
	}
	// Idle workers wait for a claim that will never come: release them.
	s.stopped = true
	s.claimable.Broadcast()
	s.mu.Unlock()
	if watchdog != nil {
		watchdog.Stop()
	}
	return rep.finish(time.Since(start)), s.emitted < n, nil
}

// RunStream is Run over every job with no cancel; the benchmark module
// (benchmark/) calls it.
func (r *Runner) RunStream(emit func(JobResult)) (*Report, error) {
	rep, _, err := r.Run(nil, nil, emit)
	return rep, err
}

// backlogPerWorker bounds, per worker, how many positions past the last
// emitted one Run's workers may claim, and so how many finished results
// wait for a slow emit.
const backlogPerWorker = 64

// sched is the state Run shares with its workers, guarded by mu.
// Positions [0, emitted) are emitted, [emitted, done) are finished and
// wait for emit, and [done, next) are claimed, the one at done still
// running and the others running or finished. The one goroutine that
// has set emitting reads the finished slots and adds them to rep
// outside the lock: no worker writes a slot until its position is
// emitted, and no other goroutine emits until emitting is clear.
type sched struct {
	mu        sync.Mutex
	claimable sync.Cond // a bound moved, a pool fell idle, or the batch stopped
	indices   []int
	cells     []cell // the runner's: each job's pool number
	cancel    <-chan struct{}
	emit      func(JobResult)
	rep       *Report
	slots     []*attempt // the attempt at each position in [emitted, next)
	running   []int32    // per pool number, its claimed jobs not yet recorded
	n         int
	inflight  int // past done+inflight, next waits for its pool to fall idle
	backlog   int // next stays below emitted+backlog
	next      int
	done      int
	emitted   int
	emitting  bool          // a goroutine is emitting [emitted, done) outside the lock
	stopped   bool          // cancel closed or Run returned: no more claims
	wake      chan struct{} // one slot: the batch is finished
}

// at returns the attempt at a position in [emitted, next).
func (s *sched) at(pos int) *attempt { return s.slots[pos%len(s.slots)] }

// job returns the job index at a position.
func (s *sched) job(pos int) int {
	if s.indices != nil {
		return s.indices[pos]
	}
	return pos
}

// finished reports whether the batch is over: no position will be
// claimed, every claimed one is emitted, and no emit call is running.
func (s *sched) finished() bool {
	return !s.emitting && s.emitted == s.next && (s.stopped || s.next == s.n)
}

// claim records a worker's result for the attempt it last ran (none on
// its first call), emits the finished prefix if no other goroutine is
// emitting, and hands the worker the next position. It returns nil when
// the worker is to exit: the watchdog has recorded its last attempt and
// a replacement has its place, every position is claimed, or the batch
// has stopped. It waits while the backlog bound holds the next position
// back, or while the next position is 2×workers or more past done and a
// job of its pool is running.
func (s *sched) claim(last *attempt, res JobResult) *attempt {
	s.mu.Lock()
	defer s.mu.Unlock()
	if last != nil {
		if last.ready {
			return nil
		}
		s.record(last, res)
		s.flush()
	}
	for {
		if !s.stopped {
			select {
			case <-s.cancel:
				s.stopped = true
			default:
			}
		}
		if s.stopped || s.next == s.n {
			return nil
		}
		if s.next < s.emitted+s.backlog && (s.next < s.done+s.inflight || s.running[s.cells[s.job(s.next)].id] == 0) {
			break
		}
		s.claimable.Wait()
	}
	a := &attempt{job: s.job(s.next), started: time.Now()}
	s.running[s.cells[a.job].id]++
	s.slots[s.next%len(s.slots)] = a
	s.next++
	return a
}

// record makes res the result of a claimed attempt and moves done past
// the finished positions. When done moves or the attempt's pool falls
// idle, it lets waiting workers claim. The caller holds s.mu.
func (s *sched) record(a *attempt, res JobResult) {
	a.res, a.ready = res, true
	running := &s.running[s.cells[a.job].id]
	*running--
	from := s.done
	for s.done < s.next && s.at(s.done).ready {
		s.done++
	}
	if s.done != from || *running == 0 {
		s.claimable.Broadcast()
	}
}

// flush emits the finished positions in [emitted, done), in order and
// outside the lock, unless another goroutine is emitting: that one
// emits whatever finished while it emitted before it stops. Once the
// batch is finished it wakes Run's goroutine. The caller holds s.mu.
func (s *sched) flush() {
	if s.emitting {
		return
	}
	s.emitting = true
	for s.emitted < s.done {
		from, to := s.emitted, s.done
		s.mu.Unlock()
		for pos := from; pos < to; pos++ {
			res := s.at(pos).res
			s.rep.add(res)
			if s.emit != nil {
				s.emit(res)
			}
		}
		s.mu.Lock()
		s.emitted = to
		s.claimable.Broadcast()
	}
	s.emitting = false
	if s.finished() {
		select {
		case s.wake <- struct{}{}:
		default: // a wake is already pending
		}
	}
}

// attempt is one claimed job position. The worker that claimed it and
// the watchdog abandoning it race to record it, under the scheduler's
// lock, and exactly one wins: only a worker whose attempt is not yet
// ready records its result, and an abandoned attempt's result is the
// watchdog's record.
type attempt struct {
	job     int
	started time.Time // when a worker claimed it
	res     JobResult // written by whoever recorded the attempt
	ready   bool      // res is final
}

// watchdogDue returns how long the watchdog may sleep before a claimed
// job that is not yet recorded can first pass the job timeout. A job
// claimed later starts no earlier than now. The caller holds s.mu.
func (r *Runner) watchdogDue(s *sched) time.Duration {
	first := time.Now()
	for pos := s.done; pos < s.next; pos++ {
		if a := s.at(pos); !a.ready && a.started.Before(first) {
			first = a.started
		}
	}
	return time.Until(first.Add(r.jobTimeout))
}

// abandonOverdue records every claimed job running past the job timeout
// as a watchdog failure and starts a replacement for each of their
// workers. The caller holds s.mu and emits what the records free.
func (r *Runner) abandonOverdue(s *sched) {
	now := time.Now()
	for pos := s.done; pos < s.next; pos++ {
		a := s.at(pos)
		if a.ready || now.Sub(a.started) < r.jobTimeout {
			continue
		}
		s.record(a, r.watchdogRecord(a.job))
		go r.work(s)
	}
}

// work is one of Run's workers. It claims the next position itself,
// runs its job, then records the result, emits the finished prefix
// when no other goroutine is emitting and claims again, all in one call
// to claim, one job at a time, until claim sends it away: no position
// is left to claim, the batch has stopped, or the watchdog recorded its
// job first and a replacement has its place.
func (r *Runner) work(s *sched) {
	var res JobResult
	for a := s.claim(nil, res); a != nil; a = s.claim(a, res) {
		res = r.runJobOnce(a.job)
		if r.jobTimeout > 0 && time.Since(a.started) >= r.jobTimeout {
			res = r.watchdogRecord(a.job)
		}
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
