package main

import (
	"bytes"
	"fmt"
	"time"

	"eilid/internal/apps"
	"eilid/internal/attacks"
	"eilid/internal/casu"
	"eilid/internal/core"
	"eilid/internal/fleet"
	"eilid/internal/isa"
	"eilid/internal/scenario"
)

// countingDefense wraps a machine's monitor and counts every callback
// the CPU makes into it and every violation poll the run loop makes,
// forwarding each call unchanged.
type countingDefense struct {
	casu.Defense
	fetch, read, write, irq, polls uint64
}

func (c *countingDefense) OnFetch(prev, pc uint16) {
	c.fetch++
	c.Defense.OnFetch(prev, pc)
}

func (c *countingDefense) OnRead(pc, addr uint16, byteWide bool) {
	c.read++
	c.Defense.OnRead(pc, addr, byteWide)
}

func (c *countingDefense) OnWrite(pc, addr uint16, byteWide bool, value uint16) {
	c.write++
	c.Defense.OnWrite(pc, addr, byteWide, value)
}

func (c *countingDefense) OnInterrupt(pc uint16, line int) {
	c.irq++
	c.Defense.OnInterrupt(pc, line)
}

func (c *countingDefense) Violation() *casu.Violation {
	c.polls++
	return c.Defense.Violation()
}

// instrument installs a counting decorator on a monitored machine and
// returns it. A baseline machine has no monitor and gets none: any
// watcher would take it off the pure block path it runs in production.
func instrument(m *core.Machine) *countingDefense {
	if m.Monitor == nil {
		return nil
	}
	d := &countingDefense{Defense: m.Monitor}
	m.Monitor = d
	m.CPU.Watch = d
	return d
}

// replayMachine is one machine of the replay's pool.
type replayMachine struct {
	m   *core.Machine
	t   attacks.Target
	mon *countingDefense
	def string
}

// replayKey pools machines per (build, defense), as the runner does.
type replayKey struct {
	build *core.BuildResult
	def   string
}

// replayer re-runs a unit's jobs one at a time through the public
// per-job calls — Runner.BuildFor, attacks.TargetFor,
// Target.NewMachine + Snapshot on first use, then Machine.Recycle,
// fleet.ExecuteAppOn or attacks.ExecuteOn, the oracle, and
// fleet.WriteNDJSONLine — timing each phase. Every replayed job must
// match its line in the runner's journal.
type replayer struct {
	p        *core.Pipeline
	tr       *tracer
	parent   int
	machines map[replayKey]*replayMachine
	scen     map[string]attacks.Scenario

	checkoutUS, execUS, oracleUS, appCheckUS, scenCheckUS, encodeUS, jobUS []float64
	execByName                                                             map[string]time.Duration

	constructs, recycles, resets, compromised, busErrors int
	handlerStores, cycles, insns                         uint64
	insnsByDef                                           map[string]uint64
	mismatches                                           int
	firstMismatch                                        string
	buf                                                  bytes.Buffer
}

func newReplayer(p *core.Pipeline, tr *tracer, parent int) *replayer {
	rp := &replayer{
		p: p, tr: tr, parent: parent,
		machines:   map[replayKey]*replayMachine{},
		scen:       map[string]attacks.Scenario{},
		execByName: map[string]time.Duration{},
		insnsByDef: map[string]uint64{},
	}
	for _, sc := range attacks.Scenarios() {
		rp.scen[sc.Name] = sc
	}
	return rp
}

// replayBatch replays every job of one runner against the journal
// lines the runner streamed for it.
func (rp *replayer) replayBatch(r *fleet.Runner, journal []fleet.JobResult) error {
	jobs := r.Jobs()
	if len(journal) != len(jobs) {
		return fmt.Errorf("replay: %d journal lines for %d jobs", len(journal), len(jobs))
	}
	gens := map[string]scenario.Generated{}
	if g := r.Spec().Matrix.Generated; g.Count > 0 {
		for _, item := range scenario.Generate(g.Seed, g.Count).Items {
			gens[item.Scenario.Name] = item
		}
	}
	for i, job := range jobs {
		if err := rp.replayJob(r, gens, job, journal[i]); err != nil {
			return err
		}
	}
	return nil
}

// checkout hands out the cell's pooled machine, recycled, or builds it.
func (rp *replayer) checkout(r *fleet.Runner, job fleet.Job) (*replayMachine, error) {
	kind, name := job.Kind, job.Name
	if kind == "gen" {
		name = job.Victim
	}
	build := r.BuildFor(kind, name)
	if build == nil {
		return nil, fmt.Errorf("replay: no build for %s/%s", kind, name)
	}
	spec, err := core.DefenseByName(job.Defense)
	if err != nil {
		return nil, err
	}
	key := replayKey{build, job.Defense}
	if rm := rp.machines[key]; rm != nil {
		rp.recycles++
		return rm, rm.m.Recycle()
	}
	t := attacks.TargetFor(rp.p, build, spec)
	m, err := t.NewMachine()
	if err != nil {
		return nil, err
	}
	m.EnablePredecode()
	m.Snapshot()
	rm := &replayMachine{m: m, t: t, mon: instrument(m), def: job.Defense}
	rp.machines[key] = rm
	rp.constructs++
	return rm, nil
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func (rp *replayer) replayJob(r *fleet.Runner, gens map[string]scenario.Generated, job fleet.Job, want fleet.JobResult) error {
	tr := rp.tr
	jobSpan := tr.begin("job", rp.parent)
	s := tr.begin("checkout", jobSpan)
	rm, err := rp.checkout(r, job)
	rp.checkoutUS = append(rp.checkoutUS, us(tr.end(s)))
	if err != nil {
		return err
	}
	m := rm.m
	hs0, be0 := m.Space.HandlerStores(), m.Space.BusErrors
	spec, _ := core.DefenseByName(job.Defense)

	res := fleet.JobResult{Job: job}
	var (
		app     apps.App
		insp    *apps.Inspection
		reason  string
		o       attacks.Outcome
		execErr error
		label   = job.Name
	)
	s = tr.begin("exec", jobSpan)
	switch job.Kind {
	case "app":
		app, _ = apps.ByName(job.Name)
		insp, reason, execErr = fleet.ExecuteAppOn(m, app)
	case "attack":
		o, execErr = attacks.ExecuteOn(m, rm.t, rp.scen[job.Name])
	default:
		label = job.Family
		o, execErr = attacks.ExecuteOn(m, rm.t, gens[job.Name].Scenario)
	}
	d := tr.end(s)
	rp.execUS = append(rp.execUS, us(d))
	rp.execByName[label] += d
	rp.handlerStores += m.Space.HandlerStores() - hs0
	rp.busErrors += m.Space.BusErrors - be0

	s = tr.begin("oracle", jobSpan)
	if execErr != nil {
		res.Err = execErr.Error()
	}
	switch {
	case job.Kind == "app" && insp != nil:
		res.Cycles, res.Insns, res.Halted, res.ExitCode = insp.Cycles, insp.Insns, insp.Halted, insp.ExitCode
		res.Resets, res.ReasonsRecorded, res.UART, res.Reason = insp.Resets, insp.ReasonsRecorded, insp.UART, reason
		if execErr == nil {
			if chk := app.Check(insp); chk != nil {
				res.Err = fmt.Sprintf("behaviour check failed: %v", chk)
			} else {
				res.CheckOK = true
			}
		}
	case job.Kind != "app" && execErr == nil:
		res.Cycles, res.Insns, res.Halted, res.ExitCode = o.Cycles, o.Insns, o.Halted, o.ExitCode
		res.Resets, res.ReasonsRecorded, res.Reason, res.UART = o.Resets, o.ReasonsRecorded, o.Reason, o.UART
		res.Compromised = o.Compromised
		if job.Kind == "gen" {
			res.Oracle = gens[job.Name].Check(spec, o)
			res.CheckOK = res.Oracle == ""
		} else {
			res.CheckOK = attackCheck(spec, o)
		}
	}
	d = tr.end(s)
	rp.oracleUS = append(rp.oracleUS, us(d))
	if job.Kind == "app" {
		rp.appCheckUS = append(rp.appCheckUS, us(d))
	} else {
		rp.scenCheckUS = append(rp.scenCheckUS, us(d))
	}

	s = tr.begin("encode", jobSpan)
	rp.buf.Reset()
	err = fleet.WriteNDJSONLine(&rp.buf, res)
	rp.encodeUS = append(rp.encodeUS, us(tr.end(s)))
	rp.jobUS = append(rp.jobUS, us(tr.end(jobSpan)))
	if err != nil {
		return err
	}

	rp.cycles += res.Cycles
	rp.insns += res.Insns
	rp.insnsByDef[job.Defense] += res.Insns
	rp.resets += res.Resets
	if res.Compromised {
		rp.compromised++
	}
	if res.Cycles != want.Cycles || res.Insns != want.Insns || res.Resets != want.Resets ||
		res.Compromised != want.Compromised || res.CheckOK != want.CheckOK || (res.Err == "") != (want.Err == "") {
		rp.mismatches++
		if rp.firstMismatch == "" {
			rp.firstMismatch = fmt.Sprintf("job %d (%s/%s/%s): replay %d cycles %d insns %d resets compromised=%v check=%v, journal %d/%d/%d/%v/%v",
				job.Index, job.Kind, job.Name, job.Defense, res.Cycles, res.Insns, res.Resets, res.Compromised, res.CheckOK,
				want.Cycles, want.Insns, want.Resets, want.Compromised, want.CheckOK)
		}
	}
	return nil
}

// replay runs pass — one replay of the unit — repeatedly for budget
// (at least once), so the per-phase percentiles rest on many jobs. The
// counters and the trace's job spans describe the first pass; later
// passes are timed on a scratch tracer that is dropped after each.
// Every pass must match the journal.
func (rp *replayer) replay(pass func() error, budget time.Duration, out *runOutcome) error {
	deadline := time.Now().Add(budget)
	for n := 0; n == 0 || time.Now().Before(deadline); n++ {
		if n > 0 {
			rp.tr = newTracer()
		}
		if err := pass(); err != nil {
			return err
		}
		if n == 0 {
			rp.counts(out.Metrics)
		}
	}
	if rp.mismatches > 0 {
		out.fail("%d replayed jobs differ from their journal lines; first: %s", rp.mismatches, rp.firstMismatch)
	}
	rp.timings(out.Metrics, out.Extra)
	return nil
}

// attackCheck is the handcrafted-attack verdict the runner applies per
// defense column: the baseline must fall, EILID must reset without a
// compromise, and a comparative defense may only reset for a reason it
// can emit.
func attackCheck(spec *core.DefenseSpec, o attacks.Outcome) bool {
	switch {
	case spec.New == nil:
		return o.Compromised
	case spec.Name == core.DefenseEILID.Name:
		return !o.Compromised && o.Resets > 0
	default:
		return o.Resets == 0 || spec.EmitsReason(o.Reason)
	}
}

// counts reports the replay's deterministic per-layer counters. Call it
// after one pass over the unit, so they describe exactly one unit.
func (rp *replayer) counts(out map[string]float64) {
	type tally struct{ fetch, read, write, irq, polls uint64 }
	byDef := map[string]*tally{"": {}}
	for _, def := range monitoredDefenses() {
		byDef[def] = &tally{}
	}
	for _, rm := range rp.machines {
		if rm.mon == nil {
			continue
		}
		for _, k := range []string{"", rm.def} {
			t := byDef[k]
			t.fetch += rm.mon.fetch
			t.read += rm.mon.read
			t.write += rm.mon.write
			t.irq += rm.mon.irq
			t.polls += rm.mon.polls
		}
	}
	for def, t := range byDef {
		insns := rp.insns
		prefix := "casu."
		if def != "" {
			insns = rp.insnsByDef[def]
			prefix = "casu." + def + "."
		}
		per := func(n uint64) float64 {
			if insns == 0 {
				return 0
			}
			return float64(n) / float64(insns)
		}
		out[prefix+"on_fetch_per_insn"] = per(t.fetch)
		out[prefix+"on_read_per_insn"] = per(t.read)
		out[prefix+"on_write_per_insn"] = per(t.write)
		out[prefix+"on_interrupt"] = float64(t.irq)
		out[prefix+"violation_polls_per_insn"] = per(t.polls)
	}
	out["mem.bus_errors"] = float64(rp.busErrors)
	out["mem.handler_stores_per_kcycle"] = 0
	if rp.cycles > 0 {
		out["mem.handler_stores_per_kcycle"] = float64(rp.handlerStores) / float64(rp.cycles) * 1000
	}
	out["core.constructs"] = float64(rp.constructs)
	out["core.recycles"] = float64(rp.recycles)
	out["core.resets"] = float64(rp.resets)
	out["attacks.compromised"] = float64(rp.compromised)
}

// timings reports the per-phase latencies over every pass.
func (rp *replayer) timings(out map[string]float64, extra map[string]float64) {
	out["core.checkout_us_p50"] = median(rp.checkoutUS)
	out["core.exec_us_p50"] = median(rp.execUS)
	out["core.exec_us_p99"] = percentile(rp.execUS, 0.99)
	out["oracle.check_us_p50"] = median(rp.oracleUS)
	out["fleet.encode_us_p50"] = median(rp.encodeUS)
	out["fleet.job_us_p50"] = median(rp.jobUS)
	out["fleet.job_us_p99"] = percentile(rp.jobUS, 0.99)
	if len(rp.appCheckUS) > 0 {
		extra["apps.check_us_p50"] = median(rp.appCheckUS)
	}
	if len(rp.scenCheckUS) > 0 {
		extra["scenario.check_us_p50"] = median(rp.scenCheckUS)
	}
	for name, d := range rp.execByName {
		extra["core.exec_s."+name] = d.Seconds()
	}
}

// setupStats are the spans of a replayed preparation.
type setupStats struct {
	build, predecode, blockFuse time.Duration
	builds                      int
}

// replaySetup repeats, through public calls, the preparation NewRunner
// does for a batch: Pipeline.Build per firmware, then per build flavour
// a reference machine whose EnablePredecode snapshots the decode cache
// and fuses its block table. predecode therefore includes one fuse;
// block-fuse times a second fuse of the same cache.
func replaySetup(tr *tracer, parent int, p *core.Pipeline, spec fleet.BatchSpec) (setupStats, error) {
	var st setupStats
	rs, err := fleet.ResolveSpec(spec)
	if err != nil {
		return st, err
	}
	type source struct{ file, src string }
	var srcs []source
	for _, name := range rs.Matrix.Apps {
		a, _ := apps.ByName(name)
		srcs = append(srcs, source{name + ".s", a.Source})
	}
	byName := map[string]attacks.Scenario{}
	for _, sc := range attacks.Scenarios() {
		byName[sc.Name] = sc
	}
	for _, name := range rs.Matrix.Scenarios {
		srcs = append(srcs, source{name + ".s", byName[name].Source})
	}
	if g := rs.Matrix.Generated; g.Count > 0 {
		for _, v := range scenario.Generate(g.Seed, g.Count).Victims {
			srcs = append(srcs, source{v.Name + ".s", v.Source})
		}
	}
	for _, s := range srcs {
		id := tr.begin("build", parent)
		build, err := p.Build(s.file, s.src)
		st.build += tr.end(id)
		if err != nil {
			return st, err
		}
		st.builds++
		for _, inst := range []bool{false, true} {
			opts := core.MachineOptions{Config: p.Config()}
			img := build.Original.Image
			if inst {
				opts.ROM, opts.Defense, img = p.ROM(), core.DefenseEILID, build.Instrumented.Image
			}
			m, err := core.NewMachine(opts)
			if err != nil {
				return st, err
			}
			if err := img.WriteTo(m.Space); err != nil {
				return st, err
			}
			id = tr.begin("predecode", parent)
			pre := m.EnablePredecode()
			st.predecode += tr.end(id)
			// EnablePredecode fuses the block table as it installs the
			// cache; fusing the same cache again isolates that share.
			id = tr.begin("block-fuse", parent)
			isa.BuildBlocks(pre)
			st.blockFuse += tr.end(id)
		}
	}
	return st, nil
}

func (st setupStats) metrics(out map[string]float64) {
	out["core.build_s"] = st.build.Seconds()
	out["core.build_count"] = float64(st.builds)
	out["isa.predecode_s"] = st.predecode.Seconds()
	out["isa.block_fuse_s"] = st.blockFuse.Seconds()
}
