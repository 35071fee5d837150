package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"time"

	"eilid/internal/core"
	"eilid/internal/fleet"
	"eilid/internal/fleet/serve"
)

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// deriveSeed is the i-th generator seed of a run: a splitmix64 stream
// started from the run seed, so distinct run seeds share no inputs.
func deriveSeed(seed uint64, i int) uint64 { return splitmix64(splitmix64(seed) + uint64(i)) }

// warmSeeds are the three generator seeds fleetd-service resubmits.
// They are the same for every run seed, so three quarters of the
// service's work does not change with --seed.
var warmSeeds = [3]uint64{1, 2, 3}

// serviceSeeds is the submission order of a fleetd-service run: three
// of every four batches resubmit one of the warm seeds, every fourth
// uses a fresh seed derived from the run seed.
func serviceSeeds(seed uint64, batches int) []uint64 {
	out := make([]uint64, batches)
	for i := range out {
		if i%4 == 3 {
			out[i] = deriveSeed(seed, i/4)
		} else {
			out[i] = warmSeeds[i%4]
		}
	}
	return out
}

// serviceSpec is the batch one submission carries.
func serviceSpec(cfg runConfig, seed uint64) fleet.BatchSpec {
	return fleet.BatchSpec{
		Matrix: fleet.MatrixSpec{NoApps: true, NoScenarios: true, Generated: fleet.GeneratedSpec{Seed: seed, Count: cfg.sizes.ServiceGenCount}},
		Exec:   cfg.exec(),
	}
}

// batchTiming is what the client observed of one batch.
type batchTiming struct {
	id        string
	cold      bool
	start     time.Time
	submit    time.Duration // POST round trip
	firstLine time.Duration // POST start → first job line read
	total     time.Duration // POST start → summary line read
	digest    string
	bytes     int64
	summary   fleet.JournalSummary
	// speed is the host's speed over the batch relative to the nominal
	// host (1 when the run does not measure it).
	speed float64
}

// client is the single closed-loop client: one connection, each batch
// submitted only after the previous journal was read to its end.
type client struct {
	base string
	http *http.Client
}

func newClient(base string) *client {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &client{base: base, http: &http.Client{Transport: tr}}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// getJSON decodes a JSON GET response.
func (c *client) getJSON(path string, v any) error {
	resp, err := c.http.Get(c.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// submit POSTs a spec and streams its journal to the end.
func (c *client) submit(spec fleet.BatchSpec) (*batchTiming, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	bt := &batchTiming{start: start}
	resp, err := c.http.Post(c.base+"/batches", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	var st serve.BatchStatus
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		return nil, fmt.Errorf("POST /batches: %s", resp.Status)
	}
	if err != nil {
		return nil, fmt.Errorf("POST /batches: %w", err)
	}
	bt.id = st.ID
	bt.submit = time.Since(start)

	resp, err = c.http.Get(c.base + "/batches/" + st.ID + "/journal")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET journal: %s", resp.Status)
	}
	br := bufio.NewReader(resp.Body)
	jw := newJournalHash()
	var last []byte
	for lines := 0; ; {
		line, err := br.ReadBytes('\n')
		if len(line) > 0 {
			jw.Write(line)
			lines++
			if lines == 2 { // the header is line 1
				bt.firstLine = time.Since(start)
			}
			last = line
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("reading journal: %w", err)
		}
	}
	bt.total = time.Since(start)
	bt.digest, bt.bytes = jw.sum(), jw.n
	if err := json.Unmarshal(last, &bt.summary); err != nil || bt.summary.Journal != "summary" {
		return nil, fmt.Errorf("batch %s journal does not end in a summary line: %q", st.ID, last)
	}
	return bt, nil
}

// serviceRef is the CLI-path journal of one spec: the bytes fleetd must
// stream for it.
type serviceRef struct {
	digest string
	sim    simTotals
}

// serviceRefs runs every distinct spec of a run once through the CLI
// path (runner + journal writers). Not timed.
func serviceRefs(cfg runConfig, seeds []uint64) (map[uint64]serviceRef, error) {
	refs := map[uint64]serviceRef{}
	for _, s := range seeds {
		if _, ok := refs[s]; ok {
			continue
		}
		b, err := setupBatch(serviceSpec(cfg, s))
		if err != nil {
			return nil, err
		}
		u, err := b.runUnit(false)
		if err != nil {
			return nil, err
		}
		if u.failures > 0 || u.checks > 0 {
			return nil, fmt.Errorf("CLI-path reference for seed %d: %d failed jobs, %d failed checks", s, u.failures, u.checks)
		}
		refs[s] = serviceRef{digest: u.digest, sim: u.sim}
	}
	return refs, nil
}

// passResult is one pass of the batch sequence through a fresh server.
type passResult struct {
	setup   time.Duration
	batches []*batchTiming
	jobs    int
	cycles  uint64
	wall    time.Duration // sum of batch latencies
	digest  string        // over every journal of the pass, in order
	health  healthz
	// statuses are the server's view of each batch, for the traced lag.
	statuses []serve.BatchStatus
}

// healthz is the part of the /healthz body the benchmark reads.
type healthz struct {
	Warm fleet.WarmStats `json:"warm"`
}

// setupServer is the cold set-up of the service: pipeline, server and
// loopback listener. It sets up reps times, shutting all but the last
// down again, and returns the median set-up time with the survivor.
// With a host clock, each set-up is scaled to the nominal host.
func setupServer(reps int, hc *hostClock) (*serve.Server, *httptest.Server, time.Duration, error) {
	var times []float64
	for i := 0; ; i++ {
		start := time.Now()
		p, err := core.NewPipeline(core.DefaultConfig())
		if err != nil {
			return nil, nil, 0, err
		}
		srv := serve.New(p, serve.Options{})
		ts := httptest.NewServer(srv.Handler())
		t := time.Since(start).Seconds()
		if hc != nil {
			t *= hc.tick()
		}
		times = append(times, t)
		if i == reps-1 {
			return srv, ts, seconds(median(times)), nil
		}
		ts.Close()
		srv.Stop()
	}
}

// runPass sets up a fresh server behind a loopback listener, drives the
// run's batches through one client and tears everything down.
// Each batch's journal must equal its CLI-path reference byte for byte.
// atEnd, when not nil, runs after the last batch while the server is
// still up. hc, when not nil, measures the host's speed after every
// set-up and batch.
func runPass(cfg runConfig, seeds []uint64, refs map[uint64]serviceRef, out *runOutcome, hc *hostClock, atEnd func(*client, *passResult) error) (*passResult, error) {
	sr := &passResult{}
	srv, ts, setup, err := setupServer(max(cfg.sizes.SetupReps, 1), hc)
	if err != nil {
		return nil, err
	}
	sr.setup = setup
	c := newClient(ts.URL)
	defer func() {
		c.close()
		ts.Close()
		srv.Stop()
	}()

	all := newJournalHash()
	seen := map[uint64]bool{}
	for _, s := range seeds {
		out.Attempted += 2 // POST and GET
		bt, err := c.submit(serviceSpec(cfg, s))
		if err != nil {
			out.fail("fleetd-service: %v", err)
			continue
		}
		bt.speed = 1
		if hc != nil {
			bt.speed = hc.tick()
		}
		bt.cold = !seen[s]
		seen[s] = true
		ref := refs[s]
		out.Attempted += bt.summary.Jobs
		if bt.summary.Failures > 0 || bt.summary.ChecksFailed > 0 {
			out.fail("fleetd-service: batch %s: %d failed jobs, %d failed checks", bt.id, bt.summary.Failures, bt.summary.ChecksFailed)
		}
		if bt.digest != ref.digest {
			out.fail("fleetd-service: batch %s journal %.12s differs from the CLI-path journal %.12s", bt.id, bt.digest, ref.digest)
		}
		all.Write([]byte(bt.digest))
		sr.batches = append(sr.batches, bt)
		sr.jobs += bt.summary.Jobs
		sr.cycles += bt.summary.TotalCycles
		sr.wall += bt.total
	}
	sr.digest = all.sum()
	if atEnd != nil {
		if err := atEnd(c, sr); err != nil {
			return nil, err
		}
	}
	return sr, nil
}

// inspect reads the server's own view at the end of a traced pass:
// warm-cache counters and every batch's status.
func inspect(c *client, sr *passResult) error {
	if err := c.getJSON("/healthz", &sr.health); err != nil {
		return err
	}
	return c.getJSON("/batches", &sr.statuses)
}

// runServiceWorkload is an untraced fleetd-service run: passes of the
// ServiceBatches batches of the sequence, each through a fresh server,
// for --seconds (at least one pass). The warm cache never evicts and the
// server keeps every batch's journal, so heap_mb, read after a pass's
// last batch with its server still up, shows what a daemon retains over
// those batches. Passes are fixed work rather than one server kept busy
// until a deadline, which would retain more the faster the code got.
// Rates and set-up times are scaled to the nominal host, batch by batch.
func runServiceWorkload(w *workload, cfg runConfig) (*runOutcome, error) {
	out := newOutcome()
	hc := newHostClock(cfg.workers, w.ref)
	heap0 := liveHeapMB()
	deadline := time.Now().Add(seconds(cfg.seconds))
	seeds := serviceSeeds(cfg.seed, cfg.sizes.ServiceBatches)
	refs, err := serviceRefs(cfg, seeds)
	if err != nil {
		return nil, err
	}
	for _, s := range seeds {
		out.Sim.Jobs += refs[s].sim.Jobs
		out.Sim.Cycles += refs[s].sim.Cycles
		out.Sim.Insns += refs[s].sim.Insns
	}
	var setup, heap, jobsPerS, mcps, rawJobsPerS, speed, batch, first, coldFirst, warmFirst []float64
	measureHeap := func(*client, *passResult) error {
		heap = append(heap, liveHeapMB()-heap0)
		return nil
	}
	for {
		passStart := time.Now()
		pr, err := runPass(cfg, seeds, refs, out, hc, measureHeap)
		if err != nil {
			return nil, err
		}
		if out.Digest == "" {
			out.Digest = pr.digest
		} else if pr.digest != out.Digest {
			out.fail("fleetd-service: pass digest %.12s differs from the first pass's %.12s", pr.digest, out.Digest)
		}
		setup = append(setup, pr.setup.Seconds())
		// A group is four consecutive batches: three warm resubmissions
		// and one fresh seed, nearly the same work in every group.
		for g := 0; g+4 <= len(pr.batches); g += 4 {
			var jobs int
			var cycles uint64
			var wall, nominal float64
			for _, bt := range pr.batches[g : g+4] {
				jobs += bt.summary.Jobs
				cycles += bt.summary.TotalCycles
				wall += bt.total.Seconds()
				nominal += bt.total.Seconds() * bt.speed
			}
			jobsPerS = append(jobsPerS, float64(jobs)/nominal)
			mcps = append(mcps, float64(cycles)/nominal/1e6)
			rawJobsPerS = append(rawJobsPerS, float64(jobs)/wall)
		}
		for _, bt := range pr.batches {
			speed = append(speed, bt.speed)
			batch = append(batch, ms(bt.total))
			first = append(first, ms(bt.firstLine))
			if bt.cold {
				coldFirst = append(coldFirst, ms(bt.firstLine))
			} else {
				warmFirst = append(warmFirst, ms(bt.firstLine))
			}
		}
		// Collect this pass's server before the next one grows its own.
		runtime.GC()
		// Start another pass only if one as long as this one ends by the
		// deadline, so that a run lasts --seconds rather than up to a pass
		// more.
		if time.Now().Add(time.Since(passStart)).After(deadline) {
			break
		}
	}
	out.Metrics["setup_s"] = median(setup)
	out.Metrics["jobs_per_s"] = median(jobsPerS)
	out.Metrics["sim_mcycles_per_s"] = median(mcps)
	out.Metrics["heap_mb"] = median(heap)
	out.Extra["first_job_ms_p50"] = median(first)
	out.Extra["batch_ms_p50"] = median(batch)
	out.Extra["batch_ms_p95"] = percentile(batch, 0.95)
	out.Extra["first_job_ms_cold_p50"] = median(coldFirst)
	out.Extra["first_job_ms_warm_p50"] = median(warmFirst)
	out.Extra["raw.jobs_per_s"] = median(rawJobsPerS)
	out.Extra["host_speed"] = median(speed)
	return out, nil
}
