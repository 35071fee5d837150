// Package serve is the fleet's service mode: a persistent HTTP server
// (cmd/eilid-fleetd) that accepts fleet.BatchSpec submissions and runs
// them through the ordinary Runner/journal machinery while keeping the
// expensive state — built artifacts, decode caches, block tables and
// recycled machines — warm in a fleet.Warm cache that outlives any
// single batch. A cold submission pays the same preparation cost as a
// CLI invocation; a warm resubmission of an overlapping matrix skips
// straight to recycled machines.
//
// Endpoints:
//
//	POST /batches              submit a BatchSpec (fleet.DecodeSpec: unknown
//	                           fields and trailing data rejected — the
//	                           same validation surface as `eilid-fleet
//	                           -spec`); returns 202 + status
//	GET  /batches              list batch statuses in submission order
//	GET  /batches/{id}         one batch's status
//	GET  /batches/{id}/journal the batch journal as chunked NDJSON —
//	                           header line, job lines in order, summary —
//	                           streamed live while the batch runs
//	GET  /healthz              liveness + warm-cache statistics
//
// Batches execute one at a time in submission order (jobs within a
// batch still fan out across the runner's worker pool). Every job checks
// its machine out of the server's fleet.Warm and back in, so nothing is
// handed over when a batch ends: the next batch checks out the machines
// the last one checked in.
//
// Determinism contract: the journal streamed for a spec is
// byte-identical to the journal `eilid-fleet -spec file -json out`
// writes for the same spec — header, job lines and summary, warm or
// cold — excluding HTTP transport framing. The serve differential
// suites and the CI fleetd step pin that equality.
//
// Drain (first SIGTERM in the daemon) stops intake — POST returns 503
// — finishes the in-flight batch, journals every still-queued batch as
// interrupted (header + interrupted marker, the same shape the CLI
// writes when stopped before dispatch), and returns. Stop (second
// signal) additionally cancels the in-flight batch's dispatch, which
// drains its running jobs and journals it interrupted.
package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"eilid/internal/core"
	"eilid/internal/fleet"
)

// Batch states reported in BatchStatus.State.
const (
	StateQueued      = "queued"
	StateRunning     = "running"
	StateDone        = "done"
	StateFailed      = "failed"
	StateInterrupted = "interrupted"
)

// Options configures a Server.
type Options struct {
	// MaxQueue bounds how many batches may wait behind the running one
	// before POST /batches returns 503 (0 = DefaultMaxQueue).
	MaxQueue int
	// Log receives one line per batch lifecycle event (nil = discard).
	Log io.Writer
}

// DefaultMaxQueue is the queue bound when Options.MaxQueue is zero.
const DefaultMaxQueue = 64

// MaxBatchJobs caps the job count of one submitted batch. The runner
// enumerates every job (and generates every scenario) before the first
// one runs, so an uncapped matrix lets one POST exhaust the daemon.
const MaxBatchJobs = 65536

// Server owns the warm cache, the batch registry and the single
// executor goroutine. Create with New, serve via Handler, shut down
// with Drain (graceful) or Stop (cancel in-flight).
type Server struct {
	p        *core.Pipeline
	warm     *fleet.Warm
	log      io.Writer
	maxQueue int

	mu       sync.Mutex
	cond     *sync.Cond // guards queue/draining; wakes the executor
	batches  map[string]*Batch
	order    []string
	queue    []*Batch
	nextID   int
	draining bool

	stop     chan struct{} // closed by Stop: cancels in-flight dispatch
	stopOnce sync.Once
	done     chan struct{} // closed when the executor exits
}

// Batch is one submitted spec and its journal. All fields behind mu;
// the journal grows append-only and cond broadcasts every append, which
// is what lets the journal endpoint stream it live.
type Batch struct {
	id     string
	spec   fleet.BatchSpec // resolved
	header *fleet.JournalHeader

	mu           sync.Mutex
	cond         *sync.Cond
	state        string
	journal      []byte
	completed    int
	failures     int
	checksFailed int
	errMsg       string
	submitted    time.Time
	firstJob     time.Duration // submission → first job line journalled
	wall         time.Duration
}

// BatchStatus is the JSON shape GET /batches and GET /batches/{id}
// return. Wall-clock fields describe the run site and are not part of
// any determinism contract (the journal deliberately excludes them).
type BatchStatus struct {
	ID           string `json:"id"`
	State        string `json:"state"`
	Fingerprint  string `json:"fingerprint"`
	Jobs         int    `json:"jobs"`
	Completed    int    `json:"completed"`
	Failures     int    `json:"failures"`
	ChecksFailed int    `json:"checks_failed"`
	Error        string `json:"error,omitempty"`
	// FirstJobMS is the submission-to-first-job-line latency — the
	// warmth observable: a warm resubmission skips artifact builds and
	// machine construction, which is exactly the gap between a cold and
	// a warm value of this field.
	FirstJobMS float64 `json:"first_job_ms,omitempty"`
	WallMS     float64 `json:"wall_ms,omitempty"`
}

// New creates a Server with an empty warm cache and starts its
// executor. The pipeline is shared by every batch the server runs.
func New(p *core.Pipeline, opts Options) *Server {
	s := &Server{
		p:        p,
		warm:     fleet.NewWarm(),
		log:      opts.Log,
		maxQueue: opts.MaxQueue,
		batches:  map[string]*Batch{},
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	if s.log == nil {
		s.log = io.Discard
	}
	if s.maxQueue <= 0 {
		s.maxQueue = DefaultMaxQueue
	}
	s.cond = sync.NewCond(&s.mu)
	go s.executor()
	return s
}

// WarmStats snapshots the warm-cache counters (also served on
// /healthz) — the observable the warm-reuse tests assert on.
func (s *Server) WarmStats() fleet.WarmStats { return s.warm.Stats() }

// Handler returns the HTTP routing for the endpoints above.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /batches", s.handleSubmit)
	mux.HandleFunc("GET /batches", s.handleList)
	mux.HandleFunc("GET /batches/{id}", s.handleStatus)
	mux.HandleFunc("GET /batches/{id}/journal", s.handleJournal)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	return mux
}

// Submit validates a spec and enqueues it as a new batch — the
// programmatic core of POST /batches. The spec goes through the
// validation surface `eilid-fleet -spec` applies — ResolveSpec for
// registry names and ranges, and the journal header derived from the
// resolved matrix — and one limit of its own: at most MaxBatchJobs
// jobs.
func (s *Server) Submit(spec fleet.BatchSpec) (*Batch, error) {
	resolved, err := fleet.ResolveSpec(spec)
	if err != nil {
		return nil, err
	}
	if _, ok := resolved.Matrix.JobCount(MaxBatchJobs); !ok {
		return nil, fmt.Errorf("serve: batch exceeds %d jobs", MaxBatchJobs)
	}
	header, err := fleet.JournalHeaderForSpec(resolved)
	if err != nil {
		return nil, err
	}
	b := &Batch{spec: resolved, header: header, state: StateQueued, submitted: time.Now()}
	b.cond = sync.NewCond(&b.mu)

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil, errDraining
	}
	if len(s.queue) >= s.maxQueue {
		s.mu.Unlock()
		return nil, errQueueFull
	}
	s.nextID++
	b.id = fmt.Sprintf("b-%d", s.nextID)
	s.batches[b.id] = b
	s.order = append(s.order, b.id)
	s.queue = append(s.queue, b)
	s.cond.Broadcast()
	s.mu.Unlock()
	fmt.Fprintf(s.log, "eilid-fleetd: %s queued: %d jobs, fingerprint %.12s…\n", b.id, header.Jobs, header.Fingerprint)
	return b, nil
}

var (
	errDraining  = fmt.Errorf("serve: draining, not accepting batches")
	errQueueFull = fmt.Errorf("serve: batch queue is full")
)

// Batch looks a batch up by id.
func (s *Server) Batch(id string) *Batch {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.batches[id]
}

// Drain gracefully shuts the executor down: no new submissions, the
// in-flight batch runs to completion, every still-queued batch is
// journalled interrupted. Blocks until the executor has exited.
// Idempotent.
func (s *Server) Drain() {
	s.mu.Lock()
	var q []*Batch
	if !s.draining {
		s.draining = true
		q = s.queue
		s.queue = nil
		s.cond.Broadcast()
	}
	s.mu.Unlock()
	for _, b := range q {
		b.interruptQueued()
		fmt.Fprintf(s.log, "eilid-fleetd: %s interrupted while queued\n", b.id)
	}
	<-s.done
}

// Cancel asks the in-flight batch (and any batch the executor might
// still pick up) to stop dispatching; its running jobs drain and it is
// journalled interrupted. Non-blocking and idempotent — pair with
// Drain to wait for the executor.
func (s *Server) Cancel() {
	s.stopOnce.Do(func() { close(s.stop) })
}

// Stop is Cancel plus Drain: cancel the in-flight batch's dispatch,
// interrupt the queue, and block until the executor exits. Idempotent.
func (s *Server) Stop() {
	s.Cancel()
	s.Drain()
}

// executor runs queued batches one at a time in submission order.
func (s *Server) executor() {
	defer close(s.done)
	for {
		b := s.nextBatch()
		if b == nil {
			return
		}
		s.execute(b)
	}
}

// nextBatch blocks until a batch is queued or the server is draining
// with an empty queue (nil).
func (s *Server) nextBatch() *Batch {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if len(s.queue) > 0 {
			b := s.queue[0]
			s.queue = s.queue[1:]
			return b
		}
		if s.draining {
			return nil
		}
		s.cond.Wait()
	}
}

// execute runs one batch through the warm runner, journalling it as it
// runs. The journal bytes are exactly what the CLI's -json file would
// contain for the same spec.
func (s *Server) execute(b *Batch) {
	start := time.Now()
	b.setState(StateRunning, 0, nil)
	runner, err := fleet.NewRunnerWarm(s.p, b.spec, s.warm)
	if err != nil {
		// The spec resolved at submission, so this is a build/prepare
		// failure; the batch dies with an empty journal and the error in
		// its status.
		b.setState(StateFailed, time.Since(start), err)
		fmt.Fprintf(s.log, "eilid-fleetd: %s failed: %v\n", b.id, err)
		return
	}
	_, interrupted, err := runner.WriteJournal(batchJournal{b}, s.stop, b.count)
	switch {
	case err != nil:
		// Appending cannot fail; only a marshalling bug lands here.
		b.setState(StateFailed, time.Since(start), err)
		return
	case interrupted:
		b.setState(StateInterrupted, time.Since(start), nil)
	default:
		b.setState(StateDone, time.Since(start), nil)
	}
	st := b.Status()
	fmt.Fprintf(s.log, "eilid-fleetd: %s %s: %d/%d jobs, %d failures, %d check failures in %.1f ms\n",
		b.id, st.State, st.Completed, st.Jobs, st.Failures, st.ChecksFailed, st.WallMS)
}

// batchJournal is the writer a batch is journalled through: each Write
// appends to the batch's journal and wakes the journal streams.
type batchJournal struct{ b *Batch }

func (w batchJournal) Write(p []byte) (int, error) {
	w.b.mu.Lock()
	w.b.journal = append(w.b.journal, p...)
	w.b.cond.Broadcast()
	w.b.mu.Unlock()
	return len(p), nil
}

// count folds one journalled job into the live status counters.
func (b *Batch) count(jr fleet.JobResult) {
	b.mu.Lock()
	if b.completed == 0 {
		b.firstJob = time.Since(b.submitted)
	}
	b.completed++
	switch {
	case jr.Err != "":
		b.failures++
	case !jr.CheckOK:
		b.checksFailed++
	}
	b.mu.Unlock()
}

// setState moves the batch to state and wakes its journal streams.
// wall is the time the batch has run (zero before it ends), and err,
// when non-nil, is why it failed; the first error is kept.
func (b *Batch) setState(state string, wall time.Duration, err error) {
	b.mu.Lock()
	b.state = state
	b.wall = wall
	if err != nil && b.errMsg == "" {
		b.errMsg = err.Error()
	}
	b.cond.Broadcast()
	b.mu.Unlock()
}

// interruptQueued journals a batch that never started: header plus an
// interrupted marker with zero completed jobs — the same journal shape
// the CLI writes when stopped before dispatch. Appending cannot fail,
// and neither line's marshal can.
func (b *Batch) interruptQueued() {
	w := batchJournal{b}
	_ = fleet.WriteJournalHeader(w, b.header)
	_ = fleet.WriteJournalInterrupted(w, 0, b.header.Jobs)
	b.setState(StateInterrupted, 0, nil)
}

// ID returns the batch's server-assigned identifier.
func (b *Batch) ID() string { return b.id }

// terminalLocked reports whether the batch will append no more journal
// bytes. Callers hold b.mu.
func (b *Batch) terminalLocked() bool {
	switch b.state {
	case StateDone, StateFailed, StateInterrupted:
		return true
	}
	return false
}

// Status snapshots the batch for the status endpoints.
func (b *Batch) Status() BatchStatus {
	b.mu.Lock()
	defer b.mu.Unlock()
	st := BatchStatus{
		ID:           b.id,
		State:        b.state,
		Fingerprint:  b.header.Fingerprint,
		Jobs:         b.header.Jobs,
		Completed:    b.completed,
		Failures:     b.failures,
		ChecksFailed: b.checksFailed,
		Error:        b.errMsg,
	}
	if b.firstJob > 0 {
		st.FirstJobMS = float64(b.firstJob.Microseconds()) / 1000
	}
	if b.wall > 0 {
		st.WallMS = float64(b.wall.Microseconds()) / 1000
	}
	return st
}

// Journal returns a copy of the journal bytes appended so far and
// whether the batch is terminal (no more bytes will follow).
func (b *Batch) Journal() ([]byte, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]byte(nil), b.journal...), b.terminalLocked()
}

// waitJournal blocks until the journal has grown past off, the batch
// is terminal, or ctx is done; it returns the new bytes and whether
// the batch is terminal.
func (b *Batch) waitJournal(ctx context.Context, off int) ([]byte, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for off >= len(b.journal) && !b.terminalLocked() && ctx.Err() == nil {
		b.cond.Wait()
	}
	var chunk []byte
	if off < len(b.journal) {
		chunk = append(chunk, b.journal[off:]...)
	}
	return chunk, b.terminalLocked()
}

// maxSpecBytes bounds a POST /batches body; a BatchSpec is small, and
// an unbounded read is a trivial way to wedge the daemon.
const maxSpecBytes = 1 << 20

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	spec, err := fleet.DecodeSpec(http.MaxBytesReader(w, r.Body, maxSpecBytes))
	if err != nil {
		httpError(w, http.StatusBadRequest, fmt.Sprintf("decoding spec: %v", err))
		return
	}
	b, err := s.Submit(spec)
	switch err {
	case nil:
	case errDraining, errQueueFull:
		httpError(w, http.StatusServiceUnavailable, err.Error())
		return
	default:
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	writeJSON(w, http.StatusAccepted, b.Status())
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	out := make([]BatchStatus, 0, len(s.order))
	batches := make([]*Batch, 0, len(s.order))
	for _, id := range s.order {
		batches = append(batches, s.batches[id])
	}
	s.mu.Unlock()
	for _, b := range batches {
		out = append(out, b.Status())
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	b := s.Batch(r.PathValue("id"))
	if b == nil {
		httpError(w, http.StatusNotFound, "no such batch")
		return
	}
	writeJSON(w, http.StatusOK, b.Status())
}

// handleJournal streams the batch journal as chunked NDJSON, following
// a running batch live: every appended line is flushed to the client
// the moment the batch journals it, and the response ends after the
// terminal line (summary or interrupted marker). The bytes are exactly
// the CLI's -json journal for the same spec.
func (s *Server) handleJournal(w http.ResponseWriter, r *http.Request) {
	b := s.Batch(r.PathValue("id"))
	if b == nil {
		httpError(w, http.StatusNotFound, "no such batch")
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	// A closed client connection must wake the cond wait, or an
	// abandoned stream of a long batch would leak its handler.
	stopWake := context.AfterFunc(r.Context(), func() {
		b.mu.Lock()
		b.cond.Broadcast()
		b.mu.Unlock()
	})
	defer stopWake()
	off := 0
	for {
		chunk, terminal := b.waitJournal(r.Context(), off)
		if len(chunk) > 0 {
			if _, err := w.Write(chunk); err != nil {
				return
			}
			if flusher != nil {
				flusher.Flush()
			}
			off += len(chunk)
		}
		if r.Context().Err() != nil {
			return
		}
		if terminal && len(chunk) == 0 {
			return
		}
	}
}

// healthz reports liveness plus the warm-cache counters, so "is the
// daemon warm for this workload" is one curl away.
type healthz struct {
	Status  string          `json:"status"`
	Batches int             `json:"batches"`
	Warm    fleet.WarmStats `json:"warm"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	h := healthz{Status: "ok", Batches: len(s.batches)}
	if s.draining {
		h.Status = "draining"
	}
	s.mu.Unlock()
	h.Warm = s.warm.Stats()
	writeJSON(w, http.StatusOK, h)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func httpError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]string{"error": msg})
}
