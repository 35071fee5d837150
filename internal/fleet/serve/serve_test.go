package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"eilid/internal/core"
	"eilid/internal/fleet"
)

func newPipeline(t *testing.T) *core.Pipeline {
	t.Helper()
	p, err := core.NewPipeline(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func serveSpec() fleet.BatchSpec {
	return fleet.BatchSpec{
		Matrix: fleet.MatrixSpec{
			Apps:      []string{"LightSensor"},
			Scenarios: []string{"stack-smash"},
			Generated: fleet.GeneratedSpec{Seed: 21, Count: 6},
		},
		Exec: fleet.ExecSpec{Workers: 4},
	}
}

// referenceJournal is what `eilid-fleet -spec … -json out` writes for
// the spec: header line, job lines in index order, summary line.
func referenceJournal(t *testing.T, p *core.Pipeline, spec fleet.BatchSpec) []byte {
	t.Helper()
	r, err := fleet.NewRunner(p, spec)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := fleet.WriteJournalHeader(&buf, r.JournalHeader()); err != nil {
		t.Fatal(err)
	}
	rep, err := r.RunStream(func(jr fleet.JobResult) {
		if err := fleet.WriteNDJSONLine(&buf, jr); err != nil {
			t.Error(err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := fleet.WriteJournalSummary(&buf, rep); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// postSpec submits a spec over HTTP and returns the decoded status.
func postSpec(t *testing.T, ts *httptest.Server, spec fleet.BatchSpec) BatchStatus {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/batches", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("POST /batches: %s: %s", resp.Status, raw)
	}
	var st BatchStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// streamJournal fetches a batch journal over HTTP, blocking until the
// stream ends (i.e. the batch is terminal).
func streamJournal(t *testing.T, ts *httptest.Server, id string) []byte {
	t.Helper()
	resp, err := http.Get(ts.URL + "/batches/" + id + "/journal")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET journal: %s", resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("journal Content-Type = %q, want application/x-ndjson", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// waitState polls a batch status until it reaches want (or the test
// deadline kills the test).
func waitState(t *testing.T, b *Batch, want string) {
	t.Helper()
	for i := 0; i < 5000; i++ {
		if b.Status().State == want {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("batch %s never reached state %q (stuck at %q)", b.ID(), want, b.Status().State)
}

// TestServeDifferentialJournal is the service-mode determinism
// contract: the NDJSON streamed from GET /batches/{id}/journal is
// byte-identical to the journal the CLI writes for the same spec.
func TestServeDifferentialJournal(t *testing.T) {
	p := newPipeline(t)
	want := referenceJournal(t, p, serveSpec())

	s := New(p, Options{})
	defer s.Stop()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	st := postSpec(t, ts, serveSpec())
	if st.State != StateQueued && st.State != StateRunning {
		t.Fatalf("freshly submitted batch in state %q", st.State)
	}
	got := streamJournal(t, ts, st.ID)
	if !bytes.Equal(want, got) {
		t.Fatalf("served journal differs from CLI journal:\ncli:    %d bytes\nserved: %d bytes\nserved head: %.200s", len(want), len(got), got)
	}
	// The stream is replayable: a second GET after completion returns
	// the same bytes.
	if again := streamJournal(t, ts, st.ID); !bytes.Equal(want, again) {
		t.Fatal("re-fetching a finished journal returned different bytes")
	}
	j, err := fleet.ParseJournal(got)
	if err != nil {
		t.Fatalf("served journal does not parse: %v", err)
	}
	if !j.Complete {
		t.Fatal("served journal parses as incomplete")
	}
}

// TestServeWarmReuse: resubmitting a spec to a warm server must hit the
// artifact and machine caches and still stream a journal byte-identical
// to the cold one.
func TestServeWarmReuse(t *testing.T) {
	p := newPipeline(t)
	s := New(p, Options{})
	defer s.Stop()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	first := streamJournal(t, ts, postSpec(t, ts, serveSpec()).ID)
	cold := s.WarmStats()
	if cold.ArtifactMisses == 0 || cold.Machines == 0 {
		t.Fatalf("cold batch did not populate the warm cache: %+v", cold)
	}

	second := streamJournal(t, ts, postSpec(t, ts, serveSpec()).ID)
	if !bytes.Equal(first, second) {
		t.Fatal("warm resubmission journal differs from the cold journal")
	}
	warm := s.WarmStats()
	if warm.ArtifactHits <= cold.ArtifactHits {
		t.Errorf("resubmission had no artifact hits: cold %+v warm %+v", cold, warm)
	}
	if warm.MachineHits <= cold.MachineHits {
		t.Errorf("resubmission had no machine hits: cold %+v warm %+v", cold, warm)
	}
	if warm.ArtifactMisses != cold.ArtifactMisses {
		t.Errorf("resubmission rebuilt artifacts: cold %+v warm %+v", cold, warm)
	}
}

// TestServeDrain: draining with one batch in flight and one queued
// finishes the in-flight batch (complete journal) and journals the
// queued one interrupted with zero completed jobs — the same shape the
// CLI writes when stopped before dispatch.
func TestServeDrain(t *testing.T) {
	p := newPipeline(t)
	s := New(p, Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// A repeat-heavy batch so batch 1 is still in flight when we drain.
	big := serveSpec()
	big.Matrix.Repeat = 8
	b1, err := s.Submit(big)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := s.Submit(serveSpec())
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, b1, StateRunning)

	s.Drain()

	if st := b1.Status(); st.State != StateDone || st.Completed != st.Jobs {
		t.Fatalf("in-flight batch after drain: %+v, want done with all jobs", st)
	}
	j1, terminal := b1.Journal()
	if !terminal {
		t.Fatal("in-flight batch journal not terminal after drain")
	}
	if parsed, err := fleet.ParseJournal(j1); err != nil || !parsed.Complete {
		t.Fatalf("in-flight batch journal incomplete after drain: %v", err)
	}

	if st := b2.Status(); st.State != StateInterrupted || st.Completed != 0 {
		t.Fatalf("queued batch after drain: %+v, want interrupted with 0 completed", st)
	}
	j2, terminal := b2.Journal()
	if !terminal {
		t.Fatal("queued batch journal not terminal after drain")
	}
	want, err := fleet.JournalHeaderForSpec(serveSpec())
	if err != nil {
		t.Fatal(err)
	}
	var ref bytes.Buffer
	if err := fleet.WriteJournalHeader(&ref, want); err != nil {
		t.Fatal(err)
	}
	if err := fleet.WriteJournalInterrupted(&ref, 0, want.Jobs); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ref.Bytes(), j2) {
		t.Fatalf("queued batch journal:\n%s\nwant:\n%s", j2, ref.Bytes())
	}

	// Drained server refuses new work over HTTP with 503.
	body, _ := json.Marshal(serveSpec())
	resp, err := http.Post(ts.URL+"/batches", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("POST while draining: %s, want 503", resp.Status)
	}
}

// TestServeStopCancelsInFlight: Stop (drain + cancel) interrupts the
// in-flight batch; its journal ends with an interrupted marker whose
// completed count matches the job lines already journalled, and a
// resumed CLI run could pick it up (it parses as incomplete).
func TestServeStopCancelsInFlight(t *testing.T) {
	p := newPipeline(t)
	s := New(p, Options{})

	big := serveSpec()
	big.Matrix.Repeat = 50
	big.Exec.Workers = 1
	b, err := s.Submit(big)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, b, StateRunning)
	s.Stop()

	st := b.Status()
	if st.State != StateInterrupted && st.State != StateDone {
		t.Fatalf("in-flight batch after stop: %+v", st)
	}
	raw, terminal := b.Journal()
	if !terminal {
		t.Fatal("journal not terminal after stop")
	}
	j, err := fleet.ParseJournal(raw)
	if err != nil {
		t.Fatalf("interrupted journal does not parse: %v", err)
	}
	if st.State == StateInterrupted {
		if j.Complete {
			t.Fatal("interrupted journal parses as complete")
		}
		if len(j.Results) != st.Completed {
			t.Fatalf("journal has %d job lines, status says %d completed", len(j.Results), st.Completed)
		}
	}
}

// TestServeRejectsUnknownFields pins the validation surface: POST
// /batches applies DisallowUnknownFields and ResolveSpec, exactly like
// `eilid-fleet -spec` on a file, and additionally refuses fault
// injection and matrices past MaxBatchJobs — each a 400 before
// anything is queued.
func TestServeRejectsUnknownFields(t *testing.T) {
	s := New(newPipeline(t), Options{})
	defer s.Stop()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, body := range []string{
		`{"matrix": {"apps": ["LightSensor"], "no_scenarios": true}, "typo_field": 1}`,
		`{"matrix": {"apps": ["NoSuchApp"], "no_scenarios": true}}`,
		`{"matrix": `, // truncated JSON
		`{"matrix": {"apps": ["LightSensor"], "no_scenarios": true}, "exec": {"workers": 1152921504606846976}}`,
		`{"matrix": {"apps": ["LightSensor"], "no_scenarios": true}, "exec": {"job_timeout": "1h"}, "fault": {"hang_at": [0], "hang_for": "1h"}}`,
		`{"matrix": {"apps": ["LightSensor"], "no_scenarios": true}, "fault": {"panic_at": [0]}}`,
		`{"matrix": {"no_apps": true, "no_scenarios": true, "generated": {"seed": 1, "count": 4611686018427387904}}}`,
		`{"matrix": {"apps": ["LightSensor"], "no_scenarios": true, "repeat": 4611686018427387904}}`,
		`{"matrix": {"no_apps": true, "no_scenarios": true, "generated": {"seed": 1, "count": 16385}}}`, // 65540 jobs
	} {
		resp, err := http.Post(ts.URL+"/batches", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST %s: got %s (%s), want 400", body, resp.Status, raw)
		}
	}
	s.mu.Lock()
	registered := len(s.order)
	s.mu.Unlock()
	if registered != 0 {
		t.Errorf("%d rejected batches were registered", registered)
	}
	if resp, err := http.Get(ts.URL + "/batches/b-999/journal"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET journal of unknown batch: %s, want 404", resp.Status)
		}
	}
}

// TestServeStatusEndpoints covers the list/status/healthz surfaces.
func TestServeStatusEndpoints(t *testing.T) {
	s := New(newPipeline(t), Options{})
	defer s.Stop()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	spec := fleet.BatchSpec{Matrix: fleet.MatrixSpec{Apps: []string{"LightSensor"}, NoScenarios: true}}
	st := postSpec(t, ts, spec)
	streamJournal(t, ts, st.ID) // wait for completion

	resp, err := http.Get(ts.URL + "/batches")
	if err != nil {
		t.Fatal(err)
	}
	var list []BatchStatus
	err = json.NewDecoder(resp.Body).Decode(&list)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 1 || list[0].ID != st.ID || list[0].State != StateDone {
		t.Fatalf("GET /batches = %+v", list)
	}
	if list[0].Completed != list[0].Jobs || list[0].Jobs == 0 {
		t.Fatalf("finished batch status = %+v", list[0])
	}

	resp, err = http.Get(ts.URL + "/batches/" + st.ID)
	if err != nil {
		t.Fatal(err)
	}
	var one BatchStatus
	err = json.NewDecoder(resp.Body).Decode(&one)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if one.State != StateDone || one.Fingerprint == "" {
		t.Fatalf("GET /batches/%s = %+v", st.ID, one)
	}

	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h struct {
		Status  string          `json:"status"`
		Batches int             `json:"batches"`
		Warm    fleet.WarmStats `json:"warm"`
	}
	err = json.NewDecoder(resp.Body).Decode(&h)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Batches != 1 {
		t.Fatalf("GET /healthz = %+v", h)
	}
}

// TestServeQueueFull: submissions beyond MaxQueue are rejected with
// errQueueFull (503 over HTTP) instead of growing without bound.
func TestServeQueueFull(t *testing.T) {
	p := newPipeline(t)
	s := New(p, Options{MaxQueue: 1})
	defer s.Stop()

	big := serveSpec()
	big.Matrix.Repeat = 8
	if _, err := s.Submit(big); err != nil {
		t.Fatal(err)
	}
	// Fill the queue behind the (possibly already running) first batch;
	// at most two submissions can be pending at once, so the third in a
	// row must fail.
	var sawFull bool
	for i := 0; i < 3; i++ {
		if _, err := s.Submit(serveSpec()); err == errQueueFull {
			sawFull = true
			break
		} else if err != nil {
			t.Fatal(err)
		}
	}
	if !sawFull {
		t.Fatal("queue never reported full with MaxQueue=1")
	}
}
