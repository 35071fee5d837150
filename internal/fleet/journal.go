package fleet

// The NDJSON stream eilid-fleet writes is a resumable journal:
//
//	{"journal":"eilid-fleet","version":1,"fingerprint":"…","jobs":N,"spec":{…}}
//	{"index":0,"kind":"app", …}            one line per completed job
//	…
//	{"journal":"interrupted","completed":K,"jobs":N}   (on shutdown)
//	{"journal":"summary","jobs":N, …}                  (on completion)
//
// The header fingerprints the resolved matrix spec (apps, scenarios,
// defenses, repeat, generated seed/count — everything that determines
// job identity; worker count and the watchdog are deliberately
// excluded because they must not change results), so a
// resume can rebuild the exact matrix from the file alone and refuse
// files built by a different matrix or registry. Every line that is not
// a job result carries a "journal" marker field; job lines are plain
// JobResults, unchanged from the pre-journal stream.
//
// The summary line contains only deterministic aggregates — no worker
// count, no wall-clock — so a completed journal is byte-identical
// across worker counts, recycled and freshly built machines, and
// interrupt/resume cycles. That byte-identity is the crash-safety
// acceptance bar the differential suites pin.
//
// A journal is append-safe: a resume appends newly computed job lines
// (and, if interrupted again, another interrupted marker) before
// compacting the file into canonical order, so a crash mid-resume
// loses nothing. ParseJournal tolerates a truncated final line — the
// signature of a crash mid-write — and treats the affected job as
// never run; the resume cuts that line off (Journal.Intact) before its
// first append.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
)

// JournalVersion is the format version stamped into (and required of)
// every journal header.
const JournalVersion = 1

// journalMagic identifies the header line; the other marker values are
// "interrupted" and "summary".
const journalMagic = "eilid-fleet"

// JournalSpec is the resolved, canonical matrix description stored in
// the header: explicit name lists (never "nil = all", which would drift
// with the registry) plus the generated dimension. It deliberately
// omits workers and the watchdog — execution knobs that must not
// change results.
type JournalSpec struct {
	Apps      []string `json:"apps,omitempty"`
	Scenarios []string `json:"scenarios,omitempty"`
	Defenses  []string `json:"defenses"`
	Repeat    int      `json:"repeat"`
	GenSeed   uint64   `json:"gen_seed,omitempty"`
	GenCount  int      `json:"gen_count,omitempty"`
}

// Fingerprint is the sha256 of the spec's canonical JSON encoding.
func (s JournalSpec) Fingerprint() string {
	b, err := json.Marshal(s)
	if err != nil {
		// JournalSpec contains only marshal-safe fields.
		panic(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// journalSpec derives the journal-header matrix description from a
// resolved MatrixSpec. It is a pure projection — JournalHeader,
// JournalHeaderForSpec and resume all fingerprint through it, so there
// is exactly one place the canonical JSON shape lives (pinned
// bytes-and-sha256 by the golden-fingerprint test).
func (m MatrixSpec) journalSpec() JournalSpec {
	s := JournalSpec{
		Apps:      m.Apps,
		Scenarios: m.Scenarios,
		Defenses:  make([]string, 0, len(m.Defenses)),
		Repeat:    m.Repeat,
		GenSeed:   m.Generated.Seed,
		GenCount:  m.Generated.Count,
	}
	s.Defenses = append(s.Defenses, m.Defenses...)
	if s.GenCount == 0 {
		// A zero-count dimension ignores its seed; canonicalize so the
		// fingerprint does not depend on an unused value.
		s.GenSeed = 0
	}
	return s
}

// Batch reconstructs a BatchSpec selecting exactly the journalled
// matrix. Execution knobs (workers, watchdog) are the caller's to fill
// in.
func (s JournalSpec) Batch() BatchSpec {
	return BatchSpec{Matrix: MatrixSpec{
		Apps:        s.Apps,
		NoApps:      len(s.Apps) == 0,
		Scenarios:   s.Scenarios,
		NoScenarios: len(s.Scenarios) == 0,
		Defenses:    s.Defenses,
		Repeat:      s.Repeat,
		Generated:   GeneratedSpec{Seed: s.GenSeed, Count: s.GenCount},
	}}
}

// JournalHeader is the first line of every journal.
type JournalHeader struct {
	Journal     string      `json:"journal"`
	Version     int         `json:"version"`
	Fingerprint string      `json:"fingerprint"`
	Jobs        int         `json:"jobs"`
	Spec        JournalSpec `json:"spec"`
}

// journalInterrupted marks a graceful shutdown: everything before it is
// final, everything else is the resume's to run.
type journalInterrupted struct {
	Journal   string `json:"journal"`
	Completed int    `json:"completed"`
	Jobs      int    `json:"jobs"`
}

// JournalSummary is the deterministic final line of a completed
// journal: aggregate counters and the detection matrix, with the
// wall-clock and worker figures deliberately left out so completed
// journals compare byte-for-byte.
type JournalSummary struct {
	Journal      string                            `json:"journal"`
	Jobs         int                               `json:"jobs"`
	Failures     int                               `json:"failures"`
	ChecksFailed int                               `json:"checks_failed"`
	TotalCycles  uint64                            `json:"total_cycles"`
	TotalInsns   uint64                            `json:"total_insns"`
	Matrix       map[string]map[string]*MatrixCell `json:"matrix,omitempty"`
}

// JournalHeader builds the header describing this runner's matrix,
// derived from the runner's resolved BatchSpec.
func (r *Runner) JournalHeader() *JournalHeader {
	return newJournalHeader(r.spec.Matrix, len(r.jobs))
}

// JournalHeaderForSpec builds the journal header a batch with this
// spec will carry, without building any artifacts: the job count is
// arithmetic over the resolved matrix (the generator emits exactly
// Count items, each a distinct scenario). It is byte-identical to the
// header Runner.JournalHeader writes for the same spec — the service
// mode relies on that to journal batches that never started (drained
// while queued) without paying a runner's preparation cost.
func JournalHeaderForSpec(spec BatchSpec) (*JournalHeader, error) {
	rs, err := ResolveSpec(spec)
	if err != nil {
		return nil, err
	}
	jobs, ok := rs.Matrix.JobCount(math.MaxInt)
	if !ok {
		return nil, fmt.Errorf("fleet: matrix job count overflows")
	}
	return newJournalHeader(rs.Matrix, jobs), nil
}

// newJournalHeader builds the header of a batch over the matrix m
// with the given job count.
func newJournalHeader(m MatrixSpec, jobs int) *JournalHeader {
	spec := m.journalSpec()
	return &JournalHeader{
		Journal:     journalMagic,
		Version:     JournalVersion,
		Fingerprint: spec.Fingerprint(),
		Jobs:        jobs,
		Spec:        spec,
	}
}

// writeLine marshals v and writes it as one NDJSON line.
func writeLine(w io.Writer, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// WriteJournalHeader emits the header line.
func WriteJournalHeader(w io.Writer, h *JournalHeader) error { return writeLine(w, h) }

// WriteJournalInterrupted emits the interrupted marker after a graceful
// shutdown has drained the in-flight jobs.
func WriteJournalInterrupted(w io.Writer, completed, jobs int) error {
	return writeLine(w, &journalInterrupted{Journal: "interrupted", Completed: completed, Jobs: jobs})
}

// WriteJournalSummary emits the deterministic summary line for a
// completed batch.
func WriteJournalSummary(w io.Writer, rep *Report) error {
	return writeLine(w, &JournalSummary{
		Journal:      "summary",
		Jobs:         rep.Jobs,
		Failures:     rep.Failures,
		ChecksFailed: rep.ChecksFailed,
		TotalCycles:  rep.TotalCycles,
		TotalInsns:   rep.TotalInsns,
		Matrix:       rep.Matrix,
	})
}

// WriteJournal runs every job (Run with nil indices) and writes the
// batch's journal to w: the header, each job's line in one Write as
// soon as the job and its predecessors complete, then the summary — or
// the interrupted marker when cancel cut the batch short. onJob (nil =
// none) sees each job after its line is written, so a caller's progress
// never runs ahead of its journal. It returns the first write error: a
// failed header runs no job, and after a failed line nothing more is
// written.
func (r *Runner) WriteJournal(w io.Writer, cancel <-chan struct{}, onJob func(JobResult)) (rep *Report, interrupted bool, err error) {
	if err := WriteJournalHeader(w, r.JournalHeader()); err != nil {
		return nil, false, err
	}
	var werr error
	rep, interrupted, err = r.Run(nil, cancel, func(jr JobResult) {
		if werr != nil {
			return
		}
		if werr = WriteNDJSONLine(w, jr); werr == nil && onJob != nil {
			onJob(jr)
		}
	})
	if err == nil {
		err = werr
	}
	if err != nil {
		return rep, interrupted, err
	}
	if interrupted {
		return rep, true, WriteJournalInterrupted(w, rep.Jobs, len(r.jobs))
	}
	return rep, false, WriteJournalSummary(w, rep)
}

// Journal is a parsed journal file.
type Journal struct {
	Header JournalHeader
	// Results holds the last recorded result per job index (a resume's
	// re-run line supersedes the failure it replaces).
	Results map[int]JobResult
	// Complete reports whether a summary line was seen.
	Complete bool
	// Truncated reports whether the final line was cut off mid-write —
	// the signature of a hard crash; the partial line is ignored.
	Truncated bool
	// Intact is how many leading bytes of the input hold whole lines:
	// the offset where the torn final line starts when Truncated, the
	// input's length otherwise. A resume cuts the file there before it
	// appends, so no new line is glued onto the partial bytes.
	Intact int
}

// ParseJournal reads a journal stream. It fails on a missing or
// mismatched header and on corruption anywhere but the final line;
// a truncated final line (crash mid-write) is tolerated and reported
// via Truncated.
func ParseJournal(data []byte) (*Journal, error) {
	j := &Journal{Results: map[int]JobResult{}, Intact: len(data)}
	lines := bytes.Split(data, []byte("\n"))
	// Locate the last non-empty line: only a torn write there — the
	// crash signature — is tolerated.
	last := -1
	for i := len(lines) - 1; i >= 0; i-- {
		if len(bytes.TrimSpace(lines[i])) > 0 {
			last = i
			break
		}
	}
	seenHeader := false
	next := 0 // offset of the line after this one
	for li, line := range lines {
		start := next
		next += len(line) + 1
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var probe struct {
			Journal string `json:"journal"`
		}
		parseErr := json.Unmarshal(line, &probe)
		if parseErr == nil && probe.Journal == "" {
			var jr JobResult
			if err := json.Unmarshal(line, &jr); err != nil {
				parseErr = err
			} else if !seenHeader {
				return nil, fmt.Errorf("fleet: journal does not start with a header line (pre-journal NDJSON stream?)")
			} else if jr.Index < 0 || jr.Index >= j.Header.Jobs {
				parseErr = fmt.Errorf("job index %d out of range [0, %d)", jr.Index, j.Header.Jobs)
			} else {
				j.Results[jr.Index] = jr
				continue
			}
		}
		if parseErr != nil {
			if li == last {
				j.Truncated, j.Intact = true, start
				break
			}
			return nil, fmt.Errorf("fleet: journal line %d corrupt: %w", li+1, parseErr)
		}
		switch probe.Journal {
		case journalMagic:
			if seenHeader {
				return nil, fmt.Errorf("fleet: journal line %d: duplicate header", li+1)
			}
			if err := json.Unmarshal(line, &j.Header); err != nil {
				return nil, fmt.Errorf("fleet: journal header corrupt: %w", err)
			}
			if j.Header.Version != JournalVersion {
				return nil, fmt.Errorf("fleet: journal version %d, this build reads %d", j.Header.Version, JournalVersion)
			}
			if fp := j.Header.Spec.Fingerprint(); fp != j.Header.Fingerprint {
				return nil, fmt.Errorf("fleet: journal fingerprint mismatch: header says %.12s…, spec hashes to %.12s…", j.Header.Fingerprint, fp)
			}
			seenHeader = true
		case "interrupted":
			// Informational; the per-index results decide what remains.
		case "summary":
			j.Complete = true
		default:
			return nil, fmt.Errorf("fleet: journal line %d: unknown marker %q", li+1, probe.Journal)
		}
		if !seenHeader {
			return nil, fmt.Errorf("fleet: journal does not start with a header line")
		}
	}
	if !seenHeader {
		return nil, fmt.Errorf("fleet: journal has no header line")
	}
	return j, nil
}

// Validate checks the journal against a runner rebuilt from its spec:
// fingerprint, job count, and the identity of every recorded job. It
// catches a journal produced by a different matrix, registry or
// generator — resuming one would silently splice unrelated results.
func (j *Journal) Validate(r *Runner) error {
	h := r.JournalHeader()
	if h.Fingerprint != j.Header.Fingerprint {
		return fmt.Errorf("fleet: journal fingerprint %.12s… does not match the rebuilt matrix %.12s…", j.Header.Fingerprint, h.Fingerprint)
	}
	if h.Jobs != j.Header.Jobs {
		return fmt.Errorf("fleet: journal enumerates %d jobs, the rebuilt matrix %d", j.Header.Jobs, h.Jobs)
	}
	for idx, jr := range j.Results {
		if jr.Job != r.jobs[idx] {
			return fmt.Errorf("fleet: journal job %d is %s/%s/%s, the rebuilt matrix has %s/%s/%s",
				idx, jr.Kind, jr.Name, jr.Defense, r.jobs[idx].Kind, r.jobs[idx].Name, r.jobs[idx].Defense)
		}
	}
	return nil
}

// Remaining lists the job indices a resume must run: never recorded, or
// recorded as failed — a failure re-runs clean after a panic, watchdog
// abandonment or crash, and re-runs to the identical record when it
// was deterministic.
func (j *Journal) Remaining() []int {
	var out []int
	for i := 0; i < j.Header.Jobs; i++ {
		if jr, ok := j.Results[i]; !ok || jr.Err != "" {
			out = append(out, i)
		}
	}
	return out
}

// Merged returns the full result set in canonical job order. Every
// index needs a recorded result, failed or not: a job that failed again
// on resume keeps its new error record, and Merged returns it like any
// other, though Remaining still lists it.
func (j *Journal) Merged() ([]JobResult, error) {
	out := make([]JobResult, j.Header.Jobs)
	for i := range out {
		jr, ok := j.Results[i]
		if !ok {
			return nil, fmt.Errorf("fleet: journal still missing job %d", i)
		}
		out[i] = jr
	}
	return out, nil
}

// WriteJournalFile durably writes a complete canonical journal —
// header, every job line in index order, deterministic summary — via
// WriteFileAtomic, so neither a crash nor a power loss can leave a
// torn or empty file where a complete journal used to be. The resume
// compaction goes through it, which is what keeps a resumed journal
// byte-identical to an uninterrupted run's.
func WriteJournalFile(path string, h *JournalHeader, results []JobResult, rep *Report) error {
	return WriteFileAtomic(path, func(w io.Writer) error {
		if err := WriteJournalHeader(w, h); err != nil {
			return err
		}
		for _, jr := range results {
			if err := WriteNDJSONLine(w, jr); err != nil {
				return err
			}
		}
		return WriteJournalSummary(w, rep)
	})
}
