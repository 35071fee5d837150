package fleet

import (
	"bytes"
	"encoding/json"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"eilid/internal/core"
)

// FuzzParseJournal feeds arbitrary bytes to the journal parser that
// -resume runs on files a crash may have torn. The committed corpus
// under testdata/fuzz/FuzzParseJournal holds a small real journal
// (eilid-fleet -gen 3 -seed 1 -no-apps -no-scenarios) and a torn copy.
// The parser must never panic, and every journal it accepts must keep
// its result indices in [0, Header.Jobs) and report the offset a resume
// cuts it at (checkIntact). Every accepted journal whose
// header matrix holds at most 64 jobs then goes through what -resume
// does next, against a runner rebuilt from its header (checkResume).
// A journal that parses whole (not torn) must also survive the crashes
// that could have torn it: cut after its header line, at each line's
// start, one byte in, its middle and one byte before its end, it
// parses without error into a subset of its results.
// (TestParseJournalEveryCut tries every byte of a real journal; trying
// every byte here would make each input cost thousands of parses.)
func FuzzParseJournal(f *testing.F) {
	rebuilt := &rebuiltRunners{p: newPipeline(f), byFingerprint: map[string]*Runner{}}
	seed, err := ParseJournal(corpusEntry(f, "FuzzParseJournal", "seed-gen3"))
	if err != nil {
		f.Fatal(err)
	}
	if r := rebuilt.runner(seed); r == nil {
		f.Fatal("no runner rebuilt from the seed-gen3 header")
	} else if err := seed.Validate(r); err != nil {
		f.Fatalf("committed seed-gen3 journal does not validate: %v", err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		j, err := ParseJournal(data)
		if err != nil {
			return
		}
		for idx, r := range j.Results {
			if idx < 0 || idx >= j.Header.Jobs || r.Index != idx {
				t.Fatalf("result %d (index %d) outside [0, %d)", idx, r.Index, j.Header.Jobs)
			}
		}
		checkIntact(t, data, j)
		if r := rebuilt.runner(j); r != nil {
			checkResume(t, j, r)
		}
		if j.Truncated {
			return
		}
		unique := resultLines(data) == len(j.Results)
		for off := headerEnd(data); off < len(data); {
			line, _, _ := bytes.Cut(data[off:], []byte("\n"))
			for _, d := range []int{0, 1, len(line) / 2, len(line) - 1} {
				if d >= 0 && d <= len(line) {
					checkCut(t, data, j, unique, off+d)
				}
			}
			off += len(line) + 1
		}
		checkCut(t, data, j, unique, len(data))
	})
}

// rebuiltRunners builds the runner -resume would rebuild from a
// journal header, once per fingerprint: the fuzzer mutates job lines
// far more often than it forges a header whose fingerprint matches.
// A fuzz process calls its target sequentially, so no lock is needed.
type rebuiltRunners struct {
	p             *core.Pipeline
	byFingerprint map[string]*Runner // nil: the header names no buildable matrix of at most 64 jobs
}

func (rr *rebuiltRunners) runner(j *Journal) *Runner {
	fp := j.Header.Fingerprint
	if r, ok := rr.byFingerprint[fp]; ok {
		return r
	}
	var r *Runner
	spec := j.Header.Spec.Batch()
	if rs, err := ResolveSpec(spec); err == nil {
		if _, ok := rs.Matrix.JobCount(64); ok {
			spec.Exec.Workers = 1
			r, _ = NewRunner(rr.p, spec)
		}
	}
	rr.byFingerprint[fp] = r
	return r
}

// checkResume holds a parsed journal to what -resume relies on. The
// header's jobs field is not fingerprinted, so Validate must refuse a
// count that disagrees with the rebuilt matrix — the journal's own, or
// one off by one either way — before Remaining loops over it. Once
// Validate accepts, Remaining must list, ascending and in range,
// exactly the indices with no record or an error record, and Merged
// must succeed exactly when every index has a record — which includes
// every journal with nothing remaining. (A resume re-runs an error
// record and journals it again when the failure is deterministic, so
// Merged accepts error records.)
func checkResume(t *testing.T, j *Journal, r *Runner) {
	t.Helper()
	for _, d := range []int{-1, 1} {
		forged := *j
		forged.Header.Jobs += d
		if forged.Validate(r) == nil {
			t.Fatalf("Validate accepted a header claiming %d jobs for a %d-job matrix", forged.Header.Jobs, len(r.jobs))
		}
	}
	if err := j.Validate(r); err != nil {
		return
	}
	if j.Header.Jobs != len(r.jobs) {
		t.Fatalf("Validate accepted %d jobs against a %d-job matrix", j.Header.Jobs, len(r.jobs))
	}
	need := make([]bool, j.Header.Jobs)
	for i := range need {
		need[i] = true
	}
	missing := len(need) - len(j.Results)
	for idx, jr := range j.Results {
		if jr.Err == "" {
			need[idx] = false
		}
	}
	rem := j.Remaining()
	for k, i := range rem {
		if i < 0 || i >= len(need) || k > 0 && i <= rem[k-1] {
			t.Fatalf("Remaining() = %v: not ascending in [0, %d)", rem, len(need))
		}
		if !need[i] {
			t.Fatalf("Remaining() lists job %d, which has a clean record", i)
		}
		need[i] = false
	}
	if i := slices.Index(need, true); i >= 0 {
		t.Fatalf("Remaining() = %v omits job %d, which has no clean record", rem, i)
	}
	merged, err := j.Merged()
	if (err == nil) != (missing == 0) {
		t.Fatalf("Merged() err = %v with %d jobs unrecorded", err, missing)
	}
	if len(rem) == 0 && err != nil {
		t.Fatalf("Merged() failed with nothing remaining: %v", err)
	}
	if err == nil && len(merged) != len(r.jobs) {
		t.Fatalf("Merged() returned %d results for %d jobs", len(merged), len(r.jobs))
	}
}

// corpusEntry decodes one committed []byte input of a fuzz target's
// seed corpus.
func corpusEntry(tb testing.TB, target, name string) []byte {
	tb.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", "fuzz", target, name))
	if err != nil {
		tb.Fatal(err)
	}
	_, lit, _ := strings.Cut(strings.TrimSpace(string(raw)), "\n")
	lit = strings.TrimSuffix(strings.TrimPrefix(lit, "[]byte("), ")")
	s, err := strconv.Unquote(lit)
	if err != nil {
		tb.Fatalf("%s/%s: %v", target, name, err)
	}
	return []byte(s)
}

// TestParseJournalEveryCut runs the fuzz corpus's batch and checks the
// prefix property at every byte after the journal's header line: each
// file a crash could leave behind must resume without error and hold
// only results of the whole journal.
func TestParseJournalEveryCut(t *testing.T) {
	r, err := NewRunner(newPipeline(t), BatchSpec{Matrix: MatrixSpec{
		NoApps: true, NoScenarios: true, Generated: GeneratedSpec{Seed: 1, Count: 3},
	}})
	if err != nil {
		t.Fatal(err)
	}
	data, _ := journalRun(t, r, -1)
	j, err := ParseJournal(data)
	if err != nil {
		t.Fatal(err)
	}
	if !j.Complete || len(j.Results) != len(r.Jobs()) {
		t.Fatalf("whole journal: complete %v, %d of %d results", j.Complete, len(j.Results), len(r.Jobs()))
	}
	start := headerEnd(data)
	for cut := start; cut <= len(data); cut++ {
		checkCut(t, data, j, true, cut)
	}
	t.Logf("%d cuts of a %d-byte journal", len(data)-start+1, len(data))
}

// checkCut parses data[:cut] and requires a subset of whole's results.
// With an index journaled twice a prefix may hold the earlier line; the
// runner never writes one twice, so values are compared only when every
// result line of data is unique.
func checkCut(t *testing.T, data []byte, whole *Journal, unique bool, cut int) {
	t.Helper()
	pj, err := ParseJournal(data[:cut])
	if err != nil {
		t.Fatalf("cut at byte %d of %d: %v", cut, len(data), err)
	}
	checkIntact(t, data[:cut], pj)
	for idx, r := range pj.Results {
		if full, ok := whole.Results[idx]; !ok || unique && full != r {
			t.Fatalf("cut at byte %d: result %d is not in the whole journal", cut, idx)
		}
	}
}

// checkIntact holds a parsed journal's Intact offset to what a resume
// does with it: a journal that is not torn is intact to its end, and a
// torn one, cut there, parses whole to the same results.
func checkIntact(t *testing.T, data []byte, j *Journal) {
	t.Helper()
	if !j.Truncated {
		if j.Intact != len(data) {
			t.Fatalf("whole journal of %d bytes is intact to byte %d", len(data), j.Intact)
		}
		return
	}
	kept, err := ParseJournal(data[:j.Intact])
	if err != nil {
		t.Fatalf("torn journal cut at its intact byte %d: %v", j.Intact, err)
	}
	if kept.Truncated || !maps.Equal(kept.Results, j.Results) {
		t.Fatalf("torn journal cut at its intact byte %d: truncated %v, %d of %d results",
			j.Intact, kept.Truncated, len(kept.Results), len(j.Results))
	}
}

// headerEnd returns the offset just past the first non-blank line, the
// header of a journal ParseJournal accepted.
func headerEnd(data []byte) int {
	off := 0
	for off < len(data) {
		line, _, _ := bytes.Cut(data[off:], []byte("\n"))
		off += len(line) + 1
		if len(bytes.TrimSpace(line)) > 0 {
			break
		}
	}
	return min(off, len(data))
}

// resultLines counts the lines of data that are job results rather than
// journal markers.
func resultLines(data []byte) int {
	n := 0
	for _, line := range bytes.Split(data, []byte("\n")) {
		var probe struct {
			Journal string `json:"journal"`
		}
		if len(bytes.TrimSpace(line)) > 0 && json.Unmarshal(line, &probe) == nil && probe.Journal == "" {
			n++
		}
	}
	return n
}
