package fleet

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzParseJournal feeds arbitrary bytes to the journal parser that
// -resume runs on files a crash may have torn. The committed corpus
// under testdata/fuzz/FuzzParseJournal holds a small real journal
// (eilid-fleet -gen 3 -seed 1 -no-apps -no-scenarios) and a torn copy.
// The parser must never panic, and every journal it accepts must keep
// its result indices in [0, Header.Jobs). A journal that parses whole
// (not torn) must also survive the crashes that could have torn it:
// cut after its header line, at each line's start, one byte in, its
// middle and one byte before its end, it parses without error into a
// subset of its results. (TestParseJournalEveryCut tries every byte of
// a real journal; trying every byte here would make each input cost
// thousands of parses.)
func FuzzParseJournal(f *testing.F) {
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
	for idx, r := range pj.Results {
		if full, ok := whole.Results[idx]; !ok || unique && full != r {
			t.Fatalf("cut at byte %d: result %d is not in the whole journal", cut, idx)
		}
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
