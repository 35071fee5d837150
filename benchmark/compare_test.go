package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// fakeSet builds a saved set whose runs read the given jobs_per_s
// values; every other end-to-end metric reads a steady 10.
func fakeSet(jobsPerS []float64, sim simTotals, digest string) *resultSet {
	wr := workloadResult{Name: "apps-baseline"}
	for _, v := range jobsPerS {
		o := newOutcome()
		for _, d := range endToEnd {
			o.Metrics[d.Name] = 10
		}
		o.Metrics["jobs_per_s"] = v
		o.Sim, o.Digest = sim, digest
		wr.Runs = append(wr.Runs, o)
	}
	return &resultSet{Seed: 1, Sizes: fullSizes, Workloads: []workloadResult{wr}}
}

func verdictOf(t *testing.T, rows []compareRow, metric string) string {
	t.Helper()
	for _, r := range rows {
		if r.metric == metric {
			return r.verdict
		}
	}
	t.Fatalf("no row for %s", metric)
	return ""
}

func TestCompareVerdicts(t *testing.T) {
	sim := simTotals{Jobs: 210, Cycles: 1000, Insns: 600}
	base := fakeSet([]float64{1000, 1010, 990, 1005, 995}, sim, "d1")
	cases := []struct {
		name string
		b    []float64
		want string
	}{
		{"same", []float64{1003, 998, 1008, 992, 1001}, verdictUnchanged},
		{"slower beyond bound", []float64{700, 710, 690, 705, 695}, verdictWorse},
		{"faster beyond bound", []float64{1400, 1410, 1390, 1405, 1395}, verdictBetter},
		{"too noisy to tell", []float64{600, 1400, 900, 1200, 700}, verdictUnresolved},
		{"quartiles overlap the bound", []float64{740, 760, 750, 770, 730}, verdictUnresolved},
		{"noisy but wholly slower", []float64{100, 300, 400, 500, 200}, verdictWorse},
		{"slower within the bound", []float64{850, 860, 840, 855, 845}, verdictUnchanged},
		{"noisy but every run faster", []float64{1100, 1900, 1500, 1300, 1700}, verdictUnchanged},
	}
	for _, c := range cases {
		rows, drift := compareSets(base, fakeSet(c.b, sim, "d1"))
		if got := verdictOf(t, rows, "jobs_per_s"); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
		if got := verdictOf(t, rows, "setup_s"); got != verdictUnchanged {
			t.Errorf("%s: steady setup_s judged %s", c.name, got)
		}
		if len(drift) != 0 {
			t.Errorf("%s: drift %v", c.name, drift)
		}
	}
}

func TestCompareCounterDrift(t *testing.T) {
	base := fakeSet([]float64{1000, 1000, 1000}, simTotals{Jobs: 210, Cycles: 1000, Insns: 600}, "d1")
	_, drift := compareSets(base, fakeSet([]float64{1000, 1000, 1000}, simTotals{Jobs: 210, Cycles: 1001, Insns: 600}, "d1"))
	if len(drift) != 1 || !strings.Contains(drift[0], "sim counters") {
		t.Errorf("cycle drift not reported: %v", drift)
	}
	_, drift = compareSets(base, fakeSet([]float64{1000, 1000, 1000}, simTotals{Jobs: 210, Cycles: 1000, Insns: 600}, "d2"))
	if len(drift) != 1 || !strings.Contains(drift[0], "digest") {
		t.Errorf("digest drift not reported: %v", drift)
	}
	other := fakeSet([]float64{1000, 1000, 1000}, simTotals{Jobs: 1}, "zz")
	other.Seed = 2
	if _, drift = compareSets(base, other); len(drift) != 0 {
		t.Errorf("sets of different seeds compared counters: %v", drift)
	}
}

// The command exits 0 on agreement and 1 on a regression or drift. A
// median past the bound fails even when the quartiles overlap it and
// the row reads unresolved.
func TestCompareFilesExitCodes(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, s *resultSet) string {
		b, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	sim := simTotals{Jobs: 210, Cycles: 1000, Insns: 600}
	a := write("a.json", fakeSet([]float64{1000, 1010, 990}, sim, "d1"))
	same := write("same.json", fakeSet([]float64{1005, 995, 1000}, sim, "d1"))
	slow := write("slow.json", fakeSet([]float64{700, 705, 695}, sim, "d1"))
	drift := write("drift.json", fakeSet([]float64{1005, 995, 1000}, sim, "d2"))
	overlapping := fakeSet([]float64{600, 740, 900}, sim, "d1")
	if rows, _ := compareSets(fakeSet([]float64{1000, 1010, 990}, sim, "d1"), overlapping); verdictOf(t, rows, "jobs_per_s") != verdictUnresolved {
		t.Fatalf("median 26%% slower with overlapping quartiles: verdict %s, want unresolved", verdictOf(t, rows, "jobs_per_s"))
	}
	medianPast := write("median-past.json", overlapping)
	// Within the bound, noisy runs stay unresolved and pass.
	noisyWithin := write("noisy-within.json", fakeSet([]float64{600, 900, 1300}, sim, "d1"))
	for _, c := range []struct {
		b    string
		want int
	}{{same, 0}, {slow, 1}, {drift, 1}, {medianPast, 1}, {noisyWithin, 0}} {
		var out, errb bytes.Buffer
		if got := run([]string{"-compare", a, c.b}, &out, &errb); got != c.want {
			t.Errorf("compare %s: exit %d, want %d\n%s%s", filepath.Base(c.b), got, c.want, out.String(), errb.String())
		}
	}
}
