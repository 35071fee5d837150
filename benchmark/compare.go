package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// Comparison verdicts for one metric × workload row.
const (
	verdictUnchanged  = "unchanged"
	verdictBetter     = "better"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// compareRow is one metric on one workload across two sets.
type compareRow struct {
	workload, metric string
	a, b             summary
	change           float64 // (b − a) / a, signed so that > 0 is worse
	bound            float64
	verdict          string
}

// compareMetric judges b against a. The runs allow a range of changes,
// from b's best quartile against a's worst to b's worst against a's
// best. A range wholly past the bound is better or worse; one within it
// is unchanged. A range that overlaps the bound, or a side whose own
// spread is wider than the bound, cannot be told from noise, so the row
// is unresolved — unless every run of b beats every run of a, which
// rules out a regression.
func compareMetric(d metricDef, a, b []float64) compareRow {
	row := compareRow{metric: d.Name, a: summarize(a), b: summarize(b), bound: d.Bound}
	sign := 1.0
	if d.Better == "higher" {
		sign = -1
	}
	scale := math.Abs(row.a.Median)
	if scale == 0 {
		scale = 1
	}
	row.change = sign * (row.b.Median - row.a.Median) / scale
	c1 := sign * (row.b.Q1 - row.a.Q3) / scale
	c3 := sign * (row.b.Q3 - row.a.Q1) / scale
	lo, hi := min(c1, c3), max(c1, c3)
	switch {
	case lo > d.Bound:
		row.verdict = verdictWorse
	case hi < -d.Bound:
		row.verdict = verdictBetter
	case separated(a, b, sign):
		row.verdict = verdictUnchanged
	case row.a.spread() > d.Bound || row.b.spread() > d.Bound || lo < -d.Bound || hi > d.Bound:
		row.verdict = verdictUnresolved
	default:
		row.verdict = verdictUnchanged
	}
	return row
}

// separated reports whether every value of better beats every value of
// worse; sign is +1 when lower is better.
func separated(worse, better []float64, sign float64) bool {
	if len(worse) == 0 || len(better) == 0 {
		return false
	}
	for _, w := range worse {
		for _, b := range better {
			if sign*(b-w) >= 0 {
				return false
			}
		}
	}
	return true
}

// compareSets compares every end-to-end metric of every workload the
// two sets share, and their deterministic counters and digests when
// both ran the same inputs. It returns the rows and the count of
// failures: metrics worse than their bound, and counter or digest
// drift.
func compareSets(a, b *resultSet) ([]compareRow, []string) {
	var rows []compareRow
	var drift []string
	bByName := map[string]workloadResult{}
	for _, wr := range b.Workloads {
		bByName[wr.Name] = wr
	}
	for _, wa := range a.Workloads {
		wb, ok := bByName[wa.Name]
		if !ok || len(wa.Runs) == 0 || len(wb.Runs) == 0 {
			continue
		}
		if !a.Traced && !b.Traced {
			for _, d := range endToEnd {
				var xa, xb []float64
				for _, o := range wa.Runs {
					xa = append(xa, o.Metrics[d.Name])
				}
				for _, o := range wb.Runs {
					xb = append(xb, o.Metrics[d.Name])
				}
				row := compareMetric(d, xa, xb)
				row.workload = wa.Name
				rows = append(rows, row)
			}
		}
		if a.Seed != b.Seed || a.Sizes != b.Sizes {
			continue
		}
		ra, rb := wa.Runs[0], wb.Runs[0]
		if ra.Sim != rb.Sim {
			drift = append(drift, fmt.Sprintf("%s: sim counters %+v vs %+v", wa.Name, ra.Sim, rb.Sim))
		}
		if ra.Digest != rb.Digest {
			drift = append(drift, fmt.Sprintf("%s: journal digest %s vs %s", wa.Name, ra.Digest, rb.Digest))
		}
	}
	return rows, drift
}

func loadSet(path string) (*resultSet, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var set resultSet
	if err := json.Unmarshal(b, &set); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &set, nil
}

// compareFiles prints the comparison of two saved sets and exits 1 when
// a metric's median got worse by more than its bound or a counter or
// digest changed. The gate is the median alone, whatever the verdict
// says about noise; a worse verdict implies it, as the change of the
// median lies within the range the quartiles allow.
func compareFiles(pa, pb string, stdout, stderr io.Writer) int {
	a, err := loadSet(pa)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 2
	}
	b, err := loadSet(pb)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 2
	}
	rows, drift := compareSets(a, b)
	fmt.Fprintf(stdout, "a: %s (%s)\nb: %s (%s)\n", pa, a.Host.Commit, pb, b.Host.Commit)
	fmt.Fprintf(stdout, "%-16s %-20s %12s %23s %12s %23s %8s %6s  %s\n", "workload", "metric", "a median", "a [q1, q3]", "b median", "b [q1, q3]", "change", "bound", "verdict")
	worse := 0
	for _, r := range rows {
		mark := ""
		if r.change > r.bound {
			mark = "  FAIL"
			worse++
		}
		fmt.Fprintf(stdout, "%-16s %-20s %12.5g [%10.5g, %10.5g] %12.5g [%10.5g, %10.5g] %+7.1f%% %5.0f%%  %s%s\n",
			r.workload, r.metric, r.a.Median, r.a.Q1, r.a.Q3, r.b.Median, r.b.Q1, r.b.Q3, 100*r.change, 100*r.bound, r.verdict, mark)
	}
	if a.Seed != b.Seed || a.Sizes != b.Sizes {
		fmt.Fprintln(stdout, "counters and digests not compared: the sets ran different seeds or sizes")
	} else if len(drift) == 0 {
		fmt.Fprintln(stdout, "counters and digests: identical")
	}
	for _, d := range drift {
		fmt.Fprintf(stdout, "DRIFT %s\n", d)
	}
	if worse > 0 || len(drift) > 0 {
		return 1
	}
	return 0
}
