package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
)

// host is the provenance stamped into a saved set.
type host struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	Commit     string `json:"commit"`
}

func hostInfo() host {
	h := host{GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), CPUModel: "unknown", Commit: "unknown"}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev, modified string
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				modified = s.Value
			}
		}
		if rev != "" {
			h.Commit = rev
			if modified == "true" {
				h.Commit += "+modified"
			}
		}
	}
	return h
}

// resultSet is a saved set of runs (-out) and what -compare reads.
type resultSet struct {
	Host      host             `json:"host"`
	Seed      uint64           `json:"seed"`
	Seconds   float64          `json:"seconds"`
	Traced    bool             `json:"traced"`
	Workers   int              `json:"workers"`
	Sizes     sizes            `json:"sizes"`
	Workloads []workloadResult `json:"workloads"`
}

// workloadResult holds every timed run of one workload and the
// distribution of each metric over them.
type workloadResult struct {
	Name    string             `json:"name"`
	Runs    []*runOutcome      `json:"runs"`
	Summary map[string]summary `json:"summary"`
}

// timedRuns is the number of timed runs of each workload in a set.
const timedRuns = 5

// runSet runs every workload round-robin — one discarded warm-up
// round, then timedRuns timed rounds — so slow stretches of a shared host
// spread across workloads instead of landing on one. Each run is a
// process of its own, as when run alone: a run's set-up is cold and its
// heap baseline holds nothing of the run before. It prints each
// metric's median and quartiles, checks that every run of a workload
// produced the same counters and journal digest, and exits non-zero on
// any failed check.
func runSet(cfg runConfig, outPath string, stdout, stderr io.Writer) int {
	set := &resultSet{Host: hostInfo(), Seed: cfg.seed, Seconds: cfg.seconds, Traced: cfg.trace, Workers: cfg.workers, Sizes: cfg.sizes}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	rounds := timedRuns + 1
	if cfg.trace {
		rounds = 1 // a traced set is one traced run per workload
	}
	for _, w := range workloads {
		set.Workloads = append(set.Workloads, workloadResult{Name: w.name})
	}
	failed := 0
	for round := 0; round < rounds; round++ {
		for i := range set.Workloads {
			wr := &set.Workloads[i]
			o, err := runChild(exe, wr.Name, cfg, stderr)
			if err != nil {
				fmt.Fprintf(stderr, "benchmark: %s: %v\n", wr.Name, err)
				return 1
			}
			failed += o.Failed
			if round == 0 && !cfg.trace {
				fmt.Fprintf(stderr, "benchmark: %s warm-up done\n", wr.Name)
				continue
			}
			wr.Runs = append(wr.Runs, o)
			fmt.Fprintf(stderr, "benchmark: %s run %d done\n", wr.Name, len(wr.Runs))
		}
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	for i := range set.Workloads {
		wr := &set.Workloads[i]
		wr.Summary = map[string]summary{}
		for _, d := range defs {
			var xs []float64
			for _, o := range wr.Runs {
				xs = append(xs, o.Metrics[d.Name])
			}
			wr.Summary[d.Name] = summarize(xs)
		}
		for _, k := range extraKeys(wr.Runs) {
			var xs []float64
			for _, o := range wr.Runs {
				if v, ok := o.Extra[k]; ok {
					xs = append(xs, v)
				}
			}
			wr.Summary[k] = summarize(xs)
		}
		first := wr.Runs[0]
		for _, o := range wr.Runs[1:] {
			if o.Sim != first.Sim || o.Digest != first.Digest {
				fmt.Fprintf(stderr, "benchmark: FAIL %s: runs disagree on counters or digest (%+v %.12s vs %+v %.12s)\n", wr.Name, first.Sim, first.Digest, o.Sim, o.Digest)
				failed++
			}
		}
	}
	printSet(stdout, set, defs)
	if outPath != "" {
		if err := writeJSON(outPath, set); err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 1
		}
	}
	if failed > 0 {
		fmt.Fprintf(stderr, "benchmark: %d failed checks\n", failed)
		return 1
	}
	return 0
}

// runChild runs one workload in a child process of this program and
// reads back its full outcome. The child's failed checks come back in
// the outcome; only a run that produced none is an error.
func runChild(exe, name string, cfg runConfig, stderr io.Writer) (*runOutcome, error) {
	path := filepath.Join(".bench_build", "outcome-"+name+".json")
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, err
	}
	if err := os.Remove(path); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return nil, err
	}
	args := []string{"-workload", name, "-seed", strconv.FormatUint(cfg.seed, 10),
		"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64), "-out", path}
	if cfg.trace {
		args = append(args, "-trace")
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = stderr
	runErr := cmd.Run()
	b, err := os.ReadFile(path)
	if err != nil {
		if runErr != nil {
			return nil, runErr
		}
		return nil, err
	}
	_ = os.Remove(path) // best effort: the next run of this workload removes it first anyway
	var o runOutcome
	if err := json.Unmarshal(b, &o); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &o, nil
}

// writeJSON writes v, indented, to path.
func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return nil
}

// extraKeys lists the breakdowns any run of a workload reported.
func extraKeys(runs []*runOutcome) []string {
	seen := map[string]bool{}
	var keys []string
	for _, o := range runs {
		for k := range o.Extra {
			if !seen[k] {
				seen[k] = true
				keys = append(keys, k)
			}
		}
	}
	sort.Strings(keys)
	return keys
}

// printSet prints one row per workload × metric — the listed metrics
// with their units, then the unlisted breakdowns, each with its spread
// (IQR over median) — and each workload's deterministic counters and
// digest.
func printSet(w io.Writer, set *resultSet, defs []metricDef) {
	fmt.Fprintf(w, "host: %s, GOMAXPROCS %d, nproc %d, %s, commit %s\n", set.Host.GoVersion, set.Host.GOMAXPROCS, set.Host.NumCPU, set.Host.CPUModel, set.Host.Commit)
	fmt.Fprintf(w, "seed %d, %.0f s per run, %d workers\n", set.Seed, set.Seconds, set.Workers)
	fmt.Fprintf(w, "%-16s %-36s %14s %14s %14s %7s %-10s %3s\n", "workload", "metric", "median", "q1", "q3", "spread", "unit", "n")
	row := func(wl, name, unit string, s summary) {
		fmt.Fprintf(w, "%-16s %-36s %14.6g %14.6g %14.6g %6.1f%% %-10s %3d\n", wl, name, s.Median, s.Q1, s.Q3, 100*s.spread(), unit, s.N)
	}
	for _, wr := range set.Workloads {
		for _, d := range defs {
			row(wr.Name, d.Name, d.Unit, wr.Summary[d.Name])
		}
		for _, k := range extraKeys(wr.Runs) {
			row(wr.Name, k, "", wr.Summary[k])
		}
	}
	for _, wr := range set.Workloads {
		o := wr.Runs[0]
		fmt.Fprintf(w, "%-16s sim.jobs %d sim.cycles %d sim.insns %d digest %s\n", wr.Name, o.Sim.Jobs, o.Sim.Cycles, o.Sim.Insns, o.Digest)
	}
}
