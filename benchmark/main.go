// Command benchmark measures the EILID fleet end to end on four
// workloads of real fleet work — Table IV apps and attacks under every
// defense column, on recycled machines, through the oracle, the
// journal and the fleetd HTTP service — and, in a separate traced run,
// layer by layer. It drives the system through its public entry points
// only. See README.md for the workloads, metrics and bounds.
//
//	benchmark -workload NAME [-seed N] [-seconds S] [-trace 0|1]   one run, result as a JSON last line
//	benchmark [-seed N] [-seconds S] [-trace] [-out FILE]           a set of interleaved runs of every workload
//	benchmark -compare a.json b.json                                compare two saved sets
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// boolArgs rewrites "-trace 0" / "--trace 1" into the "-trace=false" /
// "-trace=true" form the flag package needs for a boolean that is also
// usable bare.
func boolArgs(args []string, name string) []string {
	values := map[string]string{"0": "false", "1": "true", "false": "false", "true": "true"}
	out := make([]string, 0, len(args))
	for i := 0; i < len(args); i++ {
		a := args[i]
		if (a == "-"+name || a == "--"+name) && i+1 < len(args) {
			if v, ok := values[args[i+1]]; ok {
				out = append(out, "-"+name+"="+v)
				i++
				continue
			}
		}
		out = append(out, a)
	}
	return out
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "run one workload (one of "+strings.Join(workloadNames(), ", ")+") and print its result as a JSON last line")
	seed := fs.Uint64("seed", 1, "seed of the generated inputs (fleetd-service)")
	seconds := fs.Float64("seconds", 10, "seconds one run measures")
	trace := fs.Bool("trace", false, "traced run: per-layer metrics, a CPU profile by module and a Chrome trace")
	outPath := fs.String("out", "", "write the results to this JSON file: a set's, or one run's full outcome")
	compare := fs.Bool("compare", false, "compare two result files: benchmark -compare a.json b.json")
	if err := fs.Parse(boolArgs(args, "trace")); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "benchmark: -compare takes two result files")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "benchmark: unexpected arguments %q\n", fs.Args())
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintln(stderr, "benchmark: -seconds must be positive")
		return 2
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, trace: *trace, workers: defaultWorkers(), sizes: fullSizes}
	if *name != "" {
		w, ok := workloadByName(*name)
		if !ok {
			fmt.Fprintf(stderr, "benchmark: unknown workload %q (have %s)\n", *name, strings.Join(workloadNames(), ", "))
			return 2
		}
		if *trace {
			cfg.traceOut = filepath.Join(".bench_build", "trace-"+w.name+".json")
		}
		return runOne(w, cfg, *outPath, stdout, stderr)
	}
	return runSet(cfg, *outPath, stdout, stderr)
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

// runWorkload dispatches one run.
func runWorkload(w *workload, cfg runConfig) (*runOutcome, error) {
	switch {
	case w.spec == nil && cfg.trace:
		return traceServiceWorkload(cfg)
	case w.spec == nil:
		return runServiceWorkload(w, cfg)
	case cfg.trace:
		return traceBatchWorkload(w, cfg)
	default:
		return runBatchWorkload(w, cfg)
	}
}

// result is the last line of a single run's output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runOne runs one workload once, prints its metrics and, last, the
// result line, and writes the full outcome to outPath when one is
// given. It exits non-zero when a correctness check failed.
func runOne(w *workload, cfg runConfig, outPath string, stdout, stderr io.Writer) int {
	o, err := runWorkload(w, cfg)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.name, err)
		return 1
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	res := result{Correct: o.Failed == 0, Attempted: o.Attempted, Failed: o.Failed, Metrics: map[string]metricValue{}}
	fmt.Fprintf(stdout, "%s seed %d: %d jobs/unit, %d cycles, %d insns, digest %.16s\n", w.name, cfg.seed, o.Sim.Jobs, o.Sim.Cycles, o.Sim.Insns, o.Digest)
	for _, d := range defs {
		v := o.Metrics[d.Name]
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
		fmt.Fprintf(stdout, "  %-36s %14.6g %s\n", d.Name, v, d.Unit)
	}
	printExtra(stdout, o.Extra)
	for _, e := range o.Errors {
		fmt.Fprintf(stderr, "benchmark: FAIL %s\n", e)
	}
	if outPath != "" {
		if err := writeJSON(outPath, o); err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 1
		}
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	if o.Failed > 0 {
		return 1
	}
	return 0
}

func printExtra(w io.Writer, extra map[string]float64) {
	keys := make([]string, 0, len(extra))
	for k := range extra {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "  %-36s %14.6g\n", k, extra[k])
	}
}
