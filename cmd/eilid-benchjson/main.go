// Command eilid-benchjson converts `go test -bench` output read from
// stdin into a JSON benchmark record, so the repository can track its
// performance trajectory in-repo (see `make bench-json`).
//
// With -next the output file is auto-selected: the first free
// BENCH_<n>.json index (n >= 1) in the directory named by -o (default
// "."), so each PR appends a new point to the trajectory instead of
// overwriting the previous one. The chosen path is printed to stdout.
//
// Every benchmark result line of the form
//
//	BenchmarkName-8   123   4567 ns/op   89.0 simMcycles/s   12 cycles-orig
//
// becomes one entry carrying the iteration count, ns/op, and every
// custom metric keyed by its unit. Non-benchmark lines (headers, PASS,
// ok) are ignored, so the output of several go test invocations can be
// concatenated on stdin.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// Result is one parsed benchmark line.
type Result struct {
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	NsPerOp    float64            `json:"ns_per_op,omitempty"`
	Metrics    map[string]float64 `json:"metrics,omitempty"`
}

// Host records the machine that produced the numbers. Benchmark
// trajectories only mean something when points from different hosts
// can be told apart, so every BENCH_<n>.json is stamped with the
// toolchain and CPU it ran on.
type Host struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	// CPUModel comes from /proc/cpuinfo and is empty on platforms
	// without it; the parsed `cpu:` header from the bench output is
	// kept alongside as a fallback identifier.
	CPUModel string `json:"cpu_model,omitempty"`
}

// hostInfo stamps the running machine.
func hostInfo() Host {
	return Host{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   cpuModel(),
	}
}

// cpuModel extracts the first "model name" entry from /proc/cpuinfo
// (best-effort; empty where the file or field is missing).
func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

// Output is the file schema.
type Output struct {
	Goos       string   `json:"goos,omitempty"`
	Goarch     string   `json:"goarch,omitempty"`
	CPU        string   `json:"cpu,omitempty"`
	Host       Host     `json:"host"`
	Benchmarks []Result `json:"benchmarks"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("eilid-benchjson", flag.ContinueOnError)
	fs.SetOutput(stderr)
	outPath := fs.String("o", "-", "output file (- for stdout); with -next, the directory to scan")
	next := fs.Bool("next", false, "write to the first free BENCH_<n>.json in the -o directory")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "eilid-benchjson: unexpected arguments: %v\n", fs.Args())
		return 2
	}

	out, err := parse(stdin)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	out.Host = hostInfo()
	if len(out.Benchmarks) == 0 {
		fmt.Fprintln(stderr, "eilid-benchjson: no benchmark lines on stdin")
		return 1
	}

	w := stdout
	if *next {
		dir := *outPath
		if dir == "-" {
			dir = "."
		}
		path, err := nextBenchPath(dir)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		f, err := os.Create(path)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		defer f.Close()
		w = f
		fmt.Fprintln(stdout, path)
	} else if *outPath != "-" {
		f, err := os.Create(*outPath)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	return 0
}

// nextBenchPath returns dir/BENCH_<n>.json for the smallest n >= 1
// with no existing file, so successive runs extend the trajectory
// (BENCH_1.json, BENCH_2.json, ...) without overwriting history.
func nextBenchPath(dir string) (string, error) {
	for n := 1; n < 10000; n++ {
		path := filepath.Join(dir, fmt.Sprintf("BENCH_%d.json", n))
		if _, err := os.Stat(path); errors.Is(err, os.ErrNotExist) {
			return path, nil
		} else if err != nil {
			return "", fmt.Errorf("eilid-benchjson: stat %s: %w", path, err)
		}
	}
	return "", fmt.Errorf("eilid-benchjson: no free BENCH_<n>.json index in %s", dir)
}

func parse(r io.Reader) (*Output, error) {
	out := &Output{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			out.Goos = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
			continue
		case strings.HasPrefix(line, "goarch:"):
			out.Goarch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
			continue
		case strings.HasPrefix(line, "cpu:"):
			out.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
			continue
		case !strings.HasPrefix(line, "Benchmark"):
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			continue
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue // a benchmark name line without results
		}
		res := Result{
			// Strip the -GOMAXPROCS suffix so entries compare across hosts.
			Name:       trimProcs(fields[0]),
			Iterations: iters,
		}
		// The remainder is value/unit pairs.
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("eilid-benchjson: bad value %q in %q", fields[i], line)
			}
			unit := fields[i+1]
			if unit == "ns/op" {
				res.NsPerOp = v
				continue
			}
			if res.Metrics == nil {
				res.Metrics = map[string]float64{}
			}
			res.Metrics[unit] = v
		}
		out.Benchmarks = append(out.Benchmarks, res)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// trimProcs removes the trailing -N parallelism suffix go test appends
// to benchmark names.
func trimProcs(name string) string {
	i := strings.LastIndex(name, "-")
	if i < 0 {
		return name
	}
	if _, err := strconv.Atoi(name[i+1:]); err != nil {
		return name
	}
	return name[:i]
}
