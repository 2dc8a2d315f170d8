// Command benchjson converts `go test -bench` output on stdin into the
// repository's benchmark-trajectory JSON (see README "Benchmark
// trajectory"): a map from benchmark name (GOMAXPROCS suffix stripped) to
// ns/op, B/op, allocs/op and iteration count, so `make bench` can check in
// comparable numbers (BENCH_pr2.json, BENCH_pr3.json, ...) that future PRs
// diff against.
//
// Usage:
//
//	go test -run '^$' -bench . -benchmem ./... | benchjson -o BENCH_pr2.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"runtime"
	"strconv"
	"strings"
)

// Result holds one benchmark's metrics. Zero BytesPerOp/AllocsPerOp simply
// means -benchmem was off or the op allocated nothing.
type Result struct {
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// File is the checked-in trajectory format. GoOS, GoArch and CPU come from
// the header `go test -bench` prints before each package's results (first
// package wins; they cannot differ within one run), GoVersion from the
// toolchain running benchjson, which under `go run` is the one that ran the
// benchmarks. Numbers are comparable only between files that agree on them.
type File struct {
	Format     string            `json:"format"` // "beyondft-bench-v1"
	GoVersion  string            `json:"go_version,omitempty"`
	GoOS       string            `json:"goos,omitempty"`
	GoArch     string            `json:"goarch,omitempty"`
	CPU        string            `json:"cpu,omitempty"`
	GoMaxProcs int               `json:"go_maxprocs,omitempty"`
	Benchmarks map[string]Result `json:"benchmarks"`
	// Baseline holds the rows of a -baseline file: the same benchmarks
	// recorded on the same machine from the parent commit, so a perf PR's
	// file carries its own "before".
	Baseline map[string]Result `json:"baseline,omitempty"`
}

// benchLine matches e.g.
//
//	BenchmarkAPSP/parallel-8   100   11915343 ns/op   954 B/op   20 allocs/op
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-(\d+))?\s+(\d+)\s+([0-9.]+) ns/op(.*)$`)

// allocGates collects repeated -max-allocs name=N flags: a hard ceiling on
// allocs/op per named benchmark, so steady-state zero-alloc kernels cannot
// silently regress.
type allocGates map[string]int64

func (g allocGates) String() string { return fmt.Sprintf("%v", map[string]int64(g)) }

func (g allocGates) Set(v string) error {
	name, limit, ok := strings.Cut(v, "=")
	if !ok {
		return fmt.Errorf("want name=N, got %q", v)
	}
	n, err := strconv.ParseInt(limit, 10, 64)
	if err != nil {
		return fmt.Errorf("bad limit in %q: %w", v, err)
	}
	g[name] = n
	return nil
}

// parse reads `go test -bench` output, copying every line to echo, and
// returns the machine header fields and the fastest run of each benchmark.
func parse(in io.Reader, echo io.Writer) (File, error) {
	f := File{Format: "beyondft-bench-v1", Benchmarks: map[string]Result{}}
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		fmt.Fprintln(echo, line)
		headerField(&f.GoOS, line, "goos: ")
		headerField(&f.GoArch, line, "goarch: ")
		headerField(&f.CPU, line, "cpu: ")
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		name := m[1]
		if m[2] != "" {
			if p, err := strconv.Atoi(m[2]); err == nil && f.GoMaxProcs == 0 {
				f.GoMaxProcs = p
			}
		}
		iters, _ := strconv.ParseInt(m[3], 10, 64)
		ns, _ := strconv.ParseFloat(m[4], 64)
		r := Result{Iterations: iters, NsPerOp: ns}
		for _, field := range strings.Split(strings.TrimSpace(m[5]), "\t") {
			field = strings.TrimSpace(field)
			switch {
			case strings.HasSuffix(field, " B/op"):
				r.BytesPerOp, _ = strconv.ParseInt(strings.Fields(field)[0], 10, 64)
			case strings.HasSuffix(field, " allocs/op"):
				r.AllocsPerOp, _ = strconv.ParseInt(strings.Fields(field)[0], 10, 64)
			}
		}
		if prev, ok := f.Benchmarks[name]; ok && prev.NsPerOp <= ns {
			continue // -count > 1: keep the fastest run
		}
		f.Benchmarks[name] = r
	}
	return f, sc.Err()
}

// headerField stores the value of a "key: value" header line into dst the
// first time that key is seen.
func headerField(dst *string, line, prefix string) {
	if v, ok := strings.CutPrefix(line, prefix); ok && *dst == "" {
		*dst = strings.TrimSpace(v)
	}
}

// loadBaseline reads the benchmarks of an earlier benchjson file and refuses
// one recorded on another machine or toolchain, where a before/after
// comparison would mean nothing.
func loadBaseline(path string, cur File) (map[string]Result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var base File
	if err := json.Unmarshal(data, &base); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if base.CPU != cur.CPU || base.GoVersion != cur.GoVersion || base.GoMaxProcs != cur.GoMaxProcs {
		return nil, fmt.Errorf("%s was recorded on %q, %s, GOMAXPROCS %d; this run is %q, %s, GOMAXPROCS %d",
			path, base.CPU, base.GoVersion, base.GoMaxProcs, cur.CPU, cur.GoVersion, cur.GoMaxProcs)
	}
	return base.Benchmarks, nil
}

func main() {
	out := flag.String("o", "", "output file (default stdout)")
	baseline := flag.String("baseline", "", "benchjson file recorded on this machine from the parent commit; embedded as \"baseline\"")
	gates := allocGates{}
	flag.Var(gates, "max-allocs",
		"benchmark=N: fail if the named benchmark exceeds N allocs/op (repeatable; requires -benchmem input)")
	flag.Parse()

	f, err := parse(os.Stdin, os.Stdout) // echo so the run stays readable
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: read: %v\n", err)
		os.Exit(1)
	}
	f.GoVersion = runtime.Version()
	if len(f.Benchmarks) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines on stdin")
		os.Exit(1)
	}
	for name, limit := range gates {
		r, ok := f.Benchmarks[name]
		if !ok {
			fmt.Fprintf(os.Stderr, "benchjson: -max-allocs %s=%d: benchmark not in input\n", name, limit)
			os.Exit(1)
		}
		if r.AllocsPerOp > limit {
			fmt.Fprintf(os.Stderr, "benchjson: %s allocates %d/op, gate is %d/op\n", name, r.AllocsPerOp, limit)
			os.Exit(1)
		}
	}
	if *baseline != "" {
		if f.Baseline, err = loadBaseline(*baseline, f); err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: -baseline: %v\n", err)
			os.Exit(1)
		}
	}
	data, err := json.MarshalIndent(f, "", "  ") // map keys marshal sorted: stable diffs
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if *out == "" {
		os.Stdout.Write(data)
		return
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "benchjson: wrote %d benchmarks to %s\n", len(f.Benchmarks), *out)
}
