// Command benchmark is the repo's acceptance instrument (ROADMAP item 1):
// seven named workloads that touch every tier from outside, the end-to-end
// metrics a user of each tier would see, and a traced pass that attributes
// time to layers from spans the benchmark itself wraps around calls into
// each layer's public functions. README.md in this directory is the
// catalogue; BENCHMARK.json at the repo root is the machine-readable
// contract.
//
//	go run ./benchmark -seed 1                      # every workload, tracing off
//	go run ./benchmark -seed 1 -trace 1             # the layer table
//	go run ./benchmark -workload warm_serve -seed 7 # one workload; last line is JSON
//	go run ./benchmark -repeat 5 -out aa.json       # A/A spreads against the bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
)

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// workloadRecord is one workload's part of an output file.
type workloadRecord struct {
	Workload string `json:"workload"`
	Loop     string `json:"loop"`
	Seed     int64  `json:"seed"`

	EndToEnd map[string]metricValue `json:"end_to_end"`
	PerLayer map[string]metricValue `json:"per_layer,omitempty"`
	// Samples is the sample count behind every median and percentile.
	Samples map[string]int `json:"samples"`
	// Exact are the counts that must repeat run to run on these inputs.
	Exact map[string]int64 `json:"exact,omitempty"`

	Attempted int `json:"attempted"`
	Failed    int `json:"failed"`
	Ops       int `json:"ops"`

	Correct          bool     `json:"correct"`
	ReferenceChecked bool     `json:"reference_checked"`
	Failures         []string `json:"failures,omitempty"`
	Notes            []string `json:"notes,omitempty"`

	CalibMsStart float64 `json:"calib_ms_start"`
	CalibMsEnd   float64 `json:"calib_ms_end"`
	Noisy        bool    `json:"noisy"`

	digest map[string]any
	refKey string
}

// runRecord is one pass over the selected workloads.
type runRecord struct {
	Env       envRecord        `json:"env"`
	Traced    bool             `json:"traced"`
	Workloads []workloadRecord `json:"workloads"`
}

type outFile struct {
	Runs []runRecord `json:"runs"`
	AA   []aaRow     `json:"aa,omitempty"`
}

type options struct {
	names    []string
	seed     int64
	seconds  float64
	scale    float64
	trace    bool
	repeat   int
	out      string
	writeRef string
	tmpDir   string
}

func parseFlags(args []string, stderr io.Writer) (options, error) {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var names, namesAlias, trace string
	fs.StringVar(&names, "workload", "all", "workload to run, a comma-separated list, or all; with exactly one the last stdout line is the result as JSON")
	fs.StringVar(&namesAlias, "workloads", "", "alias of -workload")
	fs.Int64Var(&o.seed, "seed", 1, "seed of every generated input list")
	fs.Float64Var(&o.seconds, "seconds", 10, "length of each measured section on the reference box; scales the fixed work counts")
	fs.Float64Var(&o.scale, "scale", 1, "extra factor on the fixed work counts (0.02 is a smoke run)")
	fs.StringVar(&trace, "trace", "0", "1 runs the traced pass and reports the per-layer table instead of the end-to-end metrics")
	fs.IntVar(&o.repeat, "repeat", 1, "A/A mode: run N times on seeds seed..seed+N-1 and compare each metric's spread with its bound")
	fs.StringVar(&o.out, "out", "", "write the full record (environment, metrics, sample counts, exact counts) to this JSON file")
	fs.StringVar(&o.writeRef, "write-reference", "", "merge this run's output digests into the given reference.json instead of checking them")
	fs.StringVar(&o.tmpDir, "tmp", ".bench_tmp", "scratch directory (created, then removed)")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	switch trace {
	case "0", "false":
	case "1", "true":
		o.trace = true
	default:
		return o, fmt.Errorf("-trace %q: want 0 or 1", trace)
	}
	if namesAlias != "" {
		names = namesAlias
	}
	if names == "all" {
		for _, w := range workloads {
			o.names = append(o.names, w.Name)
		}
	} else {
		for _, n := range strings.Split(names, ",") {
			if _, ok := findWorkload(n); !ok {
				return o, fmt.Errorf("unknown workload %q", n)
			}
			o.names = append(o.names, n)
		}
	}
	if o.seconds <= 0 || o.scale <= 0 || o.repeat < 1 {
		return o, fmt.Errorf("-seconds, -scale and -repeat must be positive")
	}
	if o.repeat > 1 && o.writeRef != "" {
		return o, fmt.Errorf("-write-reference records one run: drop -repeat")
	}
	return o, nil
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	o, err := parseFlags(args, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 2
	}
	ref, err := loadReference(referenceJSON)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 2
	}
	if err := os.MkdirAll(o.tmpDir, 0o755); err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 2
	}
	defer os.RemoveAll(o.tmpDir)

	var file outFile
	if o.repeat == 1 {
		file.Runs = []runRecord{runOnce(o, o.seed, ref, stdout)}
	} else {
		// A/A: every run in a process of its own, like the driver's, so no
		// run inherits another's heap, connections or page cache.
		for i := 0; i < o.repeat; i++ {
			rec, err := runChild(o, o.seed+int64(i), i, stdout, stderr)
			if err != nil {
				fmt.Fprintf(stderr, "benchmark: run %d: %v\n", i, err)
				return 2
			}
			file.Runs = append(file.Runs, rec)
		}
		file.AA = aaReport(file.Runs)
		printAA(stdout, file.AA)
	}
	ok := true
	for _, rec := range file.Runs {
		for _, w := range rec.Workloads {
			ok = ok && w.Correct
		}
	}
	if o.writeRef != "" {
		digests := map[string]map[string]any{}
		for _, w := range file.Runs[0].Workloads {
			digests[w.refKey] = w.digest
		}
		if err := writeReference(o.writeRef, digests); err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 2
		}
	}
	if o.out != "" {
		data, err := json.MarshalIndent(file, "", " ")
		if err == nil {
			err = os.WriteFile(o.out, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 2
		}
	}
	if len(o.names) == 1 && o.repeat == 1 {
		// The driver's contract: the last line of stdout is the result.
		fmt.Fprintln(stdout, driverLine(file.Runs[0].Workloads[0], o.trace))
	}
	if !ok {
		fmt.Fprintln(stderr, "benchmark: FAILED output checks")
		return 1
	}
	return 0
}

// runChild re-executes this binary for one run of an A/A series and reads
// back its record.
func runChild(o options, seed int64, i int, stdout, stderr io.Writer) (runRecord, error) {
	exe, err := os.Executable()
	if err != nil {
		return runRecord{}, err
	}
	trace := "0"
	if o.trace {
		trace = "1"
	}
	out := fmt.Sprintf("%s/run-%d.json", o.tmpDir, i)
	cmd := exec.Command(exe,
		"-workload", strings.Join(o.names, ","), "-seed", fmt.Sprint(seed),
		"-seconds", fmt.Sprint(o.seconds), "-scale", fmt.Sprint(o.scale), "-trace", trace,
		"-tmp", fmt.Sprintf("%s/run-%d", o.tmpDir, i), "-out", out)
	cmd.Stdout, cmd.Stderr = stdout, stderr
	runErr := cmd.Run() // exit 1 means failed checks: the record says which
	data, err := os.ReadFile(out)
	if err != nil {
		return runRecord{}, fmt.Errorf("%v (child: %v)", err, runErr)
	}
	var file outFile
	if err := json.Unmarshal(data, &file); err != nil || len(file.Runs) != 1 {
		return runRecord{}, fmt.Errorf("child record %s: %v", out, err)
	}
	return file.Runs[0], nil
}

// runOnce runs the selected workloads once on one seed.
func runOnce(o options, seed int64, ref *reference, stdout io.Writer) runRecord {
	rec := runRecord{Env: newEnvRecord(seed, o.seconds, o.scale), Traced: o.trace}
	fmt.Fprintf(stdout, "# benchmark seed=%d seconds=%g scale=%g trace=%v | %s GOMAXPROCS=%d nproc=%d | %s | commit %s | loadavg %s\n",
		seed, o.seconds, o.scale, o.trace, rec.Env.GoVersion, rec.Env.GOMAXPROCS, rec.Env.NumCPU, rec.Env.CPUModel, rec.Env.Commit, rec.Env.LoadAvg)
	env := &runEnv{
		Seed: seed, Work: o.scale * o.seconds / 10, Trace: o.trace,
		NProc: runtime.GOMAXPROCS(0), TmpDir: o.tmpDir,
	}
	smokeRun = env.Work < 0.1
	for i, name := range o.names {
		def, _ := findWorkload(name)
		r := def.run(env)
		w := record(def, env, r)
		w.CalibMsStart, w.CalibMsEnd = r.Sec.CalibMs[0], r.Sec.CalibMs[1]
		w.Noisy = noisy(w.CalibMsStart, w.CalibMsEnd)
		if i == 0 {
			rec.Env.CalibMsStart = w.CalibMsStart
		}
		rec.Env.CalibMsEnd, rec.Env.Noisy = w.CalibMsEnd, rec.Env.Noisy || w.Noisy
		if w.PerLayer != nil {
			w.PerLayer["env.calib_ms_start"] = metricValue{w.CalibMsStart, "ms"}
			w.PerLayer["env.calib_ms_end"] = metricValue{w.CalibMsEnd, "ms"}
		}
		if o.writeRef == "" {
			w.ReferenceChecked = ref.check(r, w.refKey)
			w.Failures, w.Correct = r.Failures, len(r.Failures) == 0
		}
		// Every violated check counts against the run, also one no single
		// op can be blamed for.
		w.Failed = min(max(w.Failed, len(w.Failures)), w.Attempted)
		printWorkload(stdout, w)
		rec.Workloads = append(rec.Workloads, w)
		_ = os.RemoveAll(env.TmpDir) // scratch of a finished workload; the next tmp() recreates the root
	}
	return rec
}

// record turns a raw result into the named, unit-carrying record.
func record(def workloadDef, env *runEnv, r *result) workloadRecord {
	w := workloadRecord{
		Workload: def.Name, Loop: def.Loop, Seed: env.Seed,
		EndToEnd:  map[string]metricValue{},
		Samples:   map[string]int{"setup_s": r.Setup.Samples, "op_p50_ms": len(r.LatMs)},
		Attempted: max(r.Attempted, 1), Failed: r.Failed, Ops: r.Ops,
		Failures: r.Failures, Notes: r.Notes, Correct: len(r.Failures) == 0,
		digest: r.Digest, refKey: referenceKey(def.Name, env.Seed, r.SeedInvariant, env.work()),
	}
	vals := r.endToEndValues()
	for _, m := range endToEnd {
		w.EndToEnd[m.Name] = metricValue{vals[m.Name], m.Unit}
	}
	// The user-visible numbers that are not universal: printed wherever
	// they exist, bounded nowhere (see catalogue.go).
	for _, m := range demoted {
		if v, ok := vals[shortName(m)]; ok {
			w.EndToEnd[shortName(m)] = metricValue{v, m.Unit}
		}
	}
	if beyond, ok := vals["op_p99_samples_beyond"]; ok {
		w.Samples["op_p99_ms_beyond"] = int(beyond)
	}
	if r.Layer != nil {
		w.PerLayer = map[string]metricValue{}
		w.Exact = map[string]int64{}
		known := map[string]bool{}
		for _, m := range perLayer {
			known[m.Name] = true
			w.PerLayer[m.Name] = metricValue{r.Layer[m.Name], m.Unit}
			if m.Exact {
				w.Exact[m.Name] = int64(r.Layer[m.Name])
			}
		}
		for name := range r.Layer {
			if !known[name] {
				panic("benchmark: layer metric " + name + " is not in the catalogue") // a typo in a workload file
			}
		}
	}
	return w
}

// driverLine is the one-object result the driver reads.
func driverLine(w workloadRecord, traced bool) string {
	metrics := map[string]metricValue{}
	if traced {
		for _, m := range perLayer {
			metrics[m.Name] = w.PerLayer[m.Name]
		}
	} else {
		for _, m := range endToEnd {
			metrics[m.Name] = w.EndToEnd[m.Name]
		}
	}
	data, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{w.Correct, w.Attempted, w.Failed, metrics})
	if err != nil {
		panic(fmt.Sprintf("benchmark: encode result: %v", err)) // a NaN metric: a bug in a workload file
	}
	return string(data)
}

func printWorkload(out io.Writer, w workloadRecord) {
	status := "ok"
	if !w.Correct {
		status = "FAILED"
	}
	ref := "no reference for this configuration"
	if w.ReferenceChecked {
		ref = "reference checked"
	}
	noisy := ""
	if w.Noisy {
		noisy = " NOISY (calibration spins differ by >10%)"
	}
	fmt.Fprintf(out, "\n== %s [%s] %s: %d ops, %d attempted, %d failed; %s; calib %.1f/%.1f ms%s\n",
		w.Workload, w.Loop, status, w.Ops, w.Attempted, w.Failed, ref, w.CalibMsStart, w.CalibMsEnd, noisy)
	printMetrics(out, w.Workload, w.EndToEnd, func(name string) string {
		switch name {
		case "setup_s", "op_p50_ms":
			return fmt.Sprintf("median of %d", w.Samples[name])
		case "op_p99_ms":
			return fmt.Sprintf("%d samples beyond", w.Samples["op_p99_ms_beyond"])
		}
		return ""
	})
	if w.PerLayer != nil {
		fmt.Fprintf(out, "-- layers (traced pass, half work)\n")
		printMetrics(out, w.Workload, w.PerLayer, func(name string) string {
			if _, ok := w.Exact[name]; ok {
				return "exact"
			}
			return ""
		})
	}
	for _, n := range w.Notes {
		fmt.Fprintf(out, "   note: %s\n", n)
	}
	for _, f := range w.Failures {
		fmt.Fprintf(out, "   FAIL: %s\n", f)
	}
}

var direction = func() map[string]string {
	d := map[string]string{}
	for _, m := range endToEnd {
		d[m.Name] = m.Better
	}
	for _, m := range perLayer {
		d[m.Name] = m.Better
	}
	for _, m := range demoted {
		d[shortName(m)] = m.Better
	}
	return d
}()

func printMetrics(out io.Writer, workload string, ms map[string]metricValue, remark func(string) string) {
	names := make([]string, 0, len(ms))
	for name := range ms {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := ms[name]
		line := fmt.Sprintf("%-14s %-34s %16.6g %-10s (%s is better)", workload, name, m.Value, m.Unit, direction[name])
		if rm := remark(name); rm != "" {
			line += " [" + rm + "]"
		}
		fmt.Fprintln(out, line)
	}
}
