package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"beyondft/internal/obs"
)

func TestPercentileRefusesThinTail(t *testing.T) {
	samples := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(i + 1)
		}
		return s
	}
	if _, beyond, ok := percentile(samples(100), 99); ok || beyond != 1 {
		t.Errorf("p99 of 100 samples: ok=%v beyond=%d, want refused with 1 beyond", ok, beyond)
	}
	if _, beyond, ok := percentile(samples(999), 99); ok || beyond != 9 {
		t.Errorf("p99 of 999 samples: ok=%v beyond=%d, want refused with 9 beyond", ok, beyond)
	}
	if v, beyond, ok := percentile(samples(2000), 99); !ok || beyond != 20 || v != 1980 {
		t.Errorf("p99 of 2000 samples = %v (beyond %d, ok %v), want 1980 with 20 beyond", v, beyond, ok)
	}
	if _, _, ok := percentile(samples(19), 50); ok {
		t.Error("p50 of 19 samples accepted with 9 beyond")
	}
	if _, _, ok := percentile(nil, 50); ok {
		t.Error("percentile of no samples accepted")
	}
}

func TestMedianAndQuartilesMatchPython(t *testing.T) {
	if got := median([]float64{5, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	q1, q2, q3 = quartiles([]float64{1, 2, 4, 8, 16})
	if q1 != 1.5 || q2 != 4 || q3 != 12 {
		t.Errorf("quartiles = %v %v %v, want 1.5 4 12", q1, q2, q3)
	}
}

// fakeClock only moves when someone sleeps on it or a request "takes" time.
type fakeClock struct{ now time.Time }

func (c *fakeClock) Now() time.Time { return c.now }
func (c *fakeClock) SleepUntil(t time.Time) {
	if t.After(c.now) {
		c.now = t
	}
}

// TestOpenLoopTimesFromDueTime: one connection, 25 ms of service, arrivals
// every 10 ms. The second and third requests are sent late because the
// connection is busy, and their latency must count that wait.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	ms := time.Millisecond
	due := []time.Duration{0, 10 * ms, 20 * ms, 200 * ms}
	shots := openLoop(clk, due, 1, time.Second, func(_, i int) shot {
		clk.now = clk.now.Add(25 * ms)
		return shot{Status: 200}
	})
	wantLat := []float32{25, 40, 55, 25}
	wantLag := []float32{0, 15, 30, 0}
	for i, s := range shots {
		if s.LatMs != wantLat[i] || s.LagMs != wantLag[i] {
			t.Errorf("request %d: latency %v lag %v, want %v and %v", i, s.LatMs, s.LagMs, wantLat[i], wantLag[i])
		}
	}

	// Past the cutoff nothing more is sent; the rest is the rung's backlog.
	clk = &fakeClock{now: time.Unix(1000, 0)}
	shots = openLoop(clk, []time.Duration{0, ms, 2 * ms}, 1, 30*ms, func(_, i int) shot {
		clk.now = clk.now.Add(25 * ms)
		return shot{Status: 200}
	})
	if shots[0].Status != 200 || shots[1].Status != 200 || shots[2].Status != statusUnsent {
		t.Errorf("statuses = %d %d %d, want 200 200 unsent", shots[0].Status, shots[1].Status, shots[2].Status)
	}
}

func TestFoldSelfSubtractsChildrenOnce(t *testing.T) {
	tree := &obs.Record{Name: "loadgen.replay", DurMs: 100, Children: []*obs.Record{
		{Name: "fluid.gk_solve", DurMs: 60, Children: []*obs.Record{
			{Name: "graph.dijkstra", DurMs: 20},
		}},
		{Name: "tm.build", DurMs: 30},
	}}
	lt := layerTimes{SelfMs: map[string]float64{}, Spans: map[string]int{}}
	foldSelf(tree, lt)
	want := map[string]float64{"loadgen": 10, "fluid": 40, "graph": 20, "tm": 30}
	if !reflect.DeepEqual(lt.SelfMs, want) {
		t.Errorf("self times = %v, want %v", lt.SelfMs, want)
	}
	total := 0.0
	for _, v := range lt.SelfMs {
		total += v
	}
	if total != tree.DurMs {
		t.Errorf("self times sum to %v, want the root's %v", total, tree.DurMs)
	}
}

func TestTracerIsNilSafe(t *testing.T) {
	var tr *tracer
	ran := false
	call(tr.root("loadgen.client"), "serve.request", func() { ran = true })
	if !ran || len(tr.fold().SelfMs) != 0 {
		t.Error("untraced call did not run or recorded a span")
	}
}

func TestInputsFollowTheSeed(t *testing.T) {
	bodies := func(specs []querySpec) []string {
		out := make([]string, len(specs))
		for i, s := range specs {
			out[i] = string(s.Body)
		}
		return out
	}
	type inputs struct {
		Cold    []string
		Warm    []int32
		Rungs   []mixedRung
		Cluster []int32
	}
	gen := func(seed int64) inputs {
		rates, durs := []float64{50, 100}, []time.Duration{time.Second, time.Second}
		return inputs{
			Cold:    bodies(coldSpecs(seed, 1)),
			Warm:    uniformPicks(inputRNG(seed, "warm_serve"), 1000, 64),
			Rungs:   mixedRungs(inputRNG(seed, "serve_mixed"), 128, rates, durs),
			Cluster: clusterPicks(inputRNG(seed, "cluster_serve"), 60, 5),
		}
	}
	a, b, c := gen(7), gen(7), gen(8)
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed gave different input lists")
	}
	if reflect.DeepEqual(a.Cold, c.Cold) || reflect.DeepEqual(a.Warm, c.Warm) ||
		reflect.DeepEqual(a.Rungs, c.Rungs) || reflect.DeepEqual(a.Cluster, c.Cluster) {
		t.Error("different seeds gave an identical input list")
	}
	for _, rung := range a.Rungs {
		if len(rung.Due) != int(rung.Rate*rung.Dur.Seconds()) {
			t.Errorf("rung at %g/s has %d arrivals", rung.Rate, len(rung.Due))
		}
		if want := int(math.Round(mixedColdShare * float64(len(rung.Due)))); len(rung.Fresh) != want {
			t.Errorf("rung at %g/s has %d fresh specs, want %d", rung.Rate, len(rung.Fresh), want)
		}
	}
}

func TestReferenceCheck(t *testing.T) {
	ref := &reference{Entries: map[string]map[string]any{
		"w/seed=1/work=1": {"throughput": []any{0.5, 0.8}, "events": []any{100.0}},
	}}
	mk := func(tput []float64, events uint64) *result {
		r := newResult("w")
		r.Digest["throughput"] = tput
		r.Digest["events"] = []uint64{events}
		return r
	}
	if r := mk([]float64{0.55, 0.8}, 100); !ref.check(r, "w/seed=1/work=1") || len(r.Failures) != 0 {
		t.Errorf("GK answer inside 2ε rejected: %v", r.Failures)
	}
	if r := mk([]float64{0.7, 0.8}, 100); len(checkFailures(ref, r)) != 1 {
		t.Errorf("GK answer outside 2ε: failures %v, want one", r.Failures)
	}
	if r := mk([]float64{0.5, 0.8}, 101); len(checkFailures(ref, r)) != 1 {
		t.Errorf("exact count off by one: failures %v, want one", r.Failures)
	}
	if r := mk([]float64{0.5}, 100); len(checkFailures(ref, r)) != 1 {
		t.Errorf("short digest: failures %v, want one", r.Failures)
	}
	if r := mk(nil, 0); ref.check(r, "w/seed=2/work=1") || len(r.Failures) != 0 {
		t.Error("a configuration without an entry was checked")
	}
}

func checkFailures(ref *reference, r *result) []string {
	ref.check(r, "w/seed=1/work=1")
	return r.Failures
}

var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json from catalogue.go and workloads.go")

type contractWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type contractMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// benchmarkJSON mirrors the contract file at the repo root.
type benchmarkJSON struct {
	Command    []string           `json:"command"`
	Paths      []string           `json:"paths"`
	RunSeconds int                `json:"run_seconds"`
	Workloads  []contractWorkload `json:"workloads"`
	EndToEnd   []contractMetric   `json:"end_to_end"`
	PerLayer   []contractMetric   `json:"per_layer"`
}

// contractFromCatalogue is what BENCHMARK.json must say.
func contractFromCatalogue() benchmarkJSON {
	bj := benchmarkJSON{Command: []string{"go", "run", "./benchmark"}, Paths: []string{"benchmark"}, RunSeconds: 10}
	for _, w := range workloads {
		bj.Workloads = append(bj.Workloads, contractWorkload{w.Name, w.Why})
	}
	for _, m := range endToEnd {
		bound := m.Bound
		bj.EndToEnd = append(bj.EndToEnd, contractMetric{m.Name, m.Unit, m.Better, &bound})
	}
	for _, m := range perLayer {
		bj.PerLayer = append(bj.PerLayer, contractMetric{m.Name, m.Unit, m.Better, nil})
	}
	return bj
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	path := filepath.Join("..", "BENCHMARK.json")
	if *update {
		data, err := json.MarshalIndent(contractFromCatalogue(), "", "  ")
		if err == nil {
			err = os.WriteFile(path, append(data, '\n'), 0o644)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	got, want := readBenchmarkJSON(t), contractFromCatalogue()
	if !reflect.DeepEqual(got, want) {
		g, _ := json.MarshalIndent(got, "", " ")
		w, _ := json.MarshalIndent(want, "", " ")
		t.Errorf("BENCHMARK.json and the catalogue differ (go test ./benchmark -run Catalogue -update rewrites the file)\nfile:\n%s\ncatalogue:\n%s", g, w)
	}
	// The contract's own limits.
	names := map[string]bool{}
	unique := func(name string) {
		if names[name] || len(name) > 64 {
			t.Errorf("name %q is used twice or is longer than 64", name)
		}
		names[name] = true
	}
	if n := len(want.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, limit 2..8", n)
	}
	for _, w := range want.Workloads {
		unique(w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: reason is %d characters or has a line break, limit 200 on one line", w.Name, len(w.Why))
		}
	}
	hasSetup := false
	for _, m := range want.EndToEnd {
		unique(m.Name)
		if *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, *m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup || len(want.EndToEnd) > 16 {
		t.Errorf("end-to-end metrics: setup_s present %v, count %d (limit 16)", hasSetup, len(want.EndToEnd))
	}
	if len(want.PerLayer) < 1 || len(want.PerLayer) > 128 {
		t.Errorf("%d layer metrics, limit 1..128", len(want.PerLayer))
	}
	for _, m := range want.PerLayer {
		unique(m.Name)
		if len(m.Unit) > 16 {
			t.Errorf("%s: unit %q is longer than 16", m.Name, m.Unit)
		}
	}
}

// TestSmoke runs all seven workloads at 2% of their work, once untraced
// and once traced, and checks that every metric BENCHMARK.json names is
// emitted exactly once per workload with its unit.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	bj := readBenchmarkJSON(t)
	began := time.Now()
	for _, traced := range []string{"0", "1"} {
		out := filepath.Join(t.TempDir(), "out.json")
		var stdout, stderr bytes.Buffer
		args := []string{"-scale", "0.02", "-seed", "1", "-trace", traced, "-tmp", filepath.Join(t.TempDir(), "scratch"), "-out", out}
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("trace=%s: exit %d\n%s\n%s", traced, code, stdout.String(), stderr.String())
		}
		data, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		var file outFile
		if err := json.Unmarshal(data, &file); err != nil {
			t.Fatal(err)
		}
		if len(file.Runs) != 1 || len(file.Runs[0].Workloads) != len(bj.Workloads) {
			t.Fatalf("trace=%s: %d runs, want 1 run of %d workloads", traced, len(file.Runs), len(bj.Workloads))
		}
		for i, w := range file.Runs[0].Workloads {
			if w.Workload != bj.Workloads[i].Name || !w.Correct || !w.ReferenceChecked || w.Attempted < 1 || w.Failed != 0 {
				t.Errorf("trace=%s %s: correct=%v reference=%v attempted=%d failed=%d %v",
					traced, w.Workload, w.Correct, w.ReferenceChecked, w.Attempted, w.Failed, w.Failures)
			}
			for _, m := range bj.EndToEnd {
				if got, ok := w.EndToEnd[m.Name]; !ok || got.Unit != m.Unit || !(got.Value > 0) {
					t.Errorf("trace=%s %s: end-to-end %s = %+v (present %v), want a positive value in %s", traced, w.Workload, m.Name, got, ok, m.Unit)
				}
				if n := strings.Count(stdout.String(), "\n"+padded(w.Workload, m.Name)); n != 1 {
					t.Errorf("trace=%s %s: %s printed %d times, want once", traced, w.Workload, m.Name, n)
				}
			}
			if traced == "0" {
				if w.PerLayer != nil {
					t.Errorf("%s: untraced run carries a layer table", w.Workload)
				}
				continue
			}
			if len(w.PerLayer) != len(bj.PerLayer) {
				t.Errorf("%s: %d layer metrics, want %d", w.Workload, len(w.PerLayer), len(bj.PerLayer))
			}
			for _, m := range bj.PerLayer {
				if got, ok := w.PerLayer[m.Name]; !ok || got.Unit != m.Unit || math.IsNaN(got.Value) {
					t.Errorf("%s: layer %s = %+v (present %v), want unit %s", w.Workload, m.Name, got, ok, m.Unit)
				}
				if n := strings.Count(stdout.String(), "\n"+padded(w.Workload, m.Name)); n != 1 {
					t.Errorf("%s: layer %s printed %d times, want once", w.Workload, m.Name, n)
				}
			}
			if w.PerLayer["obs.bench_trace_overhead_ratio"].Value == 0 {
				t.Errorf("%s: no trace overhead reported", w.Workload)
			}
		}
	}
	t.Logf("smoke: both passes in %s", time.Since(began).Round(time.Millisecond))
}

// padded is how printMetrics starts a metric's line.
func padded(workload, metric string) string {
	var b strings.Builder
	printMetrics(&b, workload, map[string]metricValue{metric: {}}, func(string) string { return "" })
	line := b.String()
	return line[:strings.Index(line, metric)+len(metric)] + " "
}

// TestDriverLine: with exactly one workload the last line of stdout is the
// driver's JSON object, carrying exactly the contract's metrics.
func TestDriverLine(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a workload")
	}
	bj := readBenchmarkJSON(t)
	for _, traced := range []string{"0", "1"} {
		var stdout, stderr bytes.Buffer
		args := []string{"--workload", "whatif_sweep", "--seed", "3", "--seconds", "0.2", "--trace", traced, "-tmp", filepath.Join(t.TempDir(), "scratch")}
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("exit %d: %s", code, stderr.String())
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var got struct {
			Correct   *bool                  `json:"correct"`
			Attempted *int                   `json:"attempted"`
			Failed    *int                   `json:"failed"`
			Metrics   map[string]metricValue `json:"metrics"`
		}
		dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&got); err != nil {
			t.Fatalf("last line is not the result object: %v\n%s", err, lines[len(lines)-1])
		}
		if got.Correct == nil || !*got.Correct || got.Attempted == nil || *got.Attempted < 1 || got.Failed == nil || *got.Failed != 0 {
			t.Errorf("trace=%s: result %s", traced, lines[len(lines)-1])
		}
		want := map[string]string{}
		if traced == "0" {
			for _, m := range bj.EndToEnd {
				want[m.Name] = m.Unit
			}
		} else {
			for _, m := range bj.PerLayer {
				want[m.Name] = m.Unit
			}
		}
		if len(got.Metrics) != len(want) {
			t.Errorf("trace=%s: %d metrics, want %d", traced, len(got.Metrics), len(want))
		}
		for name, unit := range want {
			if got.Metrics[name].Unit != unit {
				t.Errorf("trace=%s: metric %s has unit %q, want %q", traced, name, got.Metrics[name].Unit, unit)
			}
		}
	}
}

func TestFlagErrors(t *testing.T) {
	for _, args := range [][]string{{"-workload", "nope"}, {"-trace", "2"}, {"-seconds", "0"}, {"extra"}} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 || stdout.Len() != 0 {
			t.Errorf("%v: exit %d with %d bytes of stdout, want 2 and none", args, code, stdout.Len())
		}
	}
}
