package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// capturedRun is `go test -bench` output as this repository's `make bench`
// produces it: one machine header per package, -count 2, a GOMAXPROCS
// suffix, and trailing PASS/ok lines.
const capturedRun = `goos: linux
goarch: amd64
pkg: beyondft/internal/fluid
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkGKRoutingDijkstra-2   	  773175	      1483 ns/op	       0 B/op	       0 allocs/op
BenchmarkGKRoutingDijkstra-2   	  810002	      1468 ns/op	       0 B/op	       0 allocs/op
BenchmarkMaxConcurrentFlow-2   	      20	 113798434 ns/op	   60357 B/op	     630 allocs/op
BenchmarkMaxConcurrentFlow-2   	      20	 104030533 ns/op	   59121 B/op	     628 allocs/op
PASS
ok  	beyondft/internal/fluid	5.1s
goos: linux
goarch: amd64
pkg: beyondft/internal/graph
cpu: some other cpu line that must not overwrite the first
BenchmarkAPSP/serial-2         	      40	  29000000 ns/op
PASS
`

func TestParseRecordsMachineHeader(t *testing.T) {
	var echo strings.Builder
	f, err := parse(strings.NewReader(capturedRun), &echo)
	if err != nil {
		t.Fatal(err)
	}
	if f.GoOS != "linux" || f.GoArch != "amd64" || f.CPU != "Intel(R) Xeon(R) Processor @ 2.10GHz" {
		t.Fatalf("header = %q/%q/%q", f.GoOS, f.GoArch, f.CPU)
	}
	if f.GoMaxProcs != 2 {
		t.Fatalf("go_maxprocs = %d, want 2", f.GoMaxProcs)
	}
	if echo.String() != capturedRun {
		t.Fatal("input was not echoed verbatim")
	}
	want := map[string]Result{
		"BenchmarkGKRoutingDijkstra": {Iterations: 810002, NsPerOp: 1468},
		"BenchmarkMaxConcurrentFlow": {Iterations: 20, NsPerOp: 104030533, BytesPerOp: 59121, AllocsPerOp: 628},
		"BenchmarkAPSP/serial":       {Iterations: 40, NsPerOp: 29000000},
	}
	if len(f.Benchmarks) != len(want) {
		t.Fatalf("parsed %d benchmarks, want %d: %v", len(f.Benchmarks), len(want), f.Benchmarks)
	}
	for name, w := range want {
		if got := f.Benchmarks[name]; got != w {
			t.Errorf("%s = %+v, want %+v (fastest of the repeated runs)", name, got, w)
		}
	}
}

func TestParseWithoutHeaderLeavesFieldsEmpty(t *testing.T) {
	f, err := parse(strings.NewReader("BenchmarkX 10 5 ns/op\n"), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if f.GoOS != "" || f.GoArch != "" || f.CPU != "" || f.GoMaxProcs != 0 {
		t.Fatalf("fields invented from nothing: %+v", f)
	}
	if f.Benchmarks["BenchmarkX"].NsPerOp != 5 {
		t.Fatalf("benchmarks = %v", f.Benchmarks)
	}
}

func TestLoadBaselineRefusesAnotherMachine(t *testing.T) {
	cur := File{CPU: "cpu A", GoVersion: "go1.24.0", GoMaxProcs: 2}
	write := func(body string) string {
		path := filepath.Join(t.TempDir(), "base.json")
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	same := write(`{"cpu":"cpu A","go_version":"go1.24.0","go_maxprocs":2,"benchmarks":{"BenchmarkX":{"iterations":10,"ns_per_op":5}}}`)
	base, err := loadBaseline(same, cur)
	if err != nil {
		t.Fatal(err)
	}
	if base["BenchmarkX"].NsPerOp != 5 {
		t.Fatalf("baseline = %v", base)
	}
	other := write(`{"cpu":"cpu B","go_version":"go1.24.0","go_maxprocs":2,"benchmarks":{}}`)
	if _, err := loadBaseline(other, cur); err == nil {
		t.Fatal("a baseline from another CPU was accepted")
	}
}
