// Package cmd_test pins the stdout of the evaluation CLIs (cmd/throughput,
// cmd/whatif, cmd/search) byte for byte. Each binary documents its stdout as
// a pure function of its flags; the goldens in testdata/cli_golden.json hold
// that function at a small flag matrix so a refactor of the shared
// spec → topology → traffic matrix → solve path cannot move a digit.
//
// Regenerate with `go test ./cmd -run CLIGolden -update` — only together
// with a reason the numbers were allowed to change.
package cmd_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"beyondft/internal/golden"
	"beyondft/internal/topology"
)

const goldenPath = "testdata/cli_golden.json"

// topoFlags is one small instance per topology kind.
var topoFlags = []string{
	"-topo fattree -k 4",
	"-topo jellyfish -n 14 -degree 4 -servers 3",
	"-topo xpander -degree 4 -lift 3 -servers 3",
	"-topo slimfly -q 5 -servers 6",
	"-topo longhop -dim 4 -degree 5 -servers 3",
}

var tmFamilies = []string{"longest-matching", "permutation", "all-to-all"}

// goldenCases lists "<binary> <flags>" lines; DESIGNS expands to the
// directory holding the test's design file.
func goldenCases() []string {
	var cases []string
	for _, tf := range topoFlags {
		for _, fam := range tmFamilies {
			cases = append(cases, fmt.Sprintf("throughput %s -tm %s -eps 0.1", tf, fam))
			cases = append(cases, fmt.Sprintf("whatif %s -tm %s -topk 3", tf, fam))
		}
	}
	return append(cases,
		"throughput -topo jellyfish -n 16 -degree 4 -servers 3 -tm permutation -x 0.5 -seed 5",
		"throughput -topo fattree -k 4 -tm longest-matching -x 0.5",
		"throughput -topo jellyfish -n 8 -degree 3 -servers 1 -tm all-to-all -exact",
		"throughput -topo jellyfish -n 12 -degree 3 -servers 2",
		"throughput -designs DESIGNS -topo design -name golden-design -tm permutation -eps 0.15",
		"whatif -topo jellyfish -n 14 -degree 4 -servers 3 -x 0.6 -seed 3",
		"whatif -topo jellyfish -n 12 -degree 4 -servers 2 -family rack-add -fracks 2 -fdegree 3 -fsamples 5",
		"whatif -topo xpander -degree 4 -lift 3 -servers 2 -family k-link-sample -fk 2 -fsamples 6 -fseed 4 -coarse 0.3 -fine 0.1",
		"whatif -topo jellyfish -n 12 -degree 4 -servers 2 -family single-switch -topk 2",
		// search-smoke's arguments (Makefile SEARCH_ARGS) and one xpander start.
		"search -topo jellyfish -n 12 -degree 3 -servers 2 -budget 14 -batch 5 -proxy-top 2 -coarse 0.3 -fine 0.15 -seed 3",
		"search -topo xpander -degree 3 -lift 3 -servers 2 -budget 10 -batch 4 -proxy-top 2 -coarse 0.3 -fine 0.15 -seed 5",
		"search -topo jellyfish -n 10 -degree 3 -servers 2 -budget 8 -batch 4 -moves rewire -strategy hillclimb",
	)
}

func TestCLIGolden(t *testing.T) {
	bin := t.TempDir()
	build := exec.Command("go", "build", "-o", bin+string(filepath.Separator),
		"./throughput", "./whatif", "./search")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	designs := t.TempDir()
	d := topology.DesignOf(topology.NewJellyfish(12, 3, 2, rand.New(rand.NewSource(4))))
	d.Name = "golden-design"
	if err := d.WriteFile(filepath.Join(designs, d.Name+".json")); err != nil {
		t.Fatal(err)
	}

	got := map[string]string{}
	for _, c := range goldenCases() {
		fields := strings.Fields(strings.ReplaceAll(c, "DESIGNS", designs))
		cmd := exec.Command(filepath.Join(bin, fields[0]), fields[1:]...)
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		if err := cmd.Run(); err != nil {
			t.Fatalf("%s: %v\n%s", c, err, stderr.String())
		}
		got[c] = stdout.String()
	}

	if *golden.Update {
		golden.Write(t, goldenPath, got, "  ")
		return
	}
	var want map[string]string
	golden.Read(t, goldenPath, &want)
	if len(want) != len(got) {
		t.Errorf("golden file has %d cases, the test runs %d", len(want), len(got))
	}
	for c, out := range got {
		if w, ok := want[c]; !ok {
			t.Errorf("%s: no golden entry", c)
		} else if out != w {
			t.Errorf("%s: stdout changed\n--- want ---\n%s--- got ---\n%s", c, w, out)
		}
	}
}
