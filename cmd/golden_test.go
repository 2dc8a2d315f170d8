// Package cmd_test pins the stdout of the beyondft subcommands byte for
// byte. Each documents its stdout as a pure function of its flags; the
// goldens in testdata/cli_golden.json hold that function at a small flag
// matrix so a refactor of the shared spec → topology → traffic matrix →
// solve path cannot move a digit. It also holds the command line's error
// contract: a bad invocation exits 1 with one line on stderr, before any
// simulation or solve.
//
// Regenerate with `go test ./cmd -run CLIGolden -update` — only together
// with a reason the numbers were allowed to change.
package cmd_test

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

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

// goldenCases lists "<subcommand> <flags>" lines; DESIGNS expands to the
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
		"topogen -topo jellyfish",
		"topogen -topo dragonfly -a 4 -h 2",
		"topogen -topo lps",
		"topogen -topo fattree -k 8 -cost 0.77",
		"pktsim -topo xpander -degree 4 -lift 3 -servers 2 -routing hyb -pairs skew -lambda 2000 -measure 20 -warmup 10 -max 200",
		"pktsim -topo jellyfish -n 16 -degree 4 -servers 2 -routing ksp -pairs skew -lambda 2000 -measure 20 -warmup 10 -max 200",
		"simscale -k 4 -flows 2000",
		"validate -smoke",
		"run -only table1,fig4 -j 1 -no-cache -out=",
		"list",
	)
}

// beyondft is the binary under test, built once by TestMain.
var beyondft string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "beyondft-cli")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	beyondft = filepath.Join(dir, "beyondft")
	if out, err := exec.Command("go", "build", "-o", beyondft, "./beyondft").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "go build: %v\n%s", err, out)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// cli runs beyondft with the whitespace-separated args, after replacing
// each old string in the old, new pairs of replace.
func cli(args string, replace ...string) (stdout, stderr string, err error) {
	cmd := exec.Command(beyondft, strings.Fields(strings.NewReplacer(replace...).Replace(args))...)
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err = cmd.Run()
	return out.String(), errOut.String(), err
}

func TestCLIGolden(t *testing.T) {
	designs := t.TempDir()
	d := topology.DesignOf(topology.NewJellyfish(12, 3, 2, rand.New(rand.NewSource(4))))
	d.Name = "golden-design"
	if err := d.WriteFile(filepath.Join(designs, d.Name+".json")); err != nil {
		t.Fatal(err)
	}

	got := map[string]string{}
	for _, c := range goldenCases() {
		stdout, stderr, err := cli(c, "DESIGNS", designs)
		if err != nil {
			t.Fatalf("%s: %v\n%s", c, err, stderr)
		}
		got[c] = stdout
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

// TestCLIRejectsBadInvocations: flag combinations that cannot do what they
// ask, and topologies the constructors cannot build, exit 1 with one line
// on stderr — no goroutine dump — before anything is simulated or solved.
// Checked late, each of these would simulate first: for seconds before
// failing, or to completion with exit 0 and no checkpoint.
func TestCLIRejectsBadInvocations(t *testing.T) {
	dir := t.TempDir()
	const pkt = "pktsim -topo jellyfish -n 16 -degree 4 -servers 2 -lambda 2000 -measure 20 -warmup 10 -max 200"
	// Real checkpoints, so the -resume cases have something to resume.
	for _, c := range []string{
		"simscale -k 4 -flows 2000 -halt-after 1000 -checkpoint DIR/sim.json",
		pkt + " -halt-at 15 -checkpoint DIR/pkt.json",
	} {
		if _, stderr, err := cli(c, "DIR", dir); err != nil {
			t.Fatalf("%s: %v\n%s", c, err, stderr)
		}
	}
	for _, c := range []string{
		"simscale -flows 200000 -halt-after 100000",
		"simscale -k 4 -flows 5000 -halt-after 5000 -checkpoint DIR/out.json",
		"simscale -k 4 -halt-after 1500 -checkpoint DIR/out.json -resume DIR/sim.json",
		pkt + " -checkpoint DIR/out.json",
		pkt + " -halt-at 30 -checkpoint DIR/out.json -resume DIR/pkt.json",
		"throughput -topo jellyfish -n 5 -degree 5",
		"throughput -topo slimfly -q 6",
		"whatif -topo xpander -degree 1",
		"whatif -topo fattree -k 3",
	} {
		start := time.Now()
		_, stderr, err := cli(c, "DIR", dir)
		took := time.Since(start)
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 {
			t.Errorf("%s: exit %v, want 1\n%s", c, err, stderr)
		}
		if lines := strings.Count(stderr, "\n"); lines != 1 || strings.Contains(stderr, "goroutine") {
			t.Errorf("%s: stderr has %d lines, want one error line:\n%s", c, lines, stderr)
		}
		if took > time.Second {
			t.Errorf("%s: took %s to fail; the check must come before the work", c, took)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "out.json")); !os.IsNotExist(err) {
		t.Errorf("a rejected invocation wrote a checkpoint (stat: %v)", err)
	}
}

// TestStatusLeavesMissingCacheAbsent: status reports on a cache, it does not
// create one.
func TestStatusLeavesMissingCacheAbsent(t *testing.T) {
	dir := t.TempDir()
	out, missing := filepath.Join(dir, "out"), filepath.Join(dir, "missing")
	if _, stderr, err := cli("run -only table1 -no-cache -out OUT", "OUT", out); err != nil {
		t.Fatalf("run: %v\n%s", err, stderr)
	}
	stdout, stderr, err := cli("status -out OUT -cache MISSING -prune-max-bytes 0", "OUT", out, "MISSING", missing)
	if err != nil {
		t.Fatalf("status: %v\n%s", err, stderr)
	}
	if !strings.Contains(stdout, "no cache at "+missing) {
		t.Errorf("status output does not report the missing cache:\n%s", stdout)
	}
	if _, err := os.Stat(missing); !os.IsNotExist(err) {
		t.Errorf("status created %s (stat: %v)", missing, err)
	}
}
