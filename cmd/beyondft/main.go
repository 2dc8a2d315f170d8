// Command beyondft is the repository's command line: topology generation,
// the fluid throughput model and its what-if and design-search engines, the
// packet- and flow-level simulators, cross-model validation, the cached
// experiment harness that regenerates the paper's tables and figures, and
// the query daemon with its load generator.
//
//	beyondft <command> [flags]
//	beyondft <command> -h        # the command's flags and defaults
//
// Every command's stdout is its result; progress and run-specific counters
// go to stderr. A command that fails prints one line on stderr and exits 1;
// an unknown command or a flag that does not parse exits 2.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"os/signal"
	"syscall"

	"beyondft/internal/eval"
	"beyondft/internal/topology"
)

type command struct {
	name, summary string
	run           func(ctx context.Context, args []string) error
	// stopsOnSignal marks the commands that watch ctx: for them SIGINT and
	// SIGTERM cancel it and they wind down; every other command keeps the
	// default handlers, so a signal ends it at once.
	stopsOnSignal bool
}

var commands = []command{
	{"topogen", "build a topology and print its structure", cmdTopogen, false},
	{"throughput", "per-server throughput of a topology under a traffic matrix (§5)", cmdThroughput, false},
	{"whatif", "sweep failure and expansion scenarios over a topology", cmdWhatif, true},
	{"search", "search for a better topology under an equal-cost envelope", cmdSearch, true},
	{"pktsim", "one packet-level simulation (§6)", cmdPktsim, false},
	{"simscale", "the flow-level simulator at scale, with checkpoints", cmdSimscale, false},
	{"validate", "cross-model validation: exact LP, GK and both simulators", cmdValidate, false},
	{"list", "list the experiment registry", cmdList, false},
	{"run", "run (a subset of) the registry and print its figure rows", cmdRun, true},
	{"status", "summarize a previous run and its cache", cmdStatus, false},
	{"serve", "the query daemon", cmdServe, true},
	{"loadgen", "open-loop Poisson load against the daemon", cmdLoadgen, true},
}

func main() {
	for _, c := range commands {
		if len(os.Args) < 2 || c.name != os.Args[1] {
			continue
		}
		ctx, stop := context.Background(), func() {}
		if c.stopsOnSignal {
			ctx, stop = signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
		}
		err := c.run(ctx, os.Args[2:])
		stop()
		if err != nil {
			fmt.Fprintf(os.Stderr, "beyondft %s: %v\n", c.name, err)
			os.Exit(1)
		}
		return
	}
	fmt.Fprintf(os.Stderr, "usage: beyondft <command> [flags]\n\ncommands:\n")
	for _, c := range commands {
		fmt.Fprintf(os.Stderr, "  %-11s %s\n", c.name, c.summary)
	}
	os.Exit(2)
}

// workersFlag registers -workers.
func workersFlag(fs *flag.FlagSet, what string) *int {
	return fs.Int("workers", 0, what+", 0 = GOMAXPROCS")
}

// topoFlags registers the flags of an eval.TopoSpec with def's values as
// defaults.
func topoFlags(fs *flag.FlagSet, def eval.TopoSpec) *eval.TopoSpec {
	s := new(eval.TopoSpec)
	fs.StringVar(&s.Kind, "topo", def.Kind, "fattree | jellyfish | xpander | slimfly | longhop | design")
	fs.IntVar(&s.K, "k", def.K, "fat-tree k")
	fs.IntVar(&s.N, "n", def.N, "jellyfish: switch count")
	fs.IntVar(&s.Degree, "degree", def.Degree, "network degree")
	fs.IntVar(&s.Lift, "lift", def.Lift, "xpander lift")
	fs.IntVar(&s.Servers, "servers", def.Servers, "servers per switch")
	fs.IntVar(&s.Q, "q", def.Q, "slimfly q")
	fs.IntVar(&s.Dim, "dim", def.Dim, "longhop dim")
	return s
}

// buildTopo checks spec as the daemon does (eval.TopoSpec.Normalize: the
// constructors' preconditions and eval.MaxSwitches), so a bad flag is an
// error rather than a constructor panic, and builds it on rng.
func buildTopo(spec *eval.TopoSpec, rng *rand.Rand) (*topology.Topology, error) {
	if err := spec.Normalize(); err != nil {
		return nil, err
	}
	return spec.Build(rng)
}

// readJSON decodes the JSON file at path into v.
func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("parse %s: %w", path, err)
	}
	return nil
}

// writeJSON writes v to path as JSON and returns its size in bytes.
func writeJSON(path string, v any) (int, error) {
	data, err := json.Marshal(v)
	if err != nil {
		return 0, err
	}
	return len(data), os.WriteFile(path, data, 0o644)
}
