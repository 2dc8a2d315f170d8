package main

import (
	"context"
	"flag"
	"fmt"

	"beyondft/internal/experiments"
	"beyondft/internal/harness"
)

// cmdList prints the registry that run executes, with each job's cache key.
func cmdList(_ context.Context, args []string) error {
	fs := flag.NewFlagSet("list", flag.ExitOnError)
	full := fs.Bool("full", false, "paper-scale configuration")
	seed := fs.Int64("seed", 1, "base random seed")
	fs.Parse(args)

	cfg := config(*full, *seed)
	reg := registry(cfg, *full, nil)
	fmt.Printf("%d/%d registered jobs (spec: %s)\n", reg.Len(), reg.Len(), cfg.Spec())
	for _, j := range reg.Jobs() {
		fmt.Printf("  %-14s key=%.12s…\n", j.Name, harness.Key(j.Name, j.Spec, experiments.CodeSalt))
	}
	return nil
}
