package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"beyondft/internal/validate"
)

// cmdValidate runs the cross-model validation sweep: the same small
// scenarios through the exact LP, the Garg–Könemann FPTAS, the flow-level
// simulator and the packet-level simulator, asserting agreement within the
// tolerances declared in internal/validate (see DESIGN.md §10) plus the
// conservation and replay-determinism invariants on every run. It fails if
// any check fails.
//
//	beyondft validate            # full sweep
//	beyondft validate -smoke     # reduced grid (wired into `make test`)
//	beyondft validate -json      # machine-readable output
func cmdValidate(_ context.Context, args []string) error {
	fs := flag.NewFlagSet("validate", flag.ExitOnError)
	smoke := fs.Bool("smoke", false, "run the reduced scenario grid")
	seed := fs.Int64("seed", 1, "base random seed for scenario generation")
	jsonOut := fs.Bool("json", false, "emit checks as JSON instead of text")
	fs.Parse(args)

	checks := validate.All(*seed, *smoke)
	failed := validate.Failed(checks)

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(checks); err != nil {
			return err
		}
	} else {
		for _, c := range checks {
			mark := "ok  "
			if !c.OK() {
				mark = "FAIL"
			}
			fmt.Printf("%s %-40s %s\n", mark, c.Name, c.Detail)
			if !c.OK() {
				fmt.Printf("     ^ %s\n", c.Err)
			}
		}
		fmt.Printf("\n%d checks, %d failed\n", len(checks), len(failed))
	}
	if len(failed) > 0 {
		return fmt.Errorf("%d of %d checks failed", len(failed), len(checks))
	}
	return nil
}
