package validate

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"beyondft/internal/harness"
)

// specVersion versions the validation scenario grid for the result cache —
// bump it when scenarios or tolerances change.
const specVersion = "validate-v1"

// Jobs exposes the full validation sweep to the experiment harness so
// `beyondft run` can execute and cache it alongside the figure jobs. A job
// returns its []Check result only when every check passes; any failure is
// an error, so a failing sweep is never cached as a good result.
func Jobs(seed int64, full bool) []harness.Job {
	spec := fmt.Sprintf("%s|seed=%d|full=%v", specVersion, seed, full)
	mk := func(name string, run func() []Check) harness.Job {
		return harness.Job{
			Name: name,
			Spec: spec,
			Run: func(ctx context.Context) (any, error) {
				checks := run()
				if bad := Failed(checks); len(bad) > 0 {
					return nil, fmt.Errorf("%d/%d checks failed; first: %s: %s",
						len(bad), len(checks), bad[0].Name, bad[0].Err)
				}
				return checks, nil
			},
			Decode: func(data []byte) (any, error) {
				var checks []Check
				err := json.Unmarshal(data, &checks)
				return checks, err
			},
			Artifacts: func(result any, dir string) ([]string, error) {
				checks, ok := result.([]Check)
				if !ok {
					return nil, fmt.Errorf("unexpected result type %T", result)
				}
				p := filepath.Join(dir, name+".csv")
				f, err := os.Create(p)
				if err != nil {
					return nil, err
				}
				defer f.Close()
				fmt.Fprintln(f, "check,ok,detail")
				for _, c := range checks {
					fmt.Fprintf(f, "%s,%v,%q\n", c.Name, c.OK(), c.Detail)
				}
				return []string{p}, nil
			},
		}
	}
	return []harness.Job{
		mk("validate-fluid", func() []Check { return FluidChecks(seed, !full) }),
		mk("validate-sims", func() []Check { return SimChecks(seed, !full) }),
	}
}
