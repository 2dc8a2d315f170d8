package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"beyondft/internal/harness"
)

// cheapJobs picks drivers that complete in well under a second each, so the
// invariant tests stay fast while still covering fluid, structural and
// closed-form drivers.
func cheapJobs(t *testing.T, c Config) []harness.Job {
	t.Helper()
	reg := c.Registry()
	var jobs []harness.Job
	for _, name := range []string{"table1", "fig2", "fig3", "fig4", "fig8"} {
		j, ok := reg.Lookup(name)
		if !ok {
			t.Fatalf("job %s not registered", name)
		}
		jobs = append(jobs, j)
	}
	return jobs
}

// encode canonicalizes a run's results as name -> JSON bytes.
func encodeResults(t *testing.T, rep *harness.Report) map[string]string {
	t.Helper()
	out := map[string]string{}
	for _, jr := range rep.Jobs {
		if jr.Err != "" {
			t.Fatalf("job %s failed: %s", jr.Name, jr.Err)
		}
		data, err := json.Marshal(jr.Value)
		if err != nil {
			t.Fatalf("encode %s: %v", jr.Name, err)
		}
		out[jr.Name] = string(data)
	}
	return out
}

// TestJobsOrderAndParallelismInvariant is the determinism guarantee the
// cache rests on: every job derives its randomness from (Config.Seed,
// call-site salt), never from shared mutable state, so figures are
// byte-identical whether jobs run serially, in parallel, or in a different
// order.
func TestJobsOrderAndParallelismInvariant(t *testing.T) {
	c := DefaultConfig()
	ctx := context.Background()

	jobs := cheapJobs(t, c)
	serial, err := harness.Run(ctx, jobs, harness.Options{Workers: 1})
	if err != nil {
		t.Fatalf("serial run: %v", err)
	}
	want := encodeResults(t, serial)

	parallel, err := harness.Run(ctx, jobs, harness.Options{Workers: 4})
	if err != nil {
		t.Fatalf("parallel run: %v", err)
	}
	for name, got := range encodeResults(t, parallel) {
		if got != want[name] {
			t.Fatalf("job %s differs between serial and parallel runs", name)
		}
	}

	reversed := make([]harness.Job, len(jobs))
	for i, j := range jobs {
		reversed[len(jobs)-1-i] = j
	}
	shuffledRun, err := harness.Run(ctx, reversed, harness.Options{Workers: 2})
	if err != nil {
		t.Fatalf("reversed run: %v", err)
	}
	for name, got := range encodeResults(t, shuffledRun) {
		if got != want[name] {
			t.Fatalf("job %s differs when executed in reverse order", name)
		}
	}
}

// TestRegistryCoversAllDrivers pins the registry's shape: every driver of
// the paper's evaluation is registered exactly once, under the job name
// `beyondft run -only` selects it by, with a spec that tracks the
// configuration.
func TestRegistryCoversAllDrivers(t *testing.T) {
	reg := DefaultConfig().Registry()
	if reg.Len() != len(drivers) {
		t.Fatalf("registry has %d jobs, want %d", reg.Len(), len(drivers))
	}
	for _, name := range []string{"table1", "fig2", "fig5a", "fig9", "fig15", "fig-rotor", "fig-failures"} {
		if _, ok := reg.Lookup(name); !ok {
			t.Fatalf("job %s missing from registry", name)
		}
	}
	// The spec must distinguish configurations: same name, different seed
	// or scale -> different cache key.
	c2 := DefaultConfig()
	c2.Seed = 99
	if DefaultConfig().Spec() == c2.Spec() {
		t.Fatalf("spec does not capture the seed")
	}
	if DefaultConfig().Spec() == PaperConfig().Spec() {
		t.Fatalf("spec does not capture the scale")
	}
}

// TestDecodeJobResultRoundTrip pins the exported decode path the serving
// daemon depends on: a driver's result survives encode → DecodeJobResult →
// encode byte-identically, and garbage is rejected rather than decoded
// into an empty result.
func TestDecodeJobResultRoundTrip(t *testing.T) {
	reg := DefaultConfig().Registry()
	job, ok := reg.Lookup("table1")
	if !ok {
		t.Fatal("table1 not registered")
	}
	v, err := job.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}

	jr, err := DecodeJobResult(data)
	if err != nil {
		t.Fatalf("DecodeJobResult: %v", err)
	}
	if len(jr.Figures) == 0 || jr.Figures[0].ID == "" {
		t.Fatalf("decoded result lost its figures: %+v", jr)
	}
	again, err := json.Marshal(jr)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, again) {
		t.Fatalf("round-trip not byte-identical:\n%s\nvs\n%s", data, again)
	}

	for _, bad := range []string{``, `]`, `{"figures":[{"id":1}]}`} {
		if _, err := DecodeJobResult([]byte(bad)); err == nil {
			t.Errorf("DecodeJobResult(%q) accepted garbage", bad)
		}
	}
}

// TestHarnessGoldenPath runs a small figure twice through the harness —
// cold, then against the populated cache — and asserts the cache hit is
// recorded in the manifest and the CSV artifacts are byte-identical.
func TestHarnessGoldenPath(t *testing.T) {
	c := DefaultConfig()
	reg := c.Registry()
	job, ok := reg.Lookup("fig2")
	if !ok {
		t.Fatal("fig2 not registered")
	}
	cache, err := harness.OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	run := func(out string) *harness.Manifest {
		rep, err := harness.Run(ctx, []harness.Job{job}, harness.Options{
			Workers: 1, Cache: cache, Salt: CodeSalt, OutDir: out,
		})
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		if err := rep.Err(); err != nil {
			t.Fatalf("job error: %v", err)
		}
		if _, err := harness.WriteManifest(out, rep, cache.Dir()); err != nil {
			t.Fatalf("manifest: %v", err)
		}
		m, err := harness.ReadManifest(out)
		if err != nil {
			t.Fatalf("read manifest: %v", err)
		}
		return m
	}

	out1, out2 := t.TempDir(), t.TempDir()
	cold := run(out1)
	if cold.CacheMisses != 1 || cold.CacheHits != 0 || cold.Jobs[0].Cached {
		t.Fatalf("cold run should miss: %+v", cold.Report)
	}
	warm := run(out2)
	if warm.CacheHits != 1 || warm.CacheMisses != 0 || !warm.Jobs[0].Cached {
		t.Fatalf("warm run should hit: %+v", warm.Report)
	}
	if len(warm.Jobs[0].Artifacts) != 1 {
		t.Fatalf("artifacts = %v, want one CSV", warm.Jobs[0].Artifacts)
	}

	csv1, err := os.ReadFile(filepath.Join(out1, "fig2.csv"))
	if err != nil {
		t.Fatalf("cold CSV: %v", err)
	}
	csv2, err := os.ReadFile(filepath.Join(out2, "fig2.csv"))
	if err != nil {
		t.Fatalf("warm CSV: %v", err)
	}
	if len(csv1) == 0 || !bytes.Equal(csv1, csv2) {
		t.Fatalf("cold and cached CSV artifacts differ (%d vs %d bytes)", len(csv1), len(csv2))
	}
}
