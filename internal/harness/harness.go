// Package harness turns the per-figure experiment drivers into a parallel,
// resumable evaluation pipeline. Every table/figure is a registered Job —
// a name, a deterministic spec and a pure Run function — and a bounded
// worker pool executes the registry with per-job panic recovery, context
// cancellation and duration metrics. Results are serialized into a
// content-addressed on-disk cache keyed by (job name, spec, code-version
// salt), so re-runs are incremental: only invalidated jobs recompute. Every
// run writes a manifest.json plus per-figure artifacts into an output
// directory. DESIGN.md §6 documents the subsystem.
package harness

import (
	"context"
	"fmt"
	"path"
	"sort"
	"strings"
)

// Job is one unit of evaluation work: a figure, a table, or any other
// deterministic computation worth caching.
//
// Run must be pure with respect to Spec: two jobs with equal (Name, Spec)
// must produce equal results regardless of execution order or concurrency —
// in particular any randomness must be derived from seeds carried by Spec,
// never from shared mutable state. The cache and the resumability guarantees
// rest on this property.
type Job struct {
	// Name identifies the job (e.g. "fig5a"). Unique within a registry.
	Name string
	// Spec is a canonical, deterministic description of everything the
	// result depends on (configuration, seeds, scale). It is hashed into
	// the cache key, so any change invalidates the cached result.
	Spec string
	// Run computes the result. The returned value must round-trip through
	// encoding/json (see Decode). ctx is checked by the pool before the
	// job starts; long-running jobs may also honour it themselves.
	Run func(ctx context.Context) (any, error)
	// Decode rebuilds a result value from its cached JSON encoding. If nil,
	// cache hits surface the raw json.RawMessage.
	Decode func(data []byte) (any, error)
	// Artifacts renders the result into files under dir (e.g. one CSV per
	// figure) and returns the paths written. Optional. Called on both fresh
	// and cached results, so artifacts regenerate on every run.
	Artifacts func(result any, dir string) ([]string, error)
}

// Registry is an ordered, name-unique collection of jobs.
type Registry struct {
	jobs   []Job
	byName map[string]int
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: map[string]int{}}
}

// Register adds a job. It rejects empty names, nil Run functions and
// duplicate names — duplicate registrations are almost always a forgotten
// rename that would silently alias two different computations to one
// cache entry.
func (r *Registry) Register(j Job) error {
	if j.Name == "" {
		return fmt.Errorf("harness: job with empty name")
	}
	if j.Run == nil {
		return fmt.Errorf("harness: job %q has nil Run", j.Name)
	}
	if _, dup := r.byName[j.Name]; dup {
		return fmt.Errorf("harness: duplicate job %q", j.Name)
	}
	r.byName[j.Name] = len(r.jobs)
	r.jobs = append(r.jobs, j)
	return nil
}

// MustRegister is Register for static registration tables, where a failure
// is a programming error.
func (r *Registry) MustRegister(j Job) {
	if err := r.Register(j); err != nil {
		panic(err)
	}
}

// Jobs returns the jobs in registration order.
func (r *Registry) Jobs() []Job {
	return append([]Job(nil), r.jobs...)
}

// Len reports the number of registered jobs.
func (r *Registry) Len() int { return len(r.jobs) }

// Lookup returns the job with the given name.
func (r *Registry) Lookup(name string) (Job, bool) {
	i, ok := r.byName[name]
	if !ok {
		return Job{}, false
	}
	return r.jobs[i], true
}

// Names returns the sorted job names.
func (r *Registry) Names() []string {
	names := make([]string, 0, len(r.jobs))
	for _, j := range r.jobs {
		names = append(names, j.Name)
	}
	sort.Strings(names)
	return names
}

// Match returns, in registration order, the jobs whose name matches any of
// the comma-separated path.Match patterns (e.g. "figure5*", "table1,fig1?").
// An empty pattern matches everything. Invalid patterns return an error.
func (r *Registry) Match(patterns string) ([]Job, error) {
	if patterns == "" {
		return r.Jobs(), nil
	}
	globs := strings.Split(patterns, ",")
	for _, g := range globs {
		if _, err := path.Match(g, ""); err != nil {
			return nil, fmt.Errorf("harness: bad pattern %q: %w", g, err)
		}
	}
	var out []Job
	for _, j := range r.jobs {
		for _, g := range globs {
			if ok, _ := path.Match(g, j.Name); ok { // g is valid, checked above
				out = append(out, j)
				break
			}
		}
	}
	return out, nil
}
