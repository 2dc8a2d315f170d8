package main

import (
	"fmt"
	"os"
	"time"
)

// runEnv is everything a workload gets besides its generated inputs.
type runEnv struct {
	Seed int64
	// Work multiplies every fixed work count: -scale × -seconds/10. The
	// counts in workloads.go are sized so Work=1 measures about ten
	// seconds per workload on the 2-core reference box.
	Work float64
	// Trace selects the traced pass: each workload runs its section once
	// untraced and once with the benchmark's spans on (both at half work,
	// so the pair costs one normal run), then probes its layers.
	Trace  bool
	NProc  int
	TmpDir string // scratch root inside the checkout, emptied on exit
	Ref    *reference
	tmpSeq int
}

// work is the factor on this pass's work counts: half in the traced pass,
// whose untraced and traced sections then cost one normal run together.
func (e *runEnv) work() float64 {
	if e.Trace {
		return e.Work / 2
	}
	return e.Work
}

// tmp makes a fresh directory under the run's scratch root.
func (e *runEnv) tmp(tag string) string {
	e.tmpSeq++
	dir := fmt.Sprintf("%s/%s-%d", e.TmpDir, tag, e.tmpSeq)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		panic(fmt.Sprintf("benchmark: scratch dir: %v", err)) // the checkout is not writable: nothing can run
	}
	return dir
}

// result is one workload's outcome: what was attempted, what it cost, and
// which checks failed.
type result struct {
	Workload string
	Loop     string

	Setup setupTime

	// Ops counts operations that succeeded inside any latency limit;
	// failed or refused ones count in Failed and never in Ops.
	Ops       int
	Attempted int
	Failed    int
	// LatMs are the ascending per-call latencies op_p50_ms is read from.
	LatMs []float64
	Sec   section
	// OpenLoop marks a section whose rate is set by the arrival schedule,
	// not by how fast the machine runs: its ops_per_s is not scaled by the
	// calibration.
	OpenLoop bool

	// Extra holds end-to-end numbers only some workloads define
	// (slo_rate_rps).
	Extra map[string]float64
	// Layer is the traced pass's table; nil on an untraced run.
	Layer map[string]float64
	// Digest is what reference.json pins for this workload.
	Digest map[string]any
	// SeedInvariant marks a digest that is the same for every seed (the
	// workload's instances are pinned), so one reference entry covers all.
	SeedInvariant bool
	// Failures lists every output check that did not hold.
	Failures []string
	Notes    []string
}

func newResult(w string) *result {
	return &result{Workload: w, Extra: map[string]float64{}, Digest: map[string]any{}}
}

func (r *result) failf(format string, args ...any) {
	r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
}

func (r *result) notef(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// endToEndValues derives the named end-to-end metrics from the raw result.
//
// ops_per_s is the wall-clock rate scaled by how slow the machine ran
// around the section (section.speed): the reference box is a shared VM
// whose speed drifts by 10–25% for minutes at a time, and unscaled, ten
// identical whatif_sweep runs spread by 21% across one such phase. The
// spin is the benchmark's own code, so no change to the program can move
// it. The unscaled rate is reported beside it as ops_per_wall_s.
func (r *result) endToEndValues() map[string]float64 {
	ops := float64(max(r.Ops, 1))
	wallRate := float64(r.Ops) / r.Sec.Wall.Seconds()
	rate := wallRate
	if !r.OpenLoop {
		rate *= r.Sec.speed()
	}
	m := map[string]float64{
		"setup_s":            r.Setup.WallS / r.Setup.speed(),
		"setup_wall_s":       r.Setup.WallS,
		"ops_per_s":          rate,
		"ops_per_wall_s":     wallRate,
		"op_p50_ms":          median(r.LatMs),
		"allocs_per_op":      float64(r.Sec.Mallocs) / ops,
		"alloc_bytes_per_op": float64(r.Sec.Bytes) / ops,
		"live_heap_mb":       r.Sec.LiveHeapMB,
		"fail_ratio":         float64(r.Failed) / float64(max(r.Attempted, 1)),
	}
	if v, beyond, ok := percentile(r.LatMs, 99); ok {
		m["op_p99_ms"] = v
		m["op_p99_samples_beyond"] = float64(beyond)
	}
	for k, v := range r.Extra {
		m[k] = v
	}
	return m
}

// setupTime is what timedSetup measured: the median wall time of one
// set-up, over how many, and the one-processor calibration spins (set-up is
// one goroutine booting servers and filling caches) taken before the first
// and after the last.
type setupTime struct {
	WallS   float64
	Samples int
	CalibMs [2]float64
}

// speed is section.speed for the set-up: setup_s is scaled like ops_per_s,
// to seconds of a machine running at reference speed. A set-up is 30 ms to
// 0.8 s, the whole series fits inside one slow phase of the box, and
// unscaled the median over ten runs moved by 22% between two sets taken
// ten minutes apart; the same readings scaled by the spin beside them, by
// 14%.
func (s setupTime) speed() float64 {
	return min(s.CalibMs[0], s.CalibMs[1]) / calibReferenceMs
}

// timedSetup runs setup several times — at least three, then until nine
// runs or two seconds — tearing down all but the last product, records the
// median set-up time in r and returns that product. One set-up of a few
// milliseconds is mostly scheduler noise; the median of several is steady
// enough to catch work moved out of the measured section into set-up.
// Smoke runs set up once: they check plumbing, not timings.
func timedSetup[T any](r *result, setup func() (T, error), teardown func(T)) (T, error) {
	atLeast, atMost := 3, 9
	if smokeRun {
		atLeast, atMost = 1, 1
	}
	var times []float64
	var last T
	c0 := calibSpin(1)
	began := time.Now()
	for {
		t0 := time.Now()
		v, err := setup()
		if err != nil {
			return last, err
		}
		times = append(times, time.Since(t0).Seconds())
		last = v
		if len(times) >= atMost || (len(times) >= atLeast && time.Since(began) > 2*time.Second) {
			r.Setup = setupTime{WallS: median(times), Samples: len(times), CalibMs: [2]float64{c0, calibSpin(1)}}
			return last, nil
		}
		teardown(v)
	}
}
