package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"

	"beyondft/internal/experiments"
	"beyondft/internal/harness"
	"beyondft/internal/validate"
)

const (
	defaultCacheDir = ".harness-cache"
	defaultOutDir   = "runs/latest"
)

// cmdRun drives the paper's evaluation through the parallel experiment
// harness: every table/figure is a registered job, executed by a bounded
// worker pool with a content-addressed result cache, so re-runs are
// incremental — only jobs whose configuration or code changed recompute.
// Each finished job's figure rows go to stdout in registration order;
// artifacts and manifest.json go to -out.
//
//	beyondft run -j 8 -only 'fig5*'
//	beyondft run                                        # everything; 2nd invocation = all hits
//	beyondft run -no-cache -out= -only 'table1,fig*'    # print the paper's rows, write nothing
func cmdRun(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	workers := fs.Int("j", runtime.GOMAXPROCS(0), "worker pool size")
	only := fs.String("only", "", "comma-separated globs of job names to run (e.g. 'table1,fig5*'; default all)")
	cacheDir := fs.String("cache", defaultCacheDir, "result cache directory")
	noCache := fs.Bool("no-cache", false, "disable the result cache")
	outDir := fs.String("out", defaultOutDir, "output directory for artifacts and manifest ('' = none)")
	full := fs.Bool("full", false, "paper-scale configuration (slow)")
	seed := fs.Int64("seed", 1, "base random seed")
	timeout := fs.Duration("timeout", 0, "stop dispatching new jobs after this long; running jobs finish (0 = none)")
	trace := fs.Bool("trace", false, "record per-job span trees (printed after each job's rows, persisted in manifest.json)")
	fs.Parse(args)

	var cache *harness.Cache
	if !*noCache {
		var err error
		if cache, err = harness.OpenCache(*cacheDir); err != nil {
			return err
		}
	}
	jobs, err := registry(config(*full, *seed), *full, cache).Match(*only)
	if err != nil {
		return err
	}
	if len(jobs) == 0 {
		return fmt.Errorf("no jobs match -only=%q", *only)
	}
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			return err
		}
	}

	rep, err := harness.Run(ctx, jobs, harness.Options{
		Workers:  *workers,
		Salt:     experiments.CodeSalt,
		OutDir:   *outDir,
		Progress: os.Stderr,
		Trace:    *trace,
		Cache:    cache,
	})
	if err != nil {
		return err
	}
	for _, jr := range rep.Jobs {
		if res, ok := jr.Value.(*experiments.JobResult); ok && jr.Err == "" {
			for _, f := range res.Figures {
				f.Fprint(os.Stdout)
			}
		}
		if *trace {
			jr.Trace.Fprint(os.Stdout)
		}
	}
	if *outDir != "" {
		var cd string
		if cache != nil {
			cd = cache.Dir()
		}
		mp, err := harness.WriteManifest(*outDir, rep, cd)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "run: manifest=%s artifacts=%s\n", mp, *outDir)
	}
	return rep.Err()
}

// config assembles the experiment configuration from the shared flags.
func config(full bool, seed int64) experiments.Config {
	cfg := experiments.DefaultConfig()
	if full {
		cfg = experiments.PaperConfig()
	}
	cfg.Seed = seed
	return cfg
}

// registry is the figure/table registry plus the cross-model validation
// sweep, the what-if scenario sweeps, the scale-tier simulation and the
// design searches, so run executes and caches all of them through the same
// pool. cache (may be nil) feeds the what-if jobs' per-scenario entries,
// the scale job's mid-simulation stage checkpoints and the search jobs'
// per-candidate GK evaluations, making interrupted runs resumable.
func registry(cfg experiments.Config, full bool, cache *harness.Cache) *harness.Registry {
	reg := cfg.Registry()
	for _, j := range validate.Jobs(cfg.Seed, full) {
		reg.MustRegister(j)
	}
	for _, j := range cfg.WhatifJobs(cache) {
		reg.MustRegister(j)
	}
	for _, j := range cfg.SimScaleJobs(cache) {
		reg.MustRegister(j)
	}
	for _, j := range cfg.SearchJobs(cache) {
		reg.MustRegister(j)
	}
	return reg
}
