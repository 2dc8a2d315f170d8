package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"beyondft/internal/harness"
)

// cmdStatus summarizes a previous run's manifest and the cache it used, and
// can prune that cache.
func cmdStatus(_ context.Context, args []string) error {
	fs := flag.NewFlagSet("status", flag.ExitOnError)
	outDir := fs.String("out", defaultOutDir, "run directory to read")
	cacheDir := fs.String("cache", defaultCacheDir, "cache directory to report stats for")
	prune := fs.Int64("prune-max-bytes", -1, "prune the cache down to this many bytes, oldest entries first (-1 = don't prune)")
	fs.Parse(args)

	m, err := harness.ReadManifest(*outDir)
	if err != nil {
		return err
	}
	fmt.Printf("run of %s (workers=%d, salt=%s)\n", m.CreatedAt.Format(time.RFC3339), m.Workers, m.Salt)
	fmt.Printf("  jobs=%d hits=%d misses=%d errors=%d wall=%s\n",
		len(m.Jobs), m.CacheHits, m.CacheMisses, m.Errors,
		(time.Duration(m.WallClockMs) * time.Millisecond).Round(time.Millisecond))

	// Slowest jobs first: the ones worth optimizing or sharding next.
	jobs := m.Jobs
	sort.Slice(jobs, func(i, j int) bool { return jobs[i].DurationMs > jobs[j].DurationMs })
	fmt.Printf("  slowest jobs:\n")
	for _, jr := range jobs[:min(len(jobs), 5)] {
		state := "computed"
		if jr.Cached {
			state = "cached"
		}
		if jr.Err != "" {
			state = "ERROR: " + jr.Err
		}
		fmt.Printf("    %-14s %8s  %s (%d artifacts)\n", jr.Name,
			(time.Duration(jr.DurationMs) * time.Millisecond).Round(time.Millisecond),
			state, len(jr.Artifacts))
	}

	// OpenCache creates its directory; a report must not.
	if _, err := os.Stat(*cacheDir); errors.Is(err, os.ErrNotExist) {
		fmt.Printf("  no cache at %s\n", *cacheDir)
		return nil
	}
	c, err := harness.OpenCache(*cacheDir)
	if err != nil {
		return err
	}
	n, bytes, err := c.Stats()
	if err != nil {
		return err
	}
	fmt.Printf("  cache %s: %d entries, %.1f KiB (avg %d B/entry)\n",
		*cacheDir, n, float64(bytes)/1024, bytes/int64(max(n, 1)))

	if *prune >= 0 {
		logf := func(format string, a ...any) { fmt.Fprintf(os.Stderr, format+"\n", a...) }
		evicted, freed, err := c.Prune(*prune, logf)
		if err != nil {
			return err
		}
		fmt.Printf("  pruned to %d bytes: evicted %d entries, freed %.1f KiB\n",
			*prune, evicted, float64(freed)/1024)
	}
	return nil
}
