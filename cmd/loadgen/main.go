// Command loadgen is an open-loop Poisson load generator for beyondftd:
// it fires throughput queries at one or more nodes on an absolute arrival
// schedule (arrivals do not wait for responses, so server slowdowns show
// up as latency rather than being absorbed by the closed loop), records
// end-to-end latency in mergeable quantile sketches, and prints a JSON run
// record with the latency CDF on stdout; -out also merges it into a file.
//
//	loadgen -targets http://127.0.0.1:8080 -rps 200 -duration 10s \
//	        -name 1node -out runs.json
//
// Multiple -targets are hit round-robin, which is how the cluster tier is
// benchmarked: each node forwards what it does not own, so the client needs
// no ring awareness.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net/http"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"beyondft/internal/obs"
	"beyondft/internal/stats"
)

// latencyShards bounds sketch-mutex contention: responses land in one of a
// few independently locked sketches, merged (exactly — integer bucket
// addition) into one CDF at the end.
const latencyShards = 8

type shardedSketch struct {
	shards [latencyShards]struct {
		mu sync.Mutex
		s  *stats.Sketch
	}
	next atomic.Uint64
}

func newShardedSketch(alpha float64) *shardedSketch {
	ss := &shardedSketch{}
	for i := range ss.shards {
		ss.shards[i].s = stats.NewSketch(alpha)
	}
	return ss
}

func (ss *shardedSketch) add(ms float64) {
	sh := &ss.shards[ss.next.Add(1)%latencyShards]
	sh.mu.Lock()
	sh.s.Add(ms)
	sh.mu.Unlock()
}

func (ss *shardedSketch) merged(alpha float64) *stats.Sketch {
	out := stats.NewSketch(alpha)
	for i := range ss.shards {
		out.Merge(ss.shards[i].s)
	}
	return out
}

// cdf is the summary serialized into the run record.
type cdf struct {
	Count  uint64  `json:"count"`
	MeanMs float64 `json:"mean_ms"`
	MinMs  float64 `json:"min_ms"`
	P50Ms  float64 `json:"p50_ms"`
	P90Ms  float64 `json:"p90_ms"`
	P99Ms  float64 `json:"p99_ms"`
	P999Ms float64 `json:"p999_ms"`
	MaxMs  float64 `json:"max_ms"`
}

func summarize(s *stats.Sketch) cdf {
	if s.Count() == 0 {
		return cdf{}
	}
	qs := s.Quantiles([]float64{0.5, 0.9, 0.99, 0.999})
	return cdf{
		Count:  s.Count(),
		MeanMs: s.Mean(),
		MinMs:  s.Min(),
		P50Ms:  qs[0],
		P90Ms:  qs[1],
		P99Ms:  qs[2],
		P999Ms: qs[3],
		MaxMs:  s.Max(),
	}
}

// runRecord is one entry in the -out file's "runs" map.
type runRecord struct {
	Targets     []string         `json:"targets"`
	TargetRPS   float64          `json:"target_rps"`
	AchievedRPS float64          `json:"achieved_rps"`
	DurationS   float64          `json:"duration_s"`
	SpecPool    int              `json:"spec_pool"`
	Seed        int64            `json:"seed"`
	Requests    int64            `json:"requests"`
	Drops       int64            `json:"drops"`
	Errors      int64            `json:"errors"`
	ByStatus    map[string]int64 `json:"by_status"`
	BySource    map[string]int64 `json:"by_source"`
	// ErrsByTarget splits Errors per node, so a churn bench shows whether
	// failures clustered on the killed node or spread fleet-wide.
	ErrsByTarget map[string]int64 `json:"errors_by_target,omitempty"`
	LatencyMs    cdf              `json:"latency_ms"`
	SchedLagMs   cdf              `json:"sched_lag_ms"`
}

// outFile is the whole -out file: run records keyed by -name, so repeated
// invocations (1-node, 3-node, ...) accumulate into one comparable document.
type outFile struct {
	Format string               `json:"format"`
	Runs   map[string]runRecord `json:"runs"`
}

const outFormat = "beyondft-loadgen-v1"

func main() {
	targetsFlag := flag.String("targets", "http://127.0.0.1:8080", "comma-separated beyondftd base URLs, hit round-robin")
	rps := flag.Float64("rps", 100, "target offered load in requests/second (Poisson arrivals)")
	duration := flag.Duration("duration", 10*time.Second, "generation window")
	conc := flag.Int("conc", 256, "max in-flight requests; arrivals beyond this are dropped (and counted)")
	specPool := flag.Int("specs", 64, "distinct specs in the query pool (seeds 1..N over one topology)")
	alpha := flag.Float64("alpha", stats.DefaultSketchAlpha, "sketch relative accuracy for the latency CDF")
	seed := flag.Int64("seed", 1, "RNG seed for arrivals and spec choice")
	warmup := flag.Bool("warmup", true, "prime every pool spec once (sequentially, unrecorded) before the timed run")
	name := flag.String("name", "run", "record name in the -out file (overwrites a same-named run)")
	out := flag.String("out", "", "JSON file to merge the run record into (empty: stdout only)")
	timeout := flag.Duration("timeout", 30*time.Second, "per-request timeout")
	maxErrorRate := flag.Float64("max-error-rate", 0,
		"tolerated errored fraction of requests before exiting 1 (0 = any error fails); membership-churn benches budget the kill window here")
	flag.Parse()

	logger := log.New(os.Stderr, "loadgen: ", log.LstdFlags|log.Lmsgprefix)
	targets := strings.Split(*targetsFlag, ",")
	for i, tgt := range targets {
		targets[i] = strings.TrimRight(strings.TrimSpace(tgt), "/")
	}
	if *rps <= 0 || len(targets) == 0 {
		logger.Fatal("need -rps > 0 and at least one -targets URL")
	}

	// The spec pool: one small topology family, seeds varying, so steady
	// state exercises the cache/forward path rather than raw solver time.
	specs := make([]string, *specPool)
	for i := range specs {
		specs[i] = fmt.Sprintf(
			`{"topo":{"kind":"jellyfish","n":16,"degree":4,"servers":2},"tm":"permutation","x":0.5,"seed":%d}`, i+1)
	}

	reg := obs.NewRegistry()
	requests := reg.Counter("loadgen_requests_total")
	drops := reg.Counter("loadgen_drops_total")
	errorsC := reg.Counter("loadgen_errors_total")
	var tallyMu sync.Mutex
	byStatus := map[string]int64{}
	bySource := map[string]int64{}
	errsByTarget := map[string]int64{}

	latency := newShardedSketch(*alpha)
	schedLag := newShardedSketch(*alpha)

	client := &http.Client{
		Timeout: *timeout,
		Transport: &http.Transport{
			MaxIdleConns:        2 * *conc,
			MaxIdleConnsPerHost: 2 * *conc,
		},
	}

	// queryEnvelope is the slice of beyondftd's response we tally.
	type queryEnvelope struct {
		Source string `json:"source"`
	}
	do := func(target, spec string) {
		start := time.Now()
		ctx, cancel := context.WithTimeout(context.Background(), *timeout)
		defer cancel()
		req, err := http.NewRequestWithContext(ctx, http.MethodPost,
			target+"/v1/throughput", strings.NewReader(spec))
		if err != nil {
			errorsC.Inc()
			return
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := client.Do(req)
		if err != nil {
			errorsC.Inc()
			tallyMu.Lock()
			byStatus["error"]++
			errsByTarget[target]++
			tallyMu.Unlock()
			return
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		latency.add(float64(time.Since(start)) / float64(time.Millisecond))
		var env queryEnvelope
		source := "unknown"
		if json.Unmarshal(body, &env) == nil && env.Source != "" {
			source = env.Source
		}
		tallyMu.Lock()
		byStatus[fmt.Sprint(resp.StatusCode)]++
		if resp.StatusCode == http.StatusOK {
			bySource[source]++
		} else {
			errsByTarget[target]++
		}
		tallyMu.Unlock()
		if resp.StatusCode != http.StatusOK {
			errorsC.Inc()
		}
	}

	// Prime the caches so the timed window measures steady state: a cold
	// pool at full offered load saturates the admission queues (computes are
	// orders of magnitude slower than cache hits) and the resulting 429 shed
	// is load-shedding policy, not serving latency.
	if *warmup {
		wStart := time.Now()
		for i, spec := range specs {
			req, err := http.NewRequest(http.MethodPost,
				targets[i%len(targets)]+"/v1/throughput", strings.NewReader(spec))
			if err != nil {
				logger.Fatal(err)
			}
			req.Header.Set("Content-Type", "application/json")
			resp, err := client.Do(req)
			if err != nil {
				logger.Fatalf("warmup: %v", err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				logger.Fatalf("warmup: spec %d -> status %d", i, resp.StatusCode)
			}
		}
		logger.Printf("warmup: %d specs primed in %s", len(specs), time.Since(wStart).Round(time.Millisecond))
	}

	// The open loop: the absolute fire time of arrival k is the running sum
	// of exponential gaps from the start — never "now plus gap", which would
	// let scheduling debt thin the offered load. schedLag records how far
	// behind the ideal schedule each arrival actually fired.
	rng := rand.New(rand.NewSource(*seed))
	var inflight atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(*duration)
	next := start
	n := 0
	logger.Printf("offered %.0f rps for %s across %d target(s), pool %d specs",
		*rps, *duration, len(targets), len(specs))
	for {
		next = next.Add(time.Duration(rng.ExpFloat64() / *rps * float64(time.Second)))
		if next.After(deadline) {
			break
		}
		if d := time.Until(next); d > 0 {
			time.Sleep(d)
		}
		schedLag.add(float64(time.Since(next)) / float64(time.Millisecond))
		if inflight.Load() >= int64(*conc) {
			drops.Inc()
			n++
			continue
		}
		requests.Inc()
		inflight.Add(1)
		wg.Add(1)
		target := targets[n%len(targets)]
		spec := specs[rng.Intn(len(specs))]
		n++
		go func() {
			defer wg.Done()
			defer inflight.Add(-1)
			do(target, spec)
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	rec := runRecord{
		Targets:      targets,
		TargetRPS:    *rps,
		AchievedRPS:  float64(requests.Load()) / elapsed.Seconds(),
		DurationS:    elapsed.Seconds(),
		SpecPool:     len(specs),
		Seed:         *seed,
		Requests:     requests.Load(),
		Drops:        drops.Load(),
		Errors:       errorsC.Load(),
		ByStatus:     byStatus,
		BySource:     bySource,
		ErrsByTarget: errsByTarget,
		LatencyMs:    summarize(latency.merged(*alpha)),
		SchedLagMs:   summarize(schedLag.merged(*alpha)),
	}

	doc := outFile{Format: outFormat, Runs: map[string]runRecord{}}
	if *out != "" {
		if data, err := os.ReadFile(*out); err == nil {
			if err := json.Unmarshal(data, &doc); err != nil {
				logger.Fatalf("existing %s is not a %s file: %v", *out, outFormat, err)
			}
			if doc.Runs == nil {
				doc.Runs = map[string]runRecord{}
			}
		}
	}
	doc.Format = outFormat
	doc.Runs[*name] = rec

	pretty, err := json.MarshalIndent(doc.Runs[*name], "", "  ")
	if err != nil {
		logger.Fatal(err)
	}
	fmt.Printf("%s: %s\n", *name, pretty)
	reg.WriteTo(os.Stderr)

	if *out != "" {
		data, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			logger.Fatal(err)
		}
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			logger.Fatal(err)
		}
		logger.Printf("run %q merged into %s", *name, *out)
	}
	if rec.Errors > 0 {
		total := rec.Requests
		if total < 1 {
			total = 1
		}
		rate := float64(rec.Errors) / float64(total)
		if rate > *maxErrorRate {
			logger.Printf("FAIL: %d/%d requests errored (%.3f%% > budget %.3f%%)",
				rec.Errors, rec.Requests, 100*rate, 100**maxErrorRate)
			os.Exit(1)
		}
		logger.Printf("WARNING: %d/%d requests errored (%.3f%%, within budget %.3f%%)",
			rec.Errors, rec.Requests, 100*rate, 100**maxErrorRate)
	}
}
