package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"strings"
	"time"

	"beyondft/internal/cluster"
	"beyondft/internal/graph"
	"beyondft/internal/serve"
	"beyondft/internal/topology"
)

// cmdServe is the topology-analysis query daemon: it serves the experiment
// registry and ad-hoc what-if queries (fluid-model throughput, path
// statistics) over a JSON HTTP API, with two-tier result caching, request
// coalescing, bounded admission and first-class metrics (see DESIGN.md §8).
//
//	beyondft serve -addr :8080
//	curl -s localhost:8080/healthz
//	curl -s -X POST localhost:8080/v1/throughput \
//	     -d '{"topo":{"kind":"xpander","degree":10,"lift":12,"servers":6},"tm":"permutation","x":0.4}'
//	curl -s -X POST localhost:8080/v1/jobs/fig2/run -d '{}'
//	curl -s localhost:8080/metrics
//
// SIGINT/SIGTERM drain in-flight requests (bounded by -drain) and flush a
// final manifest.json into -out before exiting.
func cmdServe(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", ":8080", "listen address (host:port; port 0 picks a free port)")
	cacheDir := fs.String("cache", defaultCacheDir, "L2 result cache directory, shared with run (empty disables)")
	l1Bytes := fs.Int64("l1-bytes", 64<<20, "in-memory L1 cache budget in bytes (0 disables)")
	l2MaxBytes := fs.Int64("l2-max-bytes", 0, "prune the disk cache under this many bytes (0 = unlimited)")
	computeWorkers := fs.Int("compute", runtime.GOMAXPROCS(0), "max concurrent computes (admission worker pool)")
	queueDepth := fs.Int("queue", 2*runtime.GOMAXPROCS(0), "admission queue depth; overflow is rejected with 429")
	timeout := fs.Duration("timeout", 60*time.Second, "per-request compute deadline (0 = none)")
	drain := fs.Duration("drain", 30*time.Second, "shutdown drain budget for in-flight requests")
	outDir := fs.String("out", "runs/serve", "directory for the final manifest.json (empty disables)")
	workers := workersFlag(fs, "parallel kernel workers per compute")
	full := fs.Bool("full", false, "paper-scale experiment configuration (slow)")
	seed := fs.Int64("seed", 1, "base random seed for the experiment registry")
	pprofFlag := fs.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	portFile := fs.String("port-file", "", "write the bound address to this file once listening (for scripts)")
	self := fs.String("self", "", "this node's advertised base URL for cluster mode (e.g. http://10.0.0.5:8080)")
	peersFlag := fs.String("peers", "", "comma-separated peer base URLs forming the cluster ring (implies -self); with -gossip-interval these are only seeds")
	forwardTimeout := fs.Duration("forward-timeout", 15*time.Second, "per-peer forward attempt timeout in cluster mode")
	replication := fs.Int("replication", 1, "replica owners per key (R); R>1 survives node loss with no cold recomputes")
	gossipInterval := fs.Duration("gossip-interval", time.Second, "membership gossip period (0 = static -peers list, no failure detection)")
	readyGrace := fs.Duration("ready-grace", 0, "after a shutdown signal, keep serving this long with /readyz=503 before draining")
	designDir := fs.String("designs", "", "directory of *.json topology designs to register at startup (kind \"design\" in /v1/throughput)")
	fs.Parse(args)

	logger := log.New(os.Stderr, "serve: ", log.LstdFlags|log.Lmsgprefix)
	graph.SetParallelism(*workers)

	if *designDir != "" {
		names, err := topology.LoadDesignDir(*designDir)
		if err != nil {
			return fmt.Errorf("loading designs from %s: %w", *designDir, err)
		}
		if len(names) > 0 {
			logger.Printf("registered %d designs from %s: %s", len(names), *designDir, strings.Join(names, ", "))
		}
	}

	s, err := serve.New(serve.Config{
		Experiments:    config(*full, *seed),
		CacheDir:       *cacheDir,
		L1Bytes:        *l1Bytes,
		L2MaxBytes:     *l2MaxBytes,
		Workers:        *computeWorkers,
		QueueDepth:     *queueDepth,
		RequestTimeout: *timeout,
		OutDir:         *outDir,
		EnablePprof:    *pprofFlag,
		Logf:           logger.Printf,
	})
	if err != nil {
		return err
	}
	if err := s.Start(*addr); err != nil {
		return err
	}
	if *portFile != "" {
		if err := os.WriteFile(*portFile, []byte(s.Addr()+"\n"), 0o644); err != nil {
			return err
		}
	}

	if *peersFlag != "" {
		selfURL := *self
		if selfURL == "" {
			// A usable default only when -addr binds a concrete host.
			selfURL = "http://" + s.Addr()
		}
		cl, err := cluster.New(cluster.Config{
			Self:           selfURL,
			Peers:          strings.Split(*peersFlag, ","),
			Replication:    *replication,
			ForwardTimeout: *forwardTimeout,
			GossipInterval: *gossipInterval,
			Registry:       s.Metrics().Registry(),
			Logf:           logger.Printf,
		})
		if err != nil {
			return err
		}
		s.EnableCluster(cl)
		cl.Start()
		defer cl.Stop()
	}

	<-ctx.Done()
	logger.Printf("signal received; draining (budget %s)", *drain)
	if *readyGrace > 0 {
		// Flip /readyz first so load balancers and peers route away while
		// the listener still answers, then close it.
		s.StartDrain()
		logger.Printf("readyz now 503; grace %s before closing the listener", *readyGrace)
		time.Sleep(*readyGrace)
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := s.Shutdown(shutdownCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	logger.Printf("drained cleanly")
	return nil
}
