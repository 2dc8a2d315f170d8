package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"time"

	"beyondft/internal/cluster"
	"beyondft/internal/experiments"
	"beyondft/internal/harness"
	"beyondft/internal/obs"
	"beyondft/internal/serve"
)

// node is one in-process beyondftd: serve.New + Start on a loopback port,
// exactly what cmd/beyondftd does, optionally joined to a cluster ring.
type node struct {
	srv *serve.Server
	url string
	cl  *cluster.Cluster
}

func bootNode(cfg serve.Config) (*node, error) {
	cfg.Experiments = experiments.DefaultConfig()
	srv, err := serve.New(cfg)
	if err != nil {
		return nil, err
	}
	if err := srv.Start("127.0.0.1:0"); err != nil {
		return nil, err
	}
	return &node{srv: srv, url: "http://" + srv.Addr()}, nil
}

func (n *node) close() {
	if n.cl != nil {
		n.cl.Stop()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = n.srv.Shutdown(ctx) // a drain timeout only means a request was cut; the run is over
}

// bootCluster boots `size` nodes and joins them into one ring at the given
// replication factor with gossip on, like `beyondftd -peers ... -replication R`.
func bootCluster(size, replication int, cfgFor func(i int) serve.Config) ([]*node, error) {
	nodes := make([]*node, 0, size)
	closeAll := func() {
		for _, n := range nodes {
			n.close()
		}
	}
	var urls []string
	for i := 0; i < size; i++ {
		n, err := bootNode(cfgFor(i))
		if err != nil {
			closeAll()
			return nil, err
		}
		nodes = append(nodes, n)
		urls = append(urls, n.url)
	}
	for _, n := range nodes {
		cl, err := cluster.New(cluster.Config{
			Self:           n.url,
			Peers:          urls,
			Replication:    replication,
			GossipInterval: time.Second,
			Registry:       n.srv.Metrics().Registry(),
		})
		if err != nil {
			closeAll()
			return nil, err
		}
		n.srv.EnableCluster(cl)
		cl.Start()
		n.cl = cl
	}
	return nodes, nil
}

// l1Stats reads the L1 occupancy the way an operator does: GET /healthz.
func (n *node) l1Stats() (harness.LRUStats, error) {
	rec := httptest.NewRecorder()
	n.srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	var hz struct {
		L1 harness.LRUStats `json:"l1"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &hz); err != nil {
		return harness.LRUStats{}, fmt.Errorf("healthz: %w", err)
	}
	return hz.L1, nil
}

// serveCounters is a snapshot of the public serve counters; layer metrics
// are deltas between two snapshots.
type serveCounters struct {
	Requests, L1Hits, L2Hits, Computed, Coalesced, Rejected, Errors, PeerHits, PeerFills int64
}

func readServeCounters(m *serve.Metrics) serveCounters {
	return serveCounters{
		Requests: m.Requests.Load(), L1Hits: m.L1Hits.Load(), L2Hits: m.L2Hits.Load(),
		Computed: m.Computed.Load(), Coalesced: m.Coalesced.Load(), Rejected: m.Rejected.Load(),
		Errors: m.Errors.Load(), PeerHits: m.PeerHits.Load(), PeerFills: m.PeerFills.Load(),
	}
}

func (a serveCounters) minus(b serveCounters) serveCounters {
	return serveCounters{
		Requests: a.Requests - b.Requests, L1Hits: a.L1Hits - b.L1Hits, L2Hits: a.L2Hits - b.L2Hits,
		Computed: a.Computed - b.Computed, Coalesced: a.Coalesced - b.Coalesced, Rejected: a.Rejected - b.Rejected,
		Errors: a.Errors - b.Errors, PeerHits: a.PeerHits - b.PeerHits, PeerFills: a.PeerFills - b.PeerFills,
	}
}

func (a serveCounters) plus(b serveCounters) serveCounters {
	return a.minus(serveCounters{}.minus(b))
}

// into writes the counters into a layer table.
func (a serveCounters) into(layer map[string]float64) {
	layer["serve.requests"] = float64(a.Requests)
	layer["serve.l1_hits"] = float64(a.L1Hits)
	layer["serve.l2_hits"] = float64(a.L2Hits)
	layer["serve.computed"] = float64(a.Computed)
	layer["serve.coalesced"] = float64(a.Coalesced)
	layer["serve.rejected"] = float64(a.Rejected)
	layer["serve.errors"] = float64(a.Errors)
	if a.Requests > 0 {
		layer["serve.l1_hit_ratio"] = float64(a.L1Hits) / float64(a.Requests)
	}
}

// sumSeries adds up every sample of a metric family in a registry's
// Prometheus text, across label sets (per-peer forward counters have one
// series per peer and no accessor that lists them).
func sumSeries(reg *obs.Registry, family string) float64 {
	var sb strings.Builder
	_, _ = reg.WriteTo(&sb) // writes to a strings.Builder cannot fail
	total := 0.0
	sc := bufio.NewScanner(strings.NewReader(sb.String()))
	for sc.Scan() {
		line := sc.Text()
		rest, ok := strings.CutPrefix(line, family)
		if !ok || rest == "" || (rest[0] != ' ' && rest[0] != '{') {
			continue
		}
		if v, err := strconv.ParseFloat(line[strings.LastIndexByte(line, ' ')+1:], 64); err == nil {
			total += v
		}
	}
	return total
}
