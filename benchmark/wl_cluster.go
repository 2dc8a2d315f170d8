package main

import (
	"bytes"
	"encoding/json"
	"fmt"

	"beyondft/internal/serve"
)

const (
	clusterNodes       = 3
	clusterReplication = 2
	clusterSpecs       = 300 // the computes are 95% of the wall: 150 of them (4 s) spread ops_per_s by 11%, 300 by 6%
	clusterRounds      = 20
)

// clusterState is a three-node ring at R=2 with gossip on, and clients
// that each hold a connection to every node.
type clusterState struct {
	nodes []*node
	conns [][]*httpConn // [client][node]
	specs []querySpec
	picks []int32
	envs  []envelope
}

func (s *clusterState) close() {
	for _, cs := range s.conns {
		closeConns(cs)
	}
	for _, n := range s.nodes {
		n.close()
	}
}

func setupCluster(env *runEnv, work float64) (*clusterState, error) {
	rng := inputRNG(env.Seed, "cluster_serve")
	st := &clusterState{specs: midSpecs(rng, count(clusterSpecs, work, 3))}
	st.picks = clusterPicks(rng, len(st.specs), clusterRounds)
	st.envs = make([]envelope, len(st.picks))
	var err error
	st.nodes, err = bootCluster(clusterNodes, clusterReplication, func(i int) serve.Config {
		return serve.Config{CacheDir: env.tmp(fmt.Sprintf("node%d", i)), L1Bytes: 64 << 20, Workers: env.NProc, QueueDepth: 4 * env.NProc}
	})
	if err != nil {
		return nil, err
	}
	// Every connection is opened with one throwaway cold spec of its own,
	// so before the section each node has computed, forwarded and pushed a
	// replica at least once. The checks count from after this point.
	warm := midSpecs(pinnedRNG("cluster_serve/warmup"), 1)[0]
	st.conns = make([][]*httpConn, closedClients(env))
	for c := range st.conns {
		st.conns[c] = make([]*httpConn, len(st.nodes))
		for k, n := range st.nodes {
			st.conns[c][k] = newHTTPConn()
			if s := st.conns[c][k].post(n.url+throughputPath, warm.Body, nil); !ok200(s) {
				st.close()
				return nil, fmt.Errorf("cluster dial: status %d", s.Status)
			}
		}
	}
	return st, nil
}

// drive sends request i to node i mod 3: the clients need no ring
// awareness, each node forwards what it does not own.
func (s *clusterState) drive(tr *tracer) []shot {
	roots := clientRoots(tr, len(s.conns))
	return closedLoop(len(s.conns), len(s.picks), func(c, i int) shot {
		k := i % len(s.nodes)
		var out shot
		call(roots[c], "serve.request", func() {
			out = s.conns[c][k].post(s.nodes[k].url+throughputPath, s.specs[s.picks[i]].Body, &s.envs[i])
		})
		return out
	})
}

func (s *clusterState) fleetCounters() serveCounters {
	var total serveCounters
	for _, n := range s.nodes {
		total = total.plus(readServeCounters(n.srv.Metrics()))
	}
	return total
}

func runClusterServe(env *runEnv) *result {
	r := newResult("cluster_serve")
	work := env.work()
	st, err := timedSetup(r, func() (*clusterState, error) { return setupCluster(env, work) }, (*clusterState).close)
	if err != nil {
		r.failf("set-up: %v", err)
		return r
	}
	before := st.fleetCounters()
	var shots []shot
	r.Sec = measure(env.NProc, func() { shots = st.drive(nil) })
	checkCluster(r, st, shots, st.fleetCounters().minus(before))
	st.close()
	if env.Trace {
		traceCluster(env, r, work)
	}
	return r
}

func checkCluster(r *result, st *clusterState, shots []shot, fleet serveCounters) {
	r.Attempted = len(shots)
	first := make([][]byte, len(st.specs))
	for i, s := range shots {
		spec := st.picks[i]
		switch {
		case !ok200(s):
			r.Failed++
			r.failf("request %d (spec %d): status %d", i, spec, s.Status)
		case first[spec] == nil:
			first[spec] = st.envs[i].Result
		case !bytes.Equal(first[spec], st.envs[i].Result):
			r.Failed++
			r.failf("request %d (spec %d): result bytes differ across nodes", i, spec)
		}
	}
	served := make([]float64, len(st.specs))
	for spec, data := range first {
		var tr serve.ThroughputResult
		if err := json.Unmarshal(data, &tr); err != nil {
			r.failf("spec %d: result: %v", spec, err)
			continue
		}
		checkCertificate(r, fmt.Sprintf("spec %d", spec), tr.Throughput, tr.UpperBound, tr.Epsilon)
		served[spec] = tr.Throughput
	}
	if int(fleet.Computed) != len(st.specs) {
		r.failf("fleet computed %d results for %d distinct specs, want each exactly once", fleet.Computed, len(st.specs))
	}
	r.Ops = r.Attempted - r.Failed
	r.LatMs = latencies(shots, ok200)
	r.Digest["throughput"] = served
}

func traceCluster(env *runEnv, r *result, work float64) {
	st, err := setupCluster(env, work)
	if err != nil {
		r.failf("traced set-up: %v", err)
		return
	}
	defer st.close()
	before := st.fleetCounters()
	tr := &tracer{}
	var shots []shot
	traced := measure(env.NProc, func() { shots = st.drive(tr) })
	fleet := st.fleetCounters().minus(before)
	sub := newResult(r.Workload)
	checkCluster(sub, st, shots, fleet)
	r.Failures = append(r.Failures, sub.Failures...)

	layer := map[string]float64{}
	r.Layer = layer
	fleet.into(layer)
	splitLatencies(layer, shots)
	layer["cluster.fleet_computed"] = float64(fleet.Computed)
	layer["cluster.peer_hits"] = float64(fleet.PeerHits)
	layer["cluster.peer_fills"] = float64(fleet.PeerFills)
	for _, n := range st.nodes {
		reg := n.srv.Metrics().Registry()
		m := n.cl.Metrics()
		layer["cluster.forwards"] += sumSeries(reg, "beyondftd_cluster_forwards_total")
		layer["cluster.replica_pushes"] += float64(m.ReplicaPushes.Load())
		layer["cluster.replica_push_errors"] += float64(m.ReplicaPushErrors.Load())
		layer["cluster.replica_drops"] += float64(m.ReplicaDrops.Load())
		layer["cluster.replica_probes"] += float64(m.ReplicaProbes.Load())
		layer["cluster.hedges"] += float64(m.Hedges.Load())
		layer["cluster.retries"] += float64(m.Retries.Load())
		layer["cluster.fallbacks"] += float64(m.Fallbacks.Load())
		layer["cluster.gossips"] += float64(m.Gossips.Load())
	}
	var peer, computed, l1 []float64
	for _, s := range shots {
		switch {
		case !ok200(s):
		case s.Source == srcPeer:
			peer = append(peer, float64(s.LatMs))
		case s.Source == srcComputed:
			computed = append(computed, float64(s.LatMs))
		case s.Source == srcL1:
			l1 = append(l1, float64(s.LatMs))
		}
	}
	layer["cluster.l1_ms_p50"] = median(l1)
	// Every spec is first asked cold, so a peer-sourced reply is a forward
	// to an owner that computes: what it costs beyond a reply computed
	// where it was asked is the hop (forward, fill and the owner's replica
	// push).
	if len(peer) > 0 && len(computed) > 0 {
		layer["cluster.peer_hop_ms_p50"] = median(peer) - median(computed)
	}
	lt := tr.fold()
	traceCommon(r, traced, lt.SelfMs["serve"]/float64(len(st.conns)))
}
