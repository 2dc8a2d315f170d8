package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"

	"beyondft/internal/flowsim"
	"beyondft/internal/sim"
	"beyondft/internal/topology"
)

// driverState is the arrival generator's position, carried inside the
// flowsim checkpoint's Driver blob.
type driverState struct {
	RNG      sim.RNG  `json:"rng"`
	Injected int      `json:"injected"`
	At       sim.Time `json:"at"`
	Flows    int      `json:"flows"`
	GapNs    float64  `json:"gap_ns"`
}

// cmdSimscale drives the flow-level simulator at scale: a Poisson-ish
// workload over a fat-tree, sharded event loops, slab-recycled flows and
// streaming statistics. Its stdout is deterministic for a given
// (topology, flows, seed) triple — byte-identical across any -shards value
// and across a checkpoint/resume split — which `make sim-scale-smoke`
// exploits as an end-to-end determinism gate.
//
//	beyondft simscale -flows 200000 -halt-after 100000 -checkpoint cp.json
//	beyondft simscale -resume cp.json
//
// The second invocation's output is byte-identical to an uninterrupted run.
func cmdSimscale(_ context.Context, args []string) error {
	fs := flag.NewFlagSet("simscale", flag.ExitOnError)
	k := fs.Int("k", 8, "fat-tree parameter (k^3/4 servers)")
	flows := fs.Int("flows", 100_000, "total flows to inject")
	shards := fs.Int("shards", 1, "event-loop shards (results are shard-count-invariant)")
	seed := fs.Int64("seed", 1, "simulation seed (workload derives from it too)")
	gapUs := fs.Float64("gap-us", 2, "mean inter-arrival gap in microseconds")
	haltAfter := fs.Int("halt-after", 0, "checkpoint and exit after this many injected flows (0 = run to completion)")
	cpOut := fs.String("checkpoint", "", "file to write the -halt-after checkpoint to")
	resume := fs.String("resume", "", "resume from a checkpoint file instead of starting fresh")
	fs.Parse(args)

	halting := *haltAfter != 0 || *cpOut != ""
	switch {
	case halting && (*haltAfter <= 0 || *cpOut == ""):
		return errors.New("-halt-after N and -checkpoint FILE go together")
	case halting && *resume != "":
		return errors.New("-halt-after cannot be combined with -resume")
	case halting && *haltAfter >= *flows:
		return fmt.Errorf("-halt-after %d: a run of -flows %d would finish first", *haltAfter, *flows)
	}

	var cp flowsim.Checkpoint
	var st driverState
	cfg := flowsim.DefaultConfig()
	if *resume != "" {
		if err := readJSON(*resume, &cp); err != nil {
			return err
		}
		if err := json.Unmarshal(cp.Driver, &st); err != nil {
			return fmt.Errorf("checkpoint has no simscale driver state: %w", err)
		}
		cfg = cp.Cfg
	} else {
		cfg.Seed = *seed
		cfg.DiscardCompleted = true
		st = driverState{
			RNG:   *sim.NewRNG(*seed + 0x5ca1e),
			Flows: *flows,
			GapNs: *gapUs * 1000,
		}
	}
	cfg.Shards = *shards
	topo := topology.NewFatTree(*k)
	n := flowsim.NewNetwork(&topo.Topology, cfg)
	defer n.Close()
	if *resume != "" {
		if err := n.Restore(&cp); err != nil {
			return fmt.Errorf("restore: %w", err)
		}
	}

	total := topo.TotalServers()
	rng := st.RNG
	for st.Injected < st.Flows {
		if halting && st.Injected == *haltAfter {
			st.RNG = rng
			blob, err := json.Marshal(st)
			if err != nil {
				return fmt.Errorf("driver state: %w", err)
			}
			snap, err := n.Checkpoint(blob)
			if err != nil {
				return fmt.Errorf("checkpoint: %w", err)
			}
			if _, err := writeJSON(*cpOut, snap); err != nil {
				return fmt.Errorf("checkpoint: %w", err)
			}
			fmt.Printf("checkpoint: %d/%d flows injected\n", st.Injected, st.Flows)
			return nil
		}
		st.At += sim.Time(rng.ExpFloat64()*st.GapNs) + 1
		src := rng.Intn(total)
		dst := rng.Intn(total)
		if dst == src {
			dst = (dst + 1) % total
		}
		n.ScheduleFlow(st.At, src, dst, int64(1_000+rng.Intn(100_000)))
		n.Run(st.At)
		st.Injected++
	}
	n.Run(st.At + 60*sim.Second)

	if n.Completed() != n.Started() {
		return fmt.Errorf("only %d of %d flows completed at horizon", n.Completed(), n.Started())
	}
	sk := n.FCTSketch()
	qs := sk.Quantiles([]float64{0.5, 0.9, 0.99})
	fmt.Printf("flows: started=%d completed=%d\n", n.Started(), n.Completed())
	fmt.Printf("slab: high-water=%d\n", n.SlabHighWater())
	fmt.Printf("fct-ns: count=%d p50=%.0f p90=%.0f p99=%.0f\n", sk.Count(), qs[0], qs[1], qs[2])
	sketchJSON, err := json.Marshal(sk)
	if err != nil {
		return err
	}
	fmt.Printf("sketch: %s\n", sketchJSON)
	return nil
}
