package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"strings"
	"testing"

	"beyondft/internal/golden"
	"beyondft/internal/topology"
)

const specGoldenPath = "testdata/spec_golden.json"

// specGoldenBodies is one request per topology kind (fields the kind
// ignores deliberately set on some of them), per TM family and per query
// kind. The canonical spec strings are cache keys and peer-forward bodies:
// they may not move without a reason. The results of the cold computes are
// pinned next to them, so the shared spec → topology → TM → solve path keeps
// every byte it serves.
var specGoldenBodies = map[string]string{
	"throughput/fattree":          `{"topo":{"kind":"fattree","k":4}}`,
	"throughput/fattree-ignored":  `{"topo":{"kind":"fattree","k":4,"n":99,"degree":7,"servers":3,"seed":9,"name":"x","design_hash":"y"},"tm":"all-to-all","x":0.5}`,
	"throughput/jellyfish":        `{"topo":{"kind":"jellyfish","n":14,"degree":4,"servers":3},"tm":"permutation","x":0.6,"seed":4}`,
	"throughput/jellyfish-ignore": `{"topo":{"kind":"jellyfish","n":14,"degree":4,"servers":3,"k":8,"lift":2,"q":5,"dim":3},"epsilon":0.15}`,
	"throughput/xpander":          `{"topo":{"kind":"xpander","degree":4,"lift":3,"servers":3,"seed":7},"tm":"all-to-all","epsilon":0.1}`,
	"throughput/slimfly":          `{"topo":{"kind":"slimfly","q":5,"servers":4,"seed":3},"epsilon":0.2}`,
	"throughput/longhop":          `{"topo":{"kind":"longhop","dim":4,"degree":5,"servers":3,"n":5},"tm":"permutation","epsilon":0.1}`,
	"throughput/design":           `{"topo":{"kind":"design","name":"spec-golden-design","n":12,"seed":2},"epsilon":0.15}`,
	"throughput/defaults":         `{"topo":{"kind":"jellyfish"}}`,
	"pathstats/xpander":           `{"topo":{"kind":"xpander","degree":4,"lift":3,"k":6}}`,
	"pathstats/defaults":          `{"topo":{"kind":"slimfly"}}`,
	"whatif/jellyfish":            `{"topo":{"kind":"jellyfish","n":12,"degree":3,"servers":2},"tm":"permutation","x":0.5,"family":{"kind":"single-link","k":5,"seed":2},"ladder":{"top_k":4}}`,
	"whatif/fattree-rack-add":     `{"topo":{"kind":"fattree","k":4,"servers":9},"family":{"kind":"rack-add","racks":2,"samples":3},"ladder":{"coarse_eps":0.3,"fine_eps":0.1}}`,
	"whatif/xpander-k-link":       `{"topo":{"kind":"xpander","degree":4,"lift":3,"servers":2},"tm":"all-to-all","seed":6,"family":{"kind":"k-link-sample","k":2,"samples":4}}`,
}

// specGoldenEntry is what one request pins.
type specGoldenEntry struct {
	Spec     string          `json:"spec"`
	BaseSpec string          `json:"base_spec,omitempty"` // whatif only
	Result   json.RawMessage `json:"result,omitempty"`    // cold compute; "defaults" cases skip it (paper-scale instances)
}

// registerGoldenDesign registers the design the "throughput/design" case
// names. Registering the same content again is a no-op, so the design stays
// registered for the rest of the process.
func registerGoldenDesign(t *testing.T) {
	t.Helper()
	d := topology.DesignOf(topology.NewJellyfish(12, 3, 2, rand.New(rand.NewSource(4))))
	d.Name = "spec-golden-design"
	if err := topology.RegisterDesign(d); err != nil {
		t.Fatal(err)
	}
}

func TestSpecGolden(t *testing.T) {
	registerGoldenDesign(t)

	strict := func(body string, v any) {
		t.Helper()
		dec := json.NewDecoder(bytes.NewReader([]byte(body)))
		dec.DisallowUnknownFields()
		if err := dec.Decode(v); err != nil {
			t.Fatalf("decode %s: %v", body, err)
		}
	}
	ctx := context.Background()
	got := map[string]specGoldenEntry{}
	for name, body := range specGoldenBodies {
		var e specGoldenEntry
		var run func(context.Context) (json.RawMessage, error)
		kind, _, _ := strings.Cut(name, "/")
		switch kind {
		case "throughput":
			var req ThroughputRequest
			strict(body, &req)
			if err := req.normalize(); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			e.Spec, run = req.spec(), req.run
		case "pathstats":
			var req PathStatsRequest
			strict(body, &req)
			if err := req.normalize(); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			e.Spec, run = req.spec(), req.run
		case "whatif":
			var req WhatifRequest
			strict(body, &req)
			if err := req.normalize(); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			e.Spec, e.BaseSpec, run = req.spec(), req.baseSpec(), req.run
		default:
			t.Fatalf("bad case name %q", name)
		}
		if name != "throughput/defaults" && name != "pathstats/defaults" {
			res, err := run(ctx)
			if err != nil {
				t.Fatalf("%s: run: %v", name, err)
			}
			e.Result = res
		}
		got[name] = e
	}

	if *golden.Update {
		golden.Write(t, specGoldenPath, got, "  ")
		return
	}
	var want map[string]specGoldenEntry
	golden.Read(t, specGoldenPath, &want)
	if len(want) != len(got) {
		t.Errorf("golden file has %d cases, the test runs %d", len(want), len(got))
	}
	for name, g := range got {
		w := want[name]
		if g.Spec != w.Spec {
			t.Errorf("%s: spec changed\nwant %s\ngot  %s", name, w.Spec, g.Spec)
		}
		if g.BaseSpec != w.BaseSpec {
			t.Errorf("%s: base spec changed\nwant %s\ngot  %s", name, w.BaseSpec, g.BaseSpec)
		}
		var gc, wc bytes.Buffer
		json.Compact(&gc, g.Result)
		json.Compact(&wc, w.Result)
		if gc.String() != wc.String() {
			t.Errorf("%s: result changed\nwant %s\ngot  %s", name, wc.String(), gc.String())
		}
	}
}
