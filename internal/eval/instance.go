package eval

import (
	"cmp"
	"fmt"
	"math/rand"

	"beyondft/internal/tm"
	"beyondft/internal/topology"
	"beyondft/internal/workload"
)

// MaxSwitches bounds the topologies Normalize admits. The query service
// computes interactively; a million-switch Jellyfish belongs in the batch
// harness, and admission control cannot help once a single compute is
// allowed to be arbitrarily large.
const MaxSwitches = 8192

// TopoSpec describes a topology to build. Its JSON form is the wire and
// cache-key encoding of the daemon (struct field order is fixed, so the
// encoding is deterministic); the CLIs fill it from their flags. Fields
// irrelevant to the chosen kind are zeroed by Normalize so specs that differ
// only in ignored fields share one cache entry.
type TopoSpec struct {
	Kind    string `json:"kind"`              // fattree | jellyfish | xpander | slimfly | longhop | design
	K       int    `json:"k,omitempty"`       // fattree
	N       int    `json:"n,omitempty"`       // jellyfish: switch count
	Degree  int    `json:"degree,omitempty"`  // jellyfish / xpander / longhop
	Lift    int    `json:"lift,omitempty"`    // xpander
	Servers int    `json:"servers,omitempty"` // servers per switch (flat topologies)
	Q       int    `json:"q,omitempty"`       // slimfly
	Dim     int    `json:"dim,omitempty"`     // longhop
	Seed    int64  `json:"seed,omitempty"`    // randomized constructions

	// Name selects a registered design (kind "design") — e.g. a
	// search-found topology loaded at daemon startup via -designs.
	Name string `json:"name,omitempty"`
	// DesignHash is the design's content address, filled from the registry
	// by Normalize so cache entries key on content: re-registering
	// different bytes under the same name cannot alias a stale result.
	DesignHash string `json:"design_hash,omitempty"`
}

// Normalize fills defaults (cmd/throughput's) and zeroes fields the kind
// ignores, then validates: every precondition of the constructors is
// checked here, so bad input is an error and never a constructor panic, and
// every admitted spec builds at most MaxSwitches switches. Each kind
// rebuilds the spec from the fields it reads, so whatever it does not list —
// a field added later included — is zero by construction.
func (s *TopoSpec) Normalize() error {
	switch s.Kind {
	case "design":
		if s.Name == "" {
			return fmt.Errorf("design: name required")
		}
		d, ok := topology.LookupDesign(s.Name)
		if !ok {
			return fmt.Errorf("design %q not registered (daemon flag -designs loads a directory)", s.Name)
		}
		if len(d.Servers) > MaxSwitches {
			return fmt.Errorf("design %q has %d switches > limit %d", s.Name, len(d.Servers), MaxSwitches)
		}
		*s = TopoSpec{Kind: s.Kind, Name: s.Name, DesignHash: d.Hash()}
		return nil
	case "fattree":
		*s = TopoSpec{Kind: s.Kind, K: cmp.Or(s.K, 8)}
		if s.K < 2 || s.K%2 != 0 || s.K > 64 {
			return fmt.Errorf("fattree k=%d: need even k in [2,64]", s.K)
		}
	case "jellyfish":
		*s = TopoSpec{Kind: s.Kind, N: cmp.Or(s.N, 54), Degree: cmp.Or(s.Degree, 9),
			Servers: cmp.Or(s.Servers, 6), Seed: cmp.Or(s.Seed, 1)}
		if s.N < 2 || s.N > MaxSwitches {
			return fmt.Errorf("jellyfish n=%d: need [2,%d]", s.N, MaxSwitches)
		}
		if s.Degree < 2 || s.Degree >= s.N {
			return fmt.Errorf("jellyfish degree=%d: need [2,n)", s.Degree)
		}
		if s.N*s.Degree%2 != 0 {
			return fmt.Errorf("jellyfish n=%d degree=%d: n·degree must be even", s.N, s.Degree)
		}
	case "xpander":
		*s = TopoSpec{Kind: s.Kind, Degree: cmp.Or(s.Degree, 9), Lift: cmp.Or(s.Lift, 9),
			Servers: cmp.Or(s.Servers, 6), Seed: cmp.Or(s.Seed, 1)}
		if s.Degree < 2 || s.Lift < 2 || (s.Degree+1)*s.Lift > MaxSwitches {
			return fmt.Errorf("xpander degree=%d lift=%d: need degree,lift >= 2 and (degree+1)*lift <= %d", s.Degree, s.Lift, MaxSwitches)
		}
	case "slimfly":
		*s = TopoSpec{Kind: s.Kind, Q: cmp.Or(s.Q, 5), Servers: cmp.Or(s.Servers, 6)}
		if s.Q < 2 || 2*s.Q*s.Q > MaxSwitches {
			return fmt.Errorf("slimfly q=%d: need q >= 2 and 2q² <= %d", s.Q, MaxSwitches)
		}
		if !topology.SlimFlyQ(s.Q) {
			return fmt.Errorf("slimfly q=%d: need a prime ≡ 1 (mod 4)", s.Q)
		}
	case "longhop":
		*s = TopoSpec{Kind: s.Kind, Dim: cmp.Or(s.Dim, 6), Degree: cmp.Or(s.Degree, 9), Servers: cmp.Or(s.Servers, 6)}
		if s.Dim < 2 || s.Dim > 13 {
			return fmt.Errorf("longhop dim=%d: need [2,13]", s.Dim)
		}
		if s.Degree < s.Dim || s.Degree >= 1<<s.Dim {
			return fmt.Errorf("longhop degree=%d: need [dim=%d, 2^dim)", s.Degree, s.Dim)
		}
	default:
		return fmt.Errorf("unknown topology kind %q (want fattree|jellyfish|xpander|slimfly|longhop|design)", s.Kind)
	}
	if s.Servers < 0 || s.Servers > 256 {
		return fmt.Errorf("servers=%d: need [0,256]", s.Servers)
	}
	return nil
}

// Build constructs the topology, drawing randomized constructions from rng.
// The caller chooses the stream: the daemon seeds a fresh one from s.Seed,
// the CLIs pass the single stream their workload draws continue on. Specs
// that skipped Normalize reach the constructors unchecked.
func (s *TopoSpec) Build(rng *rand.Rand) (*topology.Topology, error) {
	switch s.Kind {
	case "design":
		d, ok := topology.LookupDesign(s.Name)
		if !ok {
			return nil, fmt.Errorf("design %q not registered (known: %v)", s.Name, topology.DesignNames())
		}
		return d.Build()
	case "fattree":
		return &topology.NewFatTree(s.K).Topology, nil
	case "jellyfish":
		return topology.NewJellyfish(s.N, s.Degree, s.Servers, rng), nil
	case "xpander":
		return &topology.NewXpander(s.Degree, s.Lift, s.Servers, rng).Topology, nil
	case "slimfly":
		return &topology.NewSlimFly(s.Q, s.Servers).Topology, nil
	case "longhop":
		return &topology.NewLonghop(s.Dim, s.Degree, s.Servers).Topology, nil
	default:
		return nil, fmt.Errorf("unknown topology kind %q", s.Kind)
	}
}

const tmFamilies = "longest-matching|permutation|all-to-all"

// NormalizeTM fills the demand-side defaults — the longest-matching family,
// every rack active, workload seed 1 — and validates them.
func NormalizeTM(family *string, x *float64, seed *int64) error {
	if *family == "" {
		*family = "longest-matching"
	}
	if *x == 0 {
		*x = 1
	}
	if *seed == 0 {
		*seed = 1
	}
	switch *family {
	case "longest-matching", "permutation", "all-to-all":
	default:
		return fmt.Errorf("unknown tm %q (want %s)", *family, tmFamilies)
	}
	if *x < 0 || *x > 1 {
		return fmt.Errorf("x=%g: need (0,1]", *x)
	}
	return nil
}

// TM draws the active x-fraction of t's racks (the first pods of a
// fat-tree, a random subset elsewhere) and builds the family's traffic
// matrix over them, checked against the hose model. t must be s's topology;
// rng drives the rack choice and the permutation pairing, in that order.
func (s *TopoSpec) TM(t *topology.Topology, family string, x float64, rng *rand.Rand) (*tm.TM, []int, error) {
	racks := workload.ActiveRacks(t, x, s.Kind == "fattree", rng)
	serversOf := func(rack int) int { return t.Servers[rack] }
	var m *tm.TM
	switch family {
	case "longest-matching":
		m = tm.LongestMatching(t.G, racks, serversOf)
	case "permutation":
		if len(racks)%2 == 1 {
			racks = racks[:len(racks)-1]
		}
		m = tm.RandomPermutation(racks, serversOf, rng)
	case "all-to-all":
		m = tm.AllToAll(racks, serversOf)
	default:
		return nil, nil, fmt.Errorf("unknown tm %q (want %s)", family, tmFamilies)
	}
	if err := m.ValidateHose(serversOf); err != nil {
		return nil, nil, fmt.Errorf("traffic matrix violates hose model: %w", err)
	}
	return m, racks, nil
}
