package topology

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"beyondft/internal/graph"
)

// Design is a concrete, serializable topology instance: the switch graph as
// an explicit edge list plus the server attachment vector. It is how
// search-found (or otherwise hand-crafted) networks become first-class named
// topologies: a Design registered under a name can be evaluated by every
// surface that accepts a topology kind — `beyondft throughput`, the daemon's
// /v1/throughput, the experiment drivers — without re-running the process
// that produced it.
//
// The JSON encoding is canonical given a canonical edge list (ascending
// (U,V), U < V, as produced by graph.Graph.Edges), which makes Hash a stable
// content address for cache keys.
type Design struct {
	// Name identifies the design in the registry. Excluded from Hash so a
	// renamed design keeps its content address.
	Name string `json:"name"`
	// SwitchPorts is the homogeneous per-switch port count (0 if unknown
	// or heterogeneous), as in Topology.
	SwitchPorts int `json:"switch_ports,omitempty"`
	// Servers[i] is the number of servers attached to switch i; its length
	// is the switch count.
	Servers []int `json:"servers"`
	// Edges is the switch-level edge list, canonical order (U < V,
	// ascending U then V).
	Edges []DesignEdge `json:"edges"`
}

// DesignEdge is one undirected edge of a Design (U < V), with multiplicity.
type DesignEdge struct {
	U    int `json:"u"`
	V    int `json:"v"`
	Mult int `json:"mult,omitempty"` // 0 means 1
}

// DesignOf captures a topology as a Design with a canonical edge list.
func DesignOf(t *Topology) *Design {
	d := &Design{
		Name:        t.Name,
		SwitchPorts: t.SwitchPorts,
		Servers:     append([]int(nil), t.Servers...),
	}
	edges := t.G.Edges()
	d.Edges = make([]DesignEdge, len(edges))
	for i, e := range edges {
		d.Edges[i] = DesignEdge{U: e.U, V: e.V, Mult: e.Mult}
	}
	return d
}

// canonicalize sorts the edge list into canonical order and normalizes
// multiplicity 1 to the omitted zero value, so hashes do not depend on how
// the design was assembled.
func (d *Design) canonicalize() {
	for i := range d.Edges {
		if d.Edges[i].U > d.Edges[i].V {
			d.Edges[i].U, d.Edges[i].V = d.Edges[i].V, d.Edges[i].U
		}
		if d.Edges[i].Mult == 1 {
			d.Edges[i].Mult = 0
		}
	}
	sort.Slice(d.Edges, func(i, j int) bool {
		if d.Edges[i].U != d.Edges[j].U {
			return d.Edges[i].U < d.Edges[j].U
		}
		return d.Edges[i].V < d.Edges[j].V
	})
}

// Hash returns the design's content address: a hex SHA-256 over the
// canonical encoding of everything except Name. Two designs with equal
// hashes build identical topologies (up to the display name).
func (d *Design) Hash() string {
	c := *d
	c.Name = ""
	c.Edges = append([]DesignEdge(nil), d.Edges...)
	c.canonicalize()
	data, err := json.Marshal(&c)
	if err != nil {
		panic(fmt.Sprintf("topology: encode design: %v", err)) // flat struct of ints
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// HashOf is DesignOf(t).Hash() without the design: the canonical encoding is
// streamed into the hash off the graph's frozen view, edge by edge. A search
// addresses every candidate it proposes this way and keeps the design of the
// few it reports.
func HashOf(t *Topology) string {
	h := sha256.New()
	var arr [512]byte
	buf := append(arr[:0], `{"name":""`...)
	if t.SwitchPorts != 0 {
		buf = strconv.AppendInt(append(buf, `,"switch_ports":`...), int64(t.SwitchPorts), 10)
	}
	buf = append(buf, `,"servers":`...)
	if len(t.Servers) == 0 {
		buf = append(buf, "null"...) // DesignOf copies onto a nil slice
	} else {
		for i, s := range t.Servers {
			buf = append(buf, "[,"[min(i, 1)])
			buf = strconv.AppendInt(buf, int64(s), 10)
			if len(buf) > len(arr)-64 {
				h.Write(buf)
				buf = buf[:0]
			}
		}
		buf = append(buf, ']')
	}
	buf = append(buf, `,"edges":`...)
	c := t.G.Frozen()
	edges := 0
	for u := 0; u < c.N(); u++ {
		nbr, mult := c.Row(u)
		for k, v := range nbr {
			if int(v) <= u {
				continue
			}
			buf = append(buf, "[,"[min(edges, 1)])
			edges++
			buf = strconv.AppendInt(append(buf, `{"u":`...), int64(u), 10)
			buf = strconv.AppendInt(append(buf, `,"v":`...), int64(v), 10)
			if mult[k] != 1 { // canonicalize: multiplicity 1 is the omitted zero
				buf = strconv.AppendInt(append(buf, `,"mult":`...), int64(mult[k]), 10)
			}
			buf = append(buf, '}')
			if len(buf) > len(arr)-64 {
				h.Write(buf)
				buf = buf[:0]
			}
		}
	}
	if edges == 0 {
		buf = append(buf, "null"...) // Hash copies onto a nil slice
	} else {
		buf = append(buf, ']')
	}
	h.Write(append(buf, '}'))
	var sum [sha256.Size]byte
	var text [2 * sha256.Size]byte
	hex.Encode(text[:], h.Sum(sum[:0]))
	return string(text[:])
}

// Validate checks the design is buildable: a non-empty name, a consistent
// server vector, in-range simple edges, and (via Build) a connected graph.
func (d *Design) Validate() error {
	if d.Name == "" {
		return fmt.Errorf("topology: design with empty name")
	}
	if len(d.Servers) < 2 {
		return fmt.Errorf("topology: design %s: need >= 2 switches, got %d", d.Name, len(d.Servers))
	}
	n := len(d.Servers)
	for i, s := range d.Servers {
		if s < 0 {
			return fmt.Errorf("topology: design %s: negative server count at switch %d", d.Name, i)
		}
	}
	for _, e := range d.Edges {
		if e.U < 0 || e.U >= n || e.V < 0 || e.V >= n {
			return fmt.Errorf("topology: design %s: edge (%d,%d) out of range [0,%d)", d.Name, e.U, e.V, n)
		}
		if e.U == e.V {
			return fmt.Errorf("topology: design %s: self-loop at switch %d", d.Name, e.U)
		}
		if e.Mult < 0 {
			return fmt.Errorf("topology: design %s: negative multiplicity on edge (%d,%d)", d.Name, e.U, e.V)
		}
	}
	return nil
}

// Build constructs the topology the design describes and validates it
// (including port budgets when SwitchPorts > 0 and connectivity).
func (d *Design) Build() (*Topology, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	g := graph.New(len(d.Servers))
	for _, e := range d.Edges {
		mult := e.Mult
		if mult == 0 {
			mult = 1
		}
		g.AddEdgeMulti(e.U, e.V, mult)
	}
	t := &Topology{
		Name:        d.Name,
		G:           g,
		Servers:     append([]int(nil), d.Servers...),
		SwitchPorts: d.SwitchPorts,
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}

// designRegistry is the process-wide named-design table. Registration is
// content-checked: re-registering the same bytes under the same name is a
// no-op, while a name collision with different content is an error — two
// different networks must never alias one name (the serving cache keys by
// design hash, but humans key by name).
var designRegistry = struct {
	sync.RWMutex
	byName map[string]*Design
}{byName: map[string]*Design{}}

// RegisterDesign adds a design to the process-wide registry under d.Name.
func RegisterDesign(d *Design) error {
	if err := d.Validate(); err != nil {
		return err
	}
	designRegistry.Lock()
	defer designRegistry.Unlock()
	if prev, ok := designRegistry.byName[d.Name]; ok {
		if prev.Hash() != d.Hash() {
			return fmt.Errorf("topology: design %q already registered with different content", d.Name)
		}
		return nil
	}
	c := *d
	c.Edges = append([]DesignEdge(nil), d.Edges...)
	c.Servers = append([]int(nil), d.Servers...)
	c.canonicalize()
	designRegistry.byName[d.Name] = &c
	return nil
}

// LookupDesign returns the registered design with the given name.
func LookupDesign(name string) (*Design, bool) {
	designRegistry.RLock()
	defer designRegistry.RUnlock()
	d, ok := designRegistry.byName[name]
	return d, ok
}

// DesignNames returns the sorted names of every registered design.
func DesignNames() []string {
	designRegistry.RLock()
	defer designRegistry.RUnlock()
	names := make([]string, 0, len(designRegistry.byName))
	for name := range designRegistry.byName {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// WriteFile writes the design as JSON to path (atomically enough for one
// writer: temp file + rename).
func (d *Design) WriteFile(path string) error {
	c := *d
	c.Edges = append([]DesignEdge(nil), d.Edges...)
	c.canonicalize()
	data, err := json.MarshalIndent(&c, "", "  ")
	if err != nil {
		return fmt.Errorf("topology: encode design %s: %w", d.Name, err)
	}
	data = append(data, '\n')
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// ReadDesignFile parses one design JSON file and validates it.
func ReadDesignFile(path string) (*Design, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d Design
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("topology: parse design %s: %w", path, err)
	}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return &d, nil
}

// LoadDesignDir reads every *.json design file under dir and registers it,
// returning the sorted names loaded. A missing directory is not an error
// (zero designs): daemons pass the flag unconditionally.
func LoadDesignDir(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var names []string
	for _, de := range entries {
		if de.IsDir() || !strings.HasSuffix(de.Name(), ".json") {
			continue
		}
		d, err := ReadDesignFile(filepath.Join(dir, de.Name()))
		if err != nil {
			return names, err
		}
		if err := RegisterDesign(d); err != nil {
			return names, err
		}
		names = append(names, d.Name)
	}
	sort.Strings(names)
	return names, nil
}
