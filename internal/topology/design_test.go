package topology

import (
	"math/rand"
	"path/filepath"
	"reflect"
	"testing"

	"beyondft/internal/graph"
)

func TestDesignRoundTripAndHash(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	jf := NewJellyfish(12, 3, 2, rng)
	d := DesignOf(jf)
	if d.Name != jf.Name {
		t.Fatalf("design name %q != topology name %q", d.Name, jf.Name)
	}

	built, err := d.Build()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	if built.NumSwitches() != jf.NumSwitches() || built.TotalServers() != jf.TotalServers() {
		t.Fatalf("round trip changed sizes: %d/%d switches, %d/%d servers",
			built.NumSwitches(), jf.NumSwitches(), built.TotalServers(), jf.TotalServers())
	}
	if !reflect.DeepEqual(built.G.Edges(), jf.G.Edges()) {
		t.Fatal("round trip changed the edge list")
	}
	if d.Hash() != DesignOf(built).Hash() {
		t.Fatal("round trip changed the content hash")
	}

	// Name must not enter the hash; content must.
	renamed := *d
	renamed.Name = "other-name"
	if renamed.Hash() != d.Hash() {
		t.Fatal("renaming changed the hash")
	}
	perturbed := DesignOf(jf)
	e := perturbed.Edges[0]
	perturbed.Edges = append(perturbed.Edges[1:], DesignEdge{U: e.U, V: e.V, Mult: e.Mult})
	if perturbed.Hash() != d.Hash() {
		t.Fatal("edge order entered the hash (canonicalization failed)")
	}
	perturbed.Edges = perturbed.Edges[:len(perturbed.Edges)-1]
	if perturbed.Hash() == d.Hash() {
		t.Fatal("dropping an edge kept the hash")
	}
}

func TestDesignValidateRejectsBadInputs(t *testing.T) {
	good := DesignOf(NewJellyfish(8, 3, 1, rand.New(rand.NewSource(1))))
	cases := map[string]func(d *Design){
		"empty name":    func(d *Design) { d.Name = "" },
		"self loop":     func(d *Design) { d.Edges[0].V = d.Edges[0].U },
		"out of range":  func(d *Design) { d.Edges[0].V = len(d.Servers) },
		"neg servers":   func(d *Design) { d.Servers[0] = -1 },
		"neg mult":      func(d *Design) { d.Edges[0].Mult = -2 },
		"two switches":  func(d *Design) { d.Servers = d.Servers[:1] },
		"port overflow": func(d *Design) { d.SwitchPorts = 1 },
		"disconnected":  func(d *Design) { d.Edges = d.Edges[:1] },
	}
	for name, mutate := range cases {
		d := *good
		d.Servers = append([]int(nil), good.Servers...)
		d.Edges = append([]DesignEdge(nil), good.Edges...)
		mutate(&d)
		if _, err := d.Build(); err == nil {
			t.Errorf("%s: Build accepted an invalid design", name)
		}
	}
}

func TestDesignRegistry(t *testing.T) {
	d := DesignOf(NewJellyfish(10, 3, 2, rand.New(rand.NewSource(5))))
	d.Name = "test-registry-design"
	defer unregisterDesign(d.Name)

	if err := RegisterDesign(d); err != nil {
		t.Fatalf("register: %v", err)
	}
	if err := RegisterDesign(d); err != nil {
		t.Fatalf("idempotent re-register: %v", err)
	}
	got, ok := LookupDesign(d.Name)
	if !ok || got.Hash() != d.Hash() {
		t.Fatalf("lookup: ok=%v hash match=%v", ok, ok && got.Hash() == d.Hash())
	}
	found := false
	for _, name := range DesignNames() {
		if name == d.Name {
			found = true
		}
	}
	if !found {
		t.Fatal("DesignNames missing the registered design")
	}

	other := DesignOf(NewJellyfish(10, 3, 2, rand.New(rand.NewSource(6))))
	other.Name = d.Name
	if other.Hash() == d.Hash() {
		t.Fatal("test setup: expected different instances at different seeds")
	}
	if err := RegisterDesign(other); err == nil {
		t.Fatal("registering different content under an existing name must fail")
	}
}

func TestDesignFileAndDirLoading(t *testing.T) {
	dir := t.TempDir()
	d := DesignOf(NewJellyfish(12, 4, 2, rand.New(rand.NewSource(9))))
	d.Name = "test-dir-design"
	defer unregisterDesign(d.Name)

	path := filepath.Join(dir, d.Name+".json")
	if err := d.WriteFile(path); err != nil {
		t.Fatalf("write: %v", err)
	}
	back, err := ReadDesignFile(path)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if back.Hash() != d.Hash() || back.Name != d.Name {
		t.Fatal("file round trip changed the design")
	}

	names, err := LoadDesignDir(dir)
	if err != nil {
		t.Fatalf("load dir: %v", err)
	}
	if len(names) != 1 || names[0] != d.Name {
		t.Fatalf("loaded %v, want [%s]", names, d.Name)
	}
	if _, ok := LookupDesign(d.Name); !ok {
		t.Fatal("LoadDesignDir did not register the design")
	}

	// A missing directory is zero designs, not an error.
	if names, err := LoadDesignDir(filepath.Join(dir, "missing")); err != nil || len(names) != 0 {
		t.Fatalf("missing dir: names=%v err=%v", names, err)
	}
}

// HashOf is DesignOf(t).Hash() by another route; cache keys written by one
// must be found by the other.
func TestHashOfMatchesDesignHash(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	trunked := NewJellyfish(10, 3, 0, rng) // no servers, unknown ports, trunks
	trunked.SwitchPorts = 0
	trunked.G.AddEdgeMulti(0, 9, 3)
	trunked.G.AddEdge(0, 9)
	cases := []*Topology{
		NewJellyfish(12, 3, 2, rng),
		NewJellyfish(54, 9, 6, rng), // long enough to flush the buffer many times
		&NewXpander(5, 4, 3, rng).Topology,
		&NewFatTree(4).Topology,
		trunked,
		{Name: "edgeless", G: graph.New(3), Servers: []int{1, 0, 2}},
		{Name: "empty", G: graph.New(0)},
	}
	for _, c := range cases {
		if got, want := HashOf(c), DesignOf(c).Hash(); got != want {
			t.Errorf("%s: HashOf %s, DesignOf().Hash() %s", c.Name, got, want)
		}
	}
}

// unregisterDesign removes a design a test registered.
func unregisterDesign(name string) {
	designRegistry.Lock()
	defer designRegistry.Unlock()
	delete(designRegistry.byName, name)
}
