// Package topology implements the data center network topologies the paper
// evaluates: full-bandwidth and oversubscribed fat-trees, Jellyfish (random
// regular graphs), Xpander (random lifts of complete graphs), SlimFly
// (McKay–Miller–Širáň graphs) and Longhop (Cayley graphs over F₂ⁿ).
//
// A Topology is a switch-level graph plus a server attachment vector. All
// links are unit capacity (one line rate); trunked links between a switch
// pair are expressed as edge multiplicity.
package topology

import (
	"fmt"

	"beyondft/internal/graph"
)

// Topology is a static switch-level network with servers attached to
// (a subset of) switches.
type Topology struct {
	// Name identifies the topology instance, e.g. "fattree-k16".
	Name string
	// G is the switch-level network graph. Nodes are switches.
	G *graph.Graph
	// Servers[i] is the number of servers attached to switch i.
	Servers []int
	// SwitchPorts is the port count of each switch if homogeneous, else 0.
	SwitchPorts int
}

// NumSwitches returns the number of switches.
func (t *Topology) NumSwitches() int { return t.G.N() }

// TotalServers returns the total number of servers.
func (t *Topology) TotalServers() int {
	total := 0
	for _, s := range t.Servers {
		total += s
	}
	return total
}

// ToRs returns the switches that have at least one server attached,
// in ascending order.
func (t *Topology) ToRs() []int {
	n := 0
	for _, s := range t.Servers {
		if s > 0 {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	out := make([]int, 0, n)
	for i, s := range t.Servers {
		if s > 0 {
			out = append(out, i)
		}
	}
	return out
}

// NetworkPorts returns the total number of switch ports used for
// switch-to-switch links (both endpoints counted).
func (t *Topology) NetworkPorts() int { return 2 * t.G.M() }

// ServerPorts returns the total number of switch ports used for servers.
func (t *Topology) ServerPorts() int { return t.TotalServers() }

// TotalPortsUsed returns all switch ports in use (network + server side).
func (t *Topology) TotalPortsUsed() int { return t.NetworkPorts() + t.ServerPorts() }

// Cables returns the number of switch-to-switch cables.
func (t *Topology) Cables() int { return t.G.M() }

// Validate checks internal consistency: the server vector matches the graph
// size, port budgets are respected when SwitchPorts > 0, and the network
// graph is connected.
func (t *Topology) Validate() error {
	if len(t.Servers) != t.G.N() {
		return fmt.Errorf("topology %s: server vector length %d != switch count %d",
			t.Name, len(t.Servers), t.G.N())
	}
	if t.SwitchPorts > 0 {
		for i := 0; i < t.G.N(); i++ {
			used := t.G.Degree(i) + t.Servers[i]
			if used > t.SwitchPorts {
				return fmt.Errorf("topology %s: switch %d uses %d ports > %d available",
					t.Name, i, used, t.SwitchPorts)
			}
		}
	}
	if !t.G.Connected() {
		return fmt.Errorf("topology %s: network graph is disconnected", t.Name)
	}
	return nil
}

// ServerSwitch returns, for every global server ID, the switch it attaches to.
func (t *Topology) ServerSwitch() []int {
	out := make([]int, 0, t.TotalServers())
	for sw, cnt := range t.Servers {
		for j := 0; j < cnt; j++ {
			out = append(out, sw)
		}
	}
	return out
}
