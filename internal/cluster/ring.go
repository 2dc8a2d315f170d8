// Package cluster turns N `beyondft serve` processes into one horizontally
// scalable service: a consistent-hash ring assigns every cache key
// (harness.Key) a single owning node, non-owners forward requests to the
// owner over stdlib net/http instead of recomputing (cluster-wide
// singleflight), and forwarded results are filled into the requester's
// local cache tiers so one cold compute warms the fleet. Peer failures are
// absorbed by bounded retries with backoff and by hedging to the next ring
// owner; a loop-guard header caps forwarding at one hop so ownership
// disagreements between nodes can never cycle a request. DESIGN.md §14
// documents the subsystem.
package cluster

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
	"strconv"
)

// DefaultVNodes is the default number of virtual nodes per peer. More
// vnodes flatten the ownership distribution and shrink the slice of
// keyspace that moves per membership change, at the cost of a larger (still
// tiny) sorted point array.
const DefaultVNodes = 128

// Ring is an immutable consistent-hash ring: each node contributes vnodes
// points on a uint64 circle, and a key belongs to the node of the first
// point at or clockwise after the key's hash. Placement is a pure function
// of the sorted node list, so every process that agrees on membership
// agrees on ownership without coordination, and adding or removing one of n
// nodes moves only ~1/n of the keyspace (tested in ring_test.go).
type Ring struct {
	points []ringPoint
	nodes  []string // sorted, deduplicated
}

type ringPoint struct {
	hash uint64
	node int32 // index into nodes
}

// NewRing builds a ring over nodes (deduplicated, order-independent) with
// vnodes virtual nodes each (<= 0 means DefaultVNodes). An empty node list
// yields a ring whose Owner is "" — callers must guard.
func NewRing(nodes []string, vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	uniq := make([]string, 0, len(nodes))
	seen := make(map[string]bool, len(nodes))
	for _, n := range nodes {
		if n != "" && !seen[n] {
			seen[n] = true
			uniq = append(uniq, n)
		}
	}
	sort.Strings(uniq)
	r := &Ring{
		nodes:  uniq,
		points: make([]ringPoint, 0, len(uniq)*vnodes),
	}
	for i, n := range uniq {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{
				hash: pointHash(n + "#" + strconv.Itoa(v)),
				node: int32(i),
			})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].node < r.points[j].node // hash ties broken by node, deterministically
	})
	return r
}

// pointHash maps a string uniformly onto the ring circle.
func pointHash(s string) uint64 {
	h := sha256.Sum256([]byte(s))
	return binary.BigEndian.Uint64(h[:8])
}

// Nodes returns the ring's sorted member list (shared slice; do not mutate).
func (r *Ring) Nodes() []string { return r.nodes }

// successor returns the index of the first point at or clockwise after h.
func (r *Ring) successor(h uint64) int {
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0 // wrap around
	}
	return i
}

// Owner returns the node that owns key ("" on an empty ring).
func (r *Ring) Owner(key string) string {
	if len(r.points) == 0 {
		return ""
	}
	return r.nodes[r.points[r.successor(pointHash(key))].node]
}

// Owners returns up to n distinct nodes in clockwise ring order starting at
// key's owner: the owner itself, then the successors a failed forward
// hedges to. Every node computes the same list, which is what makes
// hedged forwarding converge on one compute even when the owner is down.
func (r *Ring) Owners(key string, n int) []string {
	if len(r.points) == 0 || n <= 0 {
		return nil
	}
	if n > len(r.nodes) {
		n = len(r.nodes)
	}
	out := make([]string, 0, n)
	seen := make(map[int32]bool, n)
	for i, start := 0, r.successor(pointHash(key)); i < len(r.points) && len(out) < n; i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.node] {
			seen[p.node] = true
			out = append(out, r.nodes[p.node])
		}
	}
	return out
}

// Share returns the fraction of the hash circle each node owns, summing to
// 1 — the basis of the ring-ownership gauge on /metrics and of the balance
// tests.
func (r *Ring) Share() map[string]float64 {
	shares := make(map[string]float64, len(r.nodes))
	if len(r.points) == 0 {
		return shares
	}
	if len(r.points) == 1 {
		// The wrap-around arc from a point to itself is the whole circle,
		// but computes as 0 in the uint64 subtraction below.
		shares[r.nodes[r.points[0].node]] = 1
		return shares
	}
	// The arc (prev.hash, p.hash] belongs to p's node; the wrap-around arc
	// from the last point to the first belongs to the first point's node.
	const circle = float64(1<<63) * 2 // 2^64
	prev := r.points[len(r.points)-1].hash
	for _, p := range r.points {
		arc := p.hash - prev // uint64 arithmetic wraps correctly
		shares[r.nodes[p.node]] += float64(arc) / circle
		prev = p.hash
	}
	return shares
}

// String summarizes the ring for logs.
func (r *Ring) String() string {
	return fmt.Sprintf("ring{nodes=%d points=%d}", len(r.nodes), len(r.points))
}
