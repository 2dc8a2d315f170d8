package serve

import (
	"fmt"
	"io"

	"beyondft/internal/obs"
)

// Metrics is the daemon's observability surface. Every instrument lives in
// one shared obs.Registry — the same object renders /metrics and backs the
// programmatic counters (manifest totals, tests, CLI status output), so the
// two can never drift: a counter registered here is on /metrics by
// construction.
//
// The hot path touches only atomics: Latency takes the registry's lock and
// formats a series name, so handlers call it once, at route registration,
// and keep the histogram pointer.
type Metrics struct {
	reg *obs.Registry

	Requests   *obs.Counter // requests entering a /v1 handler
	Coalesced  *obs.Counter // requests served by joining an identical in-flight compute
	L1Hits     *obs.Counter // in-memory LRU hits
	AliasHits  *obs.Counter // L1 hits found by the request's own bytes, without a decode (a subset of L1Hits)
	L2Hits     *obs.Counter // on-disk cache hits
	Computed   *obs.Counter // results computed fresh
	Rejected   *obs.Counter // 429s from admission control
	Errors     *obs.Counter // 4xx/5xx responses other than 429
	PeerHits   *obs.Counter // results served by forwarding to the ring owner
	PeerFills  *obs.Counter // peer results written into the local cache tiers
	BatchItems *obs.Counter // specs processed through /v1/batch

	// Solver telemetry, fed by the GK observer on /v1/throughput computes.
	GKSolves     *obs.Counter // completed GK solves
	GKPhases     *obs.Counter // total solver phases across solves
	GKIterations *obs.Counter // total routing Dijkstras across solves
	Traced       *obs.Counter // requests that asked for a ?trace=1 span dump
}

// NewMetrics returns a metrics set over a fresh registry.
func NewMetrics() *Metrics {
	reg := obs.NewRegistry()
	return &Metrics{
		reg:          reg,
		Requests:     reg.Counter("beyondftd_requests_total"),
		Coalesced:    reg.Counter("beyondftd_coalesced_total"),
		L1Hits:       reg.Counter(`beyondftd_cache_hits_total{tier="l1"}`),
		AliasHits:    reg.Counter("beyondftd_alias_hits_total"),
		L2Hits:       reg.Counter(`beyondftd_cache_hits_total{tier="l2"}`),
		Computed:     reg.Counter("beyondftd_computed_total"),
		Rejected:     reg.Counter("beyondftd_rejected_total"),
		Errors:       reg.Counter("beyondftd_errors_total"),
		PeerHits:     reg.Counter(`beyondftd_cache_hits_total{tier="peer"}`),
		PeerFills:    reg.Counter("beyondftd_peer_fills_total"),
		BatchItems:   reg.Counter("beyondftd_batch_items_total"),
		GKSolves:     reg.Counter("beyondftd_gk_solves_total"),
		GKPhases:     reg.Counter("beyondftd_gk_phases_total"),
		GKIterations: reg.Counter("beyondftd_gk_iterations_total"),
		Traced:       reg.Counter("beyondftd_traced_requests_total"),
	}
}

// Registry exposes the backing registry for additional instruments.
func (m *Metrics) Registry() *obs.Registry { return m.reg }

// Latency returns (creating on first use) the histogram for an endpoint.
// Not for the request path: resolve it once and hold the pointer.
func (m *Metrics) Latency(endpoint string) *obs.Histogram {
	return m.reg.Histogram(fmt.Sprintf("beyondftd_request_duration_ms{endpoint=%q}", endpoint), nil)
}

// WriteTo renders every registered instrument in the Prometheus text
// exposition format (series in sorted order; see obs.Registry.WriteTo).
func (m *Metrics) WriteTo(w io.Writer) (int64, error) {
	return m.reg.WriteTo(w)
}
