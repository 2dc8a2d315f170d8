// Package beyondft reproduces "Beyond fat-trees without antennae, mirrors,
// and disco-balls" (Kassing et al., SIGCOMM 2017): static expander-based
// data center networks evaluated against fat-trees and dynamic-topology
// models, in both a fluid-flow throughput model and a packet-level
// simulator.
//
// The root package holds the benchmark harness (bench_test.go), with one
// benchmark per table and figure of the paper. The implementation lives in
// internal/ (see DESIGN.md for the map) and is exercised through the
// one command, cmd/beyondft, and the runnable examples in examples/.
package beyondft
