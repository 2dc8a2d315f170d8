package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
)

// referenceJSON pins the outputs of known configurations. It is embedded,
// so the check does not depend on the working directory; `go run` rebuilds
// when the file changes.
//
//go:embed reference.json
var referenceJSON []byte

// reference maps "<workload>/seed=<s|any>/work=<w>" to that run's digest: the
// values a correct program must reproduce on those inputs. GK answers
// (tolerantDigests) may move within 2ε — a solver change that keeps its
// certificate is allowed to land elsewhere inside the gap — everything
// else, simulated statistics included, must match exactly.
type reference struct {
	Note    string                    `json:"note"`
	Entries map[string]map[string]any `json:"entries"`
}

const referenceEps = 0.08

var tolerantDigests = map[string]bool{"throughput": true, "base_throughput": true, "baseline": true, "best": true}

func loadReference(data []byte) (*reference, error) {
	ref := &reference{}
	if err := json.Unmarshal(data, ref); err != nil {
		return nil, fmt.Errorf("reference.json: %w", err)
	}
	if ref.Entries == nil {
		ref.Entries = map[string]map[string]any{}
	}
	return ref, nil
}

func referenceKey(workload string, seed int64, seedInvariant bool, work float64) string {
	if seedInvariant {
		return fmt.Sprintf("%s/seed=any/work=%g", workload, work)
	}
	return fmt.Sprintf("%s/seed=%d/work=%g", workload, seed, work)
}

// flatten turns a digest value (a number or a list of numbers, before or
// after a JSON round trip) into floats.
func flatten(v any) ([]float64, error) {
	data, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	var list []float64
	if json.Unmarshal(data, &list) == nil {
		return list, nil
	}
	var one float64
	if err := json.Unmarshal(data, &one); err != nil {
		return nil, fmt.Errorf("digest value %s is neither a number nor a list of numbers", data)
	}
	return []float64{one}, nil
}

// check compares a result's digest with the pinned one, recording each
// difference as a failure. It reports whether an entry existed.
func (ref *reference) check(r *result, key string) bool {
	want, ok := ref.Entries[key]
	if !ok {
		return false
	}
	names := make([]string, 0, len(want))
	for name := range want {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		w, err := flatten(want[name])
		if err != nil {
			r.failf("reference %s %s: %v", key, name, err)
			continue
		}
		g, err := flatten(r.Digest[name])
		if err != nil || len(g) != len(w) {
			r.failf("reference %s %s: got %d values, want %d", key, name, len(g), len(w))
			continue
		}
		for i := range w {
			switch {
			case tolerantDigests[name]:
				if math.Abs(g[i]-w[i]) > 2*referenceEps*math.Abs(w[i]) {
					r.failf("reference %s %s[%d]: got %v, want %v within 2ε", key, name, i, g[i], w[i])
				}
			case g[i] != w[i]:
				r.failf("reference %s %s[%d]: got %v, want exactly %v", key, name, i, g[i], w[i])
			}
		}
	}
	return true
}

// writeReference merges the given digests into the file at path.
func writeReference(path string, digests map[string]map[string]any) error {
	ref := &reference{Entries: map[string]map[string]any{}}
	if data, err := os.ReadFile(path); err == nil {
		if ref, err = loadReference(data); err != nil {
			return err
		}
	}
	ref.Note = "Pinned outputs per <workload>/seed/work; regenerate with `go run ./benchmark -write-reference benchmark/reference.json` only when an output change is intended."
	for k, d := range digests {
		ref.Entries[k] = d
	}
	data, err := json.MarshalIndent(ref, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
