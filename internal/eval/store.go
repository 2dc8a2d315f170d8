package eval

import (
	"encoding/json"
	"time"

	"beyondft/internal/harness"
)

// Store content-addresses rung results in a harness cache, which is what
// makes sweeps and searches resumable: one entry per (BaseSpec, rung,
// content), where rung is a Ladder key and content identifies the instance
// relative to the base (a scenario's delta, a design's hash). BaseSpec must
// canonically describe everything else a result depends on — topology,
// traffic matrix, link capacity. A nil *Store, or one without a Cache, is
// inert.
type Store struct {
	Cache    *harness.Cache
	BaseSpec string
}

// Slot is the address of one result in a Store; the zero Slot (of a store
// without a cache) never hits and drops writes.
type Slot struct {
	cache          *harness.Cache
	job, spec, key string
}

// Slot derives the address of (job, rung, content) once, for the probe and
// the store that follows a miss.
func (s *Store) Slot(job, rung, content string) Slot {
	if s == nil || s.Cache == nil {
		return Slot{}
	}
	spec := s.BaseSpec + "|" + rung + "|" + content
	return Slot{s.Cache, job, spec, harness.Key(job, spec, Version)}
}

// Get decodes the slot's entry into v and reports whether there was one.
// Unreadable or undecodable entries are misses: a damaged cache degrades to
// recomputation, never to a wrong answer.
func (sl Slot) Get(v any) bool {
	if sl.cache == nil {
		return false
	}
	raw, ok, err := sl.cache.Get(sl.key)
	return err == nil && ok && json.Unmarshal(raw, v) == nil
}

// Put stores v in the slot. The envelope carries the full spec, so a peer
// offered the entry can rederive and verify its address. Errors are
// dropped: a failed write costs a recomputation next time.
func (sl Slot) Put(v any) {
	if sl.cache == nil {
		return
	}
	raw, err := json.Marshal(v)
	if err != nil {
		return
	}
	_ = sl.cache.Put(sl.key, harness.Entry{
		Job: sl.job, Spec: sl.spec, Salt: Version, CreatedAt: time.Now().UTC(), Result: raw,
	})
}
