package flowsim

import (
	"encoding/json"
	"fmt"
	"sort"

	"beyondft/internal/sim"
	"beyondft/internal/stats"
)

// flowState is the serialized form of one live flow, keyed by its slab slot
// so a restored run places it — and every future allocation — identically.
type flowState struct {
	Slot      int32    `json:"slot"`
	ID        int32    `json:"id"`
	Src       int32    `json:"src"`
	Dst       int32    `json:"dst"`
	Size      int64    `json:"size"`
	Start     sim.Time `json:"start"`
	Remaining float64  `json:"remaining"`
	Rate      float64  `json:"rate"`
	Links     []int32  `json:"links"`
}

type arrivalState struct {
	At   sim.Time `json:"at"`
	Seq  int64    `json:"seq"`
	Src  int32    `json:"src"`
	Dst  int32    `json:"dst"`
	Size int64    `json:"size"`
}

// Checkpoint is a complete, JSON-serializable snapshot of a flowsim run
// between Run calls: restore it into a fresh Network (any shard count) and
// the continuation is bit-identical to the uninterrupted run — flows land
// in the same slab slots, the RNG stream continues exactly, and the pending
// heap keeps its layout.
type Checkpoint struct {
	Version  int      `json:"version"`
	Cfg      Config   `json:"cfg"`
	Now      sim.Time `json:"now"`
	RNG      sim.RNG  `json:"rng"`
	ArrSeq   int64    `json:"arr_seq"`
	Started  int64    `json:"started"`
	Finished int64    `json:"finished"`
	Dirty    bool     `json:"dirty"`
	SlabFree []int32  `json:"slab_free"`
	SlabNext int32    `json:"slab_next"`
	// Flows lists live flows in ascending slot order.
	Flows []flowState `json:"flows"`
	// Pending is the arrival heap's backing array verbatim; the heap layout
	// is deterministic for a given operation sequence, so restoring it
	// as-is preserves pop order bit-for-bit.
	Pending []arrivalState `json:"pending"`
	Sketch  *stats.Sketch  `json:"sketch"`

	// Driver is opaque caller state (e.g. the arrival generator's position)
	// carried alongside the simulator's own.
	Driver json.RawMessage `json:"driver,omitempty"`
}

// checkpointVersion guards the snapshot schema. Version 1 checkpoints
// written before the FCT moments and the event-loop counters were dropped
// still carry them ("moments", "loop_events", "alloc_rounds",
// "heap_high_water"); decoding ignores those fields, and nothing the run
// computes read them, so such a checkpoint resumes to the same bytes.
const checkpointVersion = 1

// Checkpoint snapshots the simulation between Run calls. It requires
// DiscardCompleted mode — in retain mode the full flow history would have
// to ride along, defeating the point of checkpointing a large run.
func (n *Network) Checkpoint(driver json.RawMessage) (*Checkpoint, error) {
	if !n.Cfg.DiscardCompleted {
		return nil, fmt.Errorf("flowsim: checkpoint requires DiscardCompleted mode")
	}
	free, next := n.flowSlab.FreeList()
	cp := &Checkpoint{
		Version:  checkpointVersion,
		Cfg:      n.Cfg,
		Now:      n.now,
		RNG:      *n.rng,
		ArrSeq:   n.arrSeq,
		Started:  n.started,
		Finished: n.finished,
		Dirty:    n.dirty,
		SlabFree: free,
		SlabNext: next,
		Sketch:   n.fctSketch,
		Driver:   driver,
	}
	n.flowSlab.Range(func(slot int32, f *Flow) bool {
		cp.Flows = append(cp.Flows, flowState{
			Slot:      slot,
			ID:        f.ID,
			Src:       f.SrcServer,
			Dst:       f.DstServer,
			Size:      f.SizeBytes,
			Start:     f.StartNs,
			Remaining: f.remaining,
			Rate:      f.rate,
			Links:     f.links,
		})
		return true
	})
	for _, a := range n.pending {
		cp.Pending = append(cp.Pending, arrivalState{At: a.at, Seq: a.seq, Src: a.src, Dst: a.dst, Size: a.size})
	}
	return cp, nil
}

// sameShape reports whether two configs describe the same simulation
// (everything but the shard count, which never affects results).
func sameShape(a, b Config) bool {
	a.Shards, b.Shards = 0, 0
	return a == b
}

// Restore rebuilds a Network from a checkpoint on the same topology. cfg
// may change Shards freely — results are shard-count-invariant — but every
// other field must match the checkpointed config.
func (n *Network) Restore(cp *Checkpoint) error {
	if cp.Version != checkpointVersion {
		return fmt.Errorf("flowsim: checkpoint version %d, want %d", cp.Version, checkpointVersion)
	}
	if !sameShape(n.Cfg, cp.Cfg) {
		return fmt.Errorf("flowsim: checkpoint config %+v does not match network config %+v", cp.Cfg, n.Cfg)
	}
	if !n.Cfg.DiscardCompleted {
		return fmt.Errorf("flowsim: restore requires DiscardCompleted mode")
	}
	n.now = cp.Now
	*n.rng = cp.RNG
	n.arrSeq = cp.ArrSeq
	n.started = cp.Started
	n.finished = cp.Finished
	n.dirty = cp.Dirty
	if cp.Sketch != nil {
		n.fctSketch = cp.Sketch
	}
	n.flowSlab.Restore(cp.SlabFree, cp.SlabNext)
	byID := append([]flowState(nil), cp.Flows...)
	sort.Slice(byID, func(i, j int) bool { return byID[i].ID < byID[j].ID })
	for s := range n.shards {
		n.shards[s].active = n.shards[s].active[:0]
	}
	for _, fs := range byID {
		if !n.flowSlab.Live(fs.Slot) {
			return fmt.Errorf("flowsim: checkpoint flow %d in non-live slot %d", fs.ID, fs.Slot)
		}
		f := n.flowSlab.At(fs.Slot)
		f.ID = fs.ID
		f.SrcServer = fs.Src
		f.DstServer = fs.Dst
		f.SizeBytes = fs.Size
		f.StartNs = fs.Start
		f.EndNs = 0
		f.Done = false
		f.remaining = fs.Remaining
		f.rate = fs.Rate
		f.links = append(f.links[:0], fs.Links...)
		sh := &n.shards[int(f.ID)%len(n.shards)]
		sh.active = append(sh.active, fs.Slot)
	}
	n.pending = n.pending[:0]
	for _, a := range cp.Pending {
		n.pending = append(n.pending, arrival{at: a.At, seq: a.Seq, src: a.Src, dst: a.Dst, size: a.Size})
	}
	return nil
}
