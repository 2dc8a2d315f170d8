// Package obs is the repo's stdlib-only observability substrate:
// hierarchical tracing spans with monotonic timings, typed atomic
// counters/gauges/histograms behind a Prometheus-text registry, and
// runtime/pprof label propagation.
//
// Everything is designed around one invariant: instrumentation that is
// switched off costs (at most) a nil check. A nil *Span, *Counter, *Gauge,
// *Histogram or *Registry is a valid receiver for every method — calls
// return immediately without allocating — so call sites never need their
// own "is tracing on?" branches. The GK solver's observer hook is held to
// the same standard by BenchmarkGKObserverDisabled (0 allocs/op).
package obs

import (
	"fmt"
	"io"
	"sync"
	"time"
	"unicode/utf8"
)

// Attr is one numeric annotation on a span (e.g. phases=42). Spans carry
// only numeric attributes on purpose: they stay comparable across runs and
// never smuggle unbounded strings into manifests.
type Attr struct {
	Key   string  `json:"key"`
	Value float64 `json:"value"`
}

// Span is one timed region of work inside a trace. Spans form a tree:
// StartSpan creates a root, Child hangs a sub-span off any span. Durations
// come from time.Time's monotonic reading, so they are immune to wall-clock
// steps.
//
// All spans of one trace share a single mutex (traces are small and
// short-lived; one lock beats per-span locks for cache locality). A nil
// *Span is a no-op receiver on every method, including Child — which
// returns nil, so disabled tracing propagates for free through call trees.
type Span struct {
	tree     *spanTree
	name     string
	start    time.Time
	dur      time.Duration // zero until End
	ended    bool
	attrs    []Attr
	children []*Span
}

// spanTree is the state shared by every span of one trace.
type spanTree struct {
	mu   sync.Mutex
	root *Span
}

// StartSpan begins a new trace rooted at a span with the given name.
func StartSpan(name string) *Span {
	t := &spanTree{}
	s := &Span{tree: t, name: name, start: time.Now()}
	t.root = s
	return s
}

// Child begins a sub-span. Returns nil when s is nil, so an untraced
// caller's children are untraced too.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	c := &Span{tree: s.tree, name: name, start: time.Now()}
	s.tree.mu.Lock()
	s.children = append(s.children, c)
	s.tree.mu.Unlock()
	return c
}

// End freezes the span's duration. Idempotent; nil-safe.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.tree.mu.Lock()
	if !s.ended {
		s.ended = true
		s.dur = time.Since(s.start)
	}
	s.tree.mu.Unlock()
}

// SetAttr attaches (or overwrites) a numeric annotation. Nil-safe.
func (s *Span) SetAttr(key string, v float64) {
	if s == nil {
		return
	}
	s.tree.mu.Lock()
	defer s.tree.mu.Unlock()
	for i := range s.attrs {
		if s.attrs[i].Key == key {
			s.attrs[i].Value = v
			return
		}
	}
	s.attrs = append(s.attrs, Attr{Key: key, Value: v})
}

// Duration returns the frozen duration, or the running duration if the
// span has not Ended yet. Nil-safe (returns 0).
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	s.tree.mu.Lock()
	defer s.tree.mu.Unlock()
	if s.ended {
		return s.dur
	}
	return time.Since(s.start)
}

// Record is the serializable snapshot of a span tree: offsets and durations
// in milliseconds, JSON-stable, persisted into harness manifests and
// returned by the daemon's ?trace=1.
type Record struct {
	Name     string    `json:"name"`
	StartMs  float64   `json:"start_ms"` // offset from the trace root's start
	DurMs    float64   `json:"dur_ms"`
	Attrs    []Attr    `json:"attrs,omitempty"`
	Children []*Record `json:"children,omitempty"`
}

// Record snapshots the span and its subtree. Unended spans report their
// running duration. Nil-safe (returns nil).
func (s *Span) Record() *Record {
	if s == nil {
		return nil
	}
	s.tree.mu.Lock()
	defer s.tree.mu.Unlock()
	return s.record(s.tree.root.start)
}

// record builds the snapshot relative to the trace epoch; caller holds the
// tree lock.
func (s *Span) record(epoch time.Time) *Record {
	d := s.dur
	if !s.ended {
		d = time.Since(s.start)
	}
	r := &Record{
		Name:    s.name,
		StartMs: float64(s.start.Sub(epoch)) / float64(time.Millisecond),
		DurMs:   float64(d) / float64(time.Millisecond),
	}
	if len(s.attrs) > 0 {
		r.Attrs = append([]Attr(nil), s.attrs...)
	}
	for _, c := range s.children {
		r.Children = append(r.Children, c.record(epoch))
	}
	return r
}

// Fprint renders the record as an indented span tree:
//
//	fig2                           312.4ms
//	├─ cache-probe                   0.0ms
//	└─ compute                     310.1ms  phases=42 iters=1337
//
// Durations are right-aligned at a fixed column; attributes follow on the
// same line. Nil-safe (prints nothing).
func (r *Record) Fprint(w io.Writer) {
	if r == nil {
		return
	}
	r.fprint(w, "", "")
}

func (r *Record) fprint(w io.Writer, lead, childLead string) {
	label := lead + r.Name
	const durCol = 40
	pad := durCol - utf8.RuneCountInString(label)
	if pad < 1 {
		pad = 1
	}
	fmt.Fprintf(w, "%s%*s", label, pad+9, fmt.Sprintf("%.1fms", r.DurMs))
	for _, a := range r.Attrs {
		fmt.Fprintf(w, "  %s=%g", a.Key, a.Value)
	}
	fmt.Fprintln(w)
	for i, c := range r.Children {
		branch, cont := "├─ ", "│  "
		if i == len(r.Children)-1 {
			branch, cont = "└─ ", "   "
		}
		c.fprint(w, childLead+branch, childLead+cont)
	}
}
