package cluster

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// fakeClock is a manually advanced clock shared by a test fleet.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
}

func (f *fakeClock) now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.t
}

func (f *fakeClock) advance(d time.Duration) {
	f.mu.Lock()
	f.t = f.t.Add(d)
	f.mu.Unlock()
}

// memFleet is an in-memory gossip fabric: N Memberships whose exchanges are
// direct method calls, with per-node kill switches. No sockets, no real
// time — ticks and the clock advance under test control, so convergence
// bounds are exact, not probabilistic sleeps.
type memFleet struct {
	mu    sync.Mutex
	nodes map[string]*Membership
	dead  map[string]bool
	clock *fakeClock
}

const (
	fleetTick    = 10 * time.Millisecond // nominal gossip period
	fleetSuspect = 50 * time.Millisecond // SuspectAfter (5 ticks)
	fleetDead    = 50 * time.Millisecond // DeadAfter (5 more ticks)
)

func newMemFleet(t *testing.T, names ...string) *memFleet {
	t.Helper()
	f := &memFleet{
		nodes: map[string]*Membership{},
		dead:  map[string]bool{},
		clock: newFakeClock(),
	}
	for _, self := range names {
		seeds := make([]string, 0, len(names)-1)
		for _, n := range names {
			if n != self {
				seeds = append(seeds, n)
			}
		}
		f.addNode(self, seeds)
	}
	return f
}

func (f *memFleet) addNode(self string, seeds []string) *Membership {
	m := NewMembership(MembershipConfig{
		Self:         self,
		Seeds:        seeds,
		SuspectAfter: fleetSuspect,
		DeadAfter:    fleetDead,
		Now:          f.clock.now,
	})
	m.SetExchange(func(_ context.Context, peer string, ours []Member) ([]Member, error) {
		f.mu.Lock()
		target, ok := f.nodes[peer]
		down := f.dead[peer]
		f.mu.Unlock()
		if !ok || down {
			return nil, errors.New("connection refused")
		}
		// The server half: merge ours, refresh the caller, return its table.
		target.Merge(ours)
		target.Refresh(self)
		return target.Table(), nil
	})
	f.mu.Lock()
	f.nodes[self] = m
	f.dead[self] = false
	f.mu.Unlock()
	return m
}

func (f *memFleet) kill(name string) {
	f.mu.Lock()
	f.dead[name] = true
	f.mu.Unlock()
}

// round advances the shared clock one tick and runs every live node's Tick.
func (f *memFleet) round() {
	f.clock.advance(fleetTick)
	f.mu.Lock()
	var live []*Membership
	for n, m := range f.nodes {
		if !f.dead[n] {
			live = append(live, m)
		}
	}
	f.mu.Unlock()
	for _, m := range live {
		m.Tick(context.Background())
	}
}

func liveSetEquals(m *Membership, want ...string) bool {
	got := live(m)
	if len(got) != len(want) {
		return false
	}
	seen := map[string]bool{}
	for _, g := range got {
		seen[g] = true
	}
	for _, w := range want {
		if !seen[w] {
			return false
		}
	}
	return true
}

// TestMembershipSteadyState: a healthy fleet stays fully alive across many
// rounds — the staleness sweep must never outrun refreshes.
func TestMembershipSteadyState(t *testing.T) {
	f := newMemFleet(t, "a", "b", "c")
	for i := 0; i < 40; i++ {
		f.round()
	}
	for n, m := range f.nodes {
		if !liveSetEquals(m, "a", "b", "c") {
			t.Fatalf("node %s live set = %v, want all three alive", n, live(m))
		}
		if m.SuspectCount() != 0 {
			t.Fatalf("node %s suspects %d members in a healthy fleet", n, m.SuspectCount())
		}
	}
}

// TestMembershipDeathConverges: after a node dies, every survivor's live
// set drops it within a bounded number of rounds — the sum of the suspect
// and dead timeouts plus gossip slack, NOT unbounded.
func TestMembershipDeathConverges(t *testing.T) {
	f := newMemFleet(t, "a", "b", "c")
	for i := 0; i < 10; i++ {
		f.round() // settle
	}
	f.kill("c")

	// Bound: SuspectAfter + DeadAfter in ticks, plus a few rounds of gossip
	// slack for the verdict to spread.
	bound := int((fleetSuspect+fleetDead)/fleetTick) + 5
	converged := -1
	for i := 0; i < bound; i++ {
		f.round()
		if liveSetEquals(f.nodes["a"], "a", "b") && liveSetEquals(f.nodes["b"], "a", "b") {
			converged = i + 1
			break
		}
	}
	if converged < 0 {
		t.Fatalf("survivors did not evict the dead node within %d rounds (a=%v b=%v)",
			bound, live(f.nodes["a"]), live(f.nodes["b"]))
	}
	t.Logf("death converged in %d rounds (bound %d)", converged, bound)
}

// TestMembershipRejoinRefutesTombstone: a node that rejoins under its old
// URL merges its own tombstone, refutes it with a higher incarnation, and
// the whole fleet re-admits it — no restarts, no operator resets.
func TestMembershipRejoinRefutesTombstone(t *testing.T) {
	f := newMemFleet(t, "a", "b", "c")
	for i := 0; i < 10; i++ {
		f.round()
	}
	f.kill("c")
	deadline := int((fleetSuspect+fleetDead)/fleetTick) + 5
	for i := 0; i < deadline; i++ {
		f.round()
	}
	if !liveSetEquals(f.nodes["a"], "a", "b") {
		t.Fatalf("precondition: c not evicted (a sees %v)", live(f.nodes["a"]))
	}

	// Rejoin: a brand-new process, same URL, fresh incarnation counter.
	f.addNode("c", []string{"a", "b"})
	rejoined := -1
	for i := 0; i < 10; i++ {
		f.round()
		if liveSetEquals(f.nodes["a"], "a", "b", "c") &&
			liveSetEquals(f.nodes["b"], "a", "b", "c") &&
			liveSetEquals(f.nodes["c"], "a", "b", "c") {
			rejoined = i + 1
			break
		}
	}
	if rejoined < 0 {
		t.Fatalf("fleet did not re-admit the rejoined node (a=%v b=%v c=%v)",
			live(f.nodes["a"]), live(f.nodes["b"]), live(f.nodes["c"]))
	}
	t.Logf("rejoin converged in %d rounds", rejoined)

	// The refutation must have outranked the tombstone by incarnation.
	for _, mb := range f.nodes["a"].Table() {
		if mb.Node == "c" {
			if mb.State != StateAlive {
				t.Fatalf("a's table still has c as %s", mb.State)
			}
			if mb.Inc < 2 {
				t.Fatalf("c's incarnation = %d, want ≥ 2 (bumped past the tombstone)", mb.Inc)
			}
		}
	}
}

// TestMembershipOnChange: the live-set callback fires on transitions (and
// not on steady-state ticks), which is what drives Cluster.SetPeers.
func TestMembershipOnChange(t *testing.T) {
	f := newMemFleet(t, "a", "b")
	var mu sync.Mutex
	var calls [][]string
	f.nodes["a"].OnChange(func(live []string) {
		mu.Lock()
		calls = append(calls, append([]string{}, live...))
		mu.Unlock()
	})
	for i := 0; i < 10; i++ {
		f.round()
	}
	mu.Lock()
	settled := len(calls)
	mu.Unlock()
	for i := 0; i < 10; i++ {
		f.round()
	}
	mu.Lock()
	after := len(calls)
	mu.Unlock()
	if after != settled {
		t.Fatalf("callback fired %d extra times with no membership change", after-settled)
	}
	f.kill("b")
	for i := 0; i < int((fleetSuspect+fleetDead)/fleetTick)+5; i++ {
		f.round()
	}
	mu.Lock()
	last := calls[len(calls)-1]
	mu.Unlock()
	if len(last) != 1 || last[0] != "a" {
		t.Fatalf("final live-set notification = %v, want [a]", last)
	}
}

// TestMembershipMergeRules: the table merge is a join — higher incarnation
// wins outright, equal incarnations resolve to the worse state.
func TestMembershipMergeRules(t *testing.T) {
	clock := newFakeClock()
	m := NewMembership(MembershipConfig{
		Self: "a", Seeds: []string{"b"},
		SuspectAfter: fleetSuspect, DeadAfter: fleetDead,
		Now: clock.now,
	})
	// Equal inc, worse state wins.
	m.Merge([]Member{{Node: "b", Inc: 0, State: StateSuspect}})
	if got := m.SuspectCount(); got != 1 {
		t.Fatalf("suspects = %d, want 1 (worse state at equal inc wins)", got)
	}
	// Equal inc, better state loses.
	m.Merge([]Member{{Node: "b", Inc: 0, State: StateAlive}})
	if got := m.SuspectCount(); got != 1 {
		t.Fatalf("suspects = %d, want 1 (alive cannot shout down suspect at equal inc)", got)
	}
	// Higher inc wins regardless of state ordering.
	m.Merge([]Member{{Node: "b", Inc: 1, State: StateAlive}})
	if got := m.SuspectCount(); got != 0 {
		t.Fatalf("suspects = %d, want 0 (higher incarnation refutes)", got)
	}
	// A dead rumor about self is refuted by an incarnation bump.
	m.Merge([]Member{{Node: "a", Inc: 7, State: StateDead}})
	for _, mb := range m.Table() {
		if mb.Node == "a" {
			if mb.State != StateAlive || mb.Inc != 8 {
				t.Fatalf("self after dead rumor = %s inc=%d, want alive inc=8", mb.State, mb.Inc)
			}
		}
	}
}

// live is the member set the ring counts: alive and suspect members.
func live(m *Membership) []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.liveLocked()
}
