package cluster

import (
	"context"
	"math/rand"
	"sort"
	"sync"
	"time"
)

// Membership is a SWIM-lite failure detector: every node keeps a table of
// (node, incarnation, state) triples and periodically exchanges it with a
// few random peers. Liveness is refreshed by successful exchanges in either
// direction; a member that stays unrefreshed is suspected, then declared
// dead and dropped from the ring. Incarnation numbers give a node the last
// word on its own liveness — a rejoining node that learns it was declared
// dead refutes the rumor by bumping its incarnation past the tombstone's,
// and the higher incarnation wins every future merge. The protocol needs no
// coordinator and no static configuration beyond one seed peer: tables are
// merged entry-wise, so any connected gossip graph converges.
//
// This is deliberately the "lite" corner of SWIM: no indirect ping-req
// probes and full-table (not infection-style) exchange. Tables here are a
// handful of nodes, where a full table fits in one datagram-sized POST and
// the probabilistic machinery of real SWIM buys nothing.
type Membership struct {
	cfg MembershipConfig

	// now and exchange are injectable for deterministic tests.
	now      func() time.Time
	exchange ExchangeFunc
	rng      *rand.Rand

	mu       sync.Mutex
	self     Member
	table    map[string]memberState // node URL → last known state
	changed  func(live []string)
	lastLive []string // live set at the last change notification
}

// MemberState is a member's health as seen by one node.
type MemberState int

const (
	// StateAlive: refreshed within SuspectAfter.
	StateAlive MemberState = iota
	// StateSuspect: unrefreshed past SuspectAfter, or a direct exchange with
	// it failed; still in the ring (suspicion is often a false alarm).
	StateSuspect
	// StateDead: suspected past DeadAfter; out of the ring. Kept as a
	// tombstone so gossip can spread the verdict, then pruned.
	StateDead
)

func (s MemberState) String() string {
	switch s {
	case StateAlive:
		return "alive"
	case StateSuspect:
		return "suspect"
	case StateDead:
		return "dead"
	default:
		return "unknown"
	}
}

// Member is one row of the gossiped table (the wire form).
type Member struct {
	Node  string      `json:"node"`
	Inc   uint64      `json:"inc"`
	State MemberState `json:"state"`
}

// memberState is the local bookkeeping behind a table row.
type memberState struct {
	Member
	since time.Time // when the current state was entered
}

// ExchangeFunc performs one gossip round-trip with peer: it delivers our
// table and returns the peer's. Injected so tests can run an in-memory
// fleet with no sockets.
type ExchangeFunc func(ctx context.Context, peer string, ours []Member) ([]Member, error)

// MembershipConfig configures a Membership.
type MembershipConfig struct {
	// Self is this node's URL (always alive in its own table).
	Self string
	// Seeds are peers to greet on the first ticks (the static -peers list).
	Seeds []string
	// SuspectAfter is how long an alive member may go unrefreshed.
	SuspectAfter time.Duration
	// DeadAfter is how long a suspect lasts before being declared dead.
	DeadAfter time.Duration
	// PruneAfter is how long a dead tombstone is kept (0 = 10×DeadAfter).
	PruneAfter time.Duration
	// Fanout is how many peers each tick gossips with (0 = 2).
	Fanout int
	// Now overrides the clock (tests).
	Now func() time.Time
	// Logf, if non-nil, receives membership transitions.
	Logf func(format string, args ...any)
}

// NewMembership builds a membership table containing Self (alive) and the
// seeds (alive, so the first ticks try to greet them; real liveness takes
// over from there).
func NewMembership(cfg MembershipConfig) *Membership {
	if cfg.PruneAfter <= 0 {
		cfg.PruneAfter = 10 * cfg.DeadAfter
	}
	if cfg.Fanout <= 0 {
		cfg.Fanout = 2
	}
	now := cfg.Now
	if now == nil {
		now = time.Now
	}
	m := &Membership{
		cfg:   cfg,
		now:   now,
		rng:   rand.New(rand.NewSource(pointHashSeed(cfg.Self))),
		table: map[string]memberState{},
	}
	t := m.now()
	m.self = Member{Node: cfg.Self, Inc: 1, State: StateAlive}
	m.table[cfg.Self] = memberState{Member: m.self, since: t}
	for _, s := range cfg.Seeds {
		if s != "" && s != cfg.Self {
			m.table[s] = memberState{Member: Member{Node: s, Inc: 0, State: StateAlive}, since: t}
		}
	}
	return m
}

// pointHashSeed derives a per-node RNG seed so two nodes don't gossip in
// lockstep (determinism across runs of one node is fine).
func pointHashSeed(s string) int64 { return int64(pointHash(s)) }

// SetExchange wires the gossip transport.
func (m *Membership) SetExchange(fn ExchangeFunc) {
	m.mu.Lock()
	m.exchange = fn
	m.mu.Unlock()
}

// OnChange registers the callback invoked (outside the table lock) whenever
// the live set changes. The cluster wires this to SetPeers.
func (m *Membership) OnChange(fn func(live []string)) {
	m.mu.Lock()
	m.changed = fn
	m.mu.Unlock()
}

func (m *Membership) liveLocked() []string {
	out := make([]string, 0, len(m.table))
	for n, st := range m.table {
		if st.State != StateDead {
			out = append(out, n)
		}
	}
	sort.Strings(out)
	return out
}

// SuspectCount returns how many members are currently suspected.
func (m *Membership) SuspectCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	c := 0
	for _, st := range m.table {
		if st.State == StateSuspect {
			c++
		}
	}
	return c
}

// Table snapshots the gossiped form of the table (self first, then sorted).
func (m *Membership) Table() []Member {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.tableLocked()
}

func (m *Membership) tableLocked() []Member {
	out := make([]Member, 0, len(m.table))
	out = append(out, m.self)
	rest := make([]Member, 0, len(m.table)-1)
	for n, st := range m.table {
		if n != m.self.Node {
			rest = append(rest, st.Member)
		}
	}
	sort.Slice(rest, func(i, j int) bool { return rest[i].Node < rest[j].Node })
	return append(out, rest...)
}

// Tick runs one protocol round: age states (alive→suspect→dead→pruned),
// then gossip with Fanout random non-dead peers. A failed exchange
// immediately suspects the peer — direct evidence beats waiting for the
// staleness sweep.
func (m *Membership) Tick(ctx context.Context) {
	m.mu.Lock()
	m.sweepLocked()
	targets := m.gossipTargetsLocked()
	ours := m.tableLocked()
	exchange := m.exchange
	m.mu.Unlock()
	m.notifyIfChanged()

	if exchange == nil {
		return
	}
	for _, peer := range targets {
		theirs, err := exchange(ctx, peer, ours)
		if err != nil {
			m.Suspect(peer)
			continue
		}
		m.Merge(theirs)
		m.Refresh(peer)
	}
	m.notifyIfChanged()
}

// sweepLocked ages every entry by the configured timeouts.
func (m *Membership) sweepLocked() {
	t := m.now()
	for n, st := range m.table {
		if n == m.self.Node {
			continue
		}
		switch st.State {
		case StateAlive:
			if t.Sub(st.since) > m.cfg.SuspectAfter {
				m.setStateLocked(n, st.Inc, StateSuspect)
			}
		case StateSuspect:
			if t.Sub(st.since) > m.cfg.DeadAfter {
				m.setStateLocked(n, st.Inc, StateDead)
			}
		case StateDead:
			if t.Sub(st.since) > m.cfg.PruneAfter {
				delete(m.table, n)
			}
		}
	}
}

// gossipTargetsLocked picks up to Fanout random non-dead peers.
func (m *Membership) gossipTargetsLocked() []string {
	cands := make([]string, 0, len(m.table))
	for n, st := range m.table {
		if n != m.self.Node && st.State != StateDead {
			cands = append(cands, n)
		}
	}
	sort.Strings(cands) // deterministic base order before shuffling
	m.rng.Shuffle(len(cands), func(i, j int) { cands[i], cands[j] = cands[j], cands[i] })
	if len(cands) > m.cfg.Fanout {
		cands = cands[:m.cfg.Fanout]
	}
	return cands
}

// Merge folds a received table into ours. Rules, per node: a higher
// incarnation always wins; at equal incarnations the worse state wins
// (dead > suspect > alive), so a verdict cannot be shouted down except by
// the subject itself. A rumor about *us* that says suspect or dead at our
// incarnation (or later) is refuted by bumping our incarnation past it —
// the refutation then outranks the rumor everywhere it has spread. This is
// the rejoin path: a restarted node merges its own tombstone, refutes it,
// and the fleet re-admits it within a gossip round or two.
func (m *Membership) Merge(theirs []Member) {
	m.mu.Lock()
	for _, mb := range theirs {
		if mb.Node == "" {
			continue
		}
		if mb.Node == m.self.Node {
			if mb.State != StateAlive && mb.Inc >= m.self.Inc {
				m.self.Inc = mb.Inc + 1
				m.table[m.self.Node] = memberState{Member: m.self, since: m.now()}
				m.logf("membership: refuting %s rumor about self, inc now %d", mb.State, m.self.Inc)
			}
			continue
		}
		cur, ok := m.table[mb.Node]
		switch {
		case !ok:
			m.table[mb.Node] = memberState{Member: mb, since: m.now()}
			m.logf("membership: learned %s (%s inc=%d)", mb.Node, mb.State, mb.Inc)
		case mb.Inc > cur.Inc:
			m.table[mb.Node] = memberState{Member: mb, since: m.now()}
			if mb.State != cur.State {
				m.logf("membership: %s %s→%s (inc %d→%d)", mb.Node, cur.State, mb.State, cur.Inc, mb.Inc)
			}
		case mb.Inc == cur.Inc && mb.State > cur.State:
			m.setStateLocked(mb.Node, mb.Inc, mb.State)
		}
	}
	m.mu.Unlock()
	m.notifyIfChanged()
}

// Refresh marks a peer alive at its current incarnation: we just completed
// a round-trip with it, which outranks any staleness clock.
func (m *Membership) Refresh(peer string) {
	m.mu.Lock()
	if cur, ok := m.table[peer]; ok && peer != m.self.Node {
		if cur.State != StateDead { // a dead verdict needs the peer's own refutation
			m.table[peer] = memberState{
				Member: Member{Node: peer, Inc: cur.Inc, State: StateAlive},
				since:  m.now(),
			}
		}
	} else if !ok {
		m.table[peer] = memberState{Member: Member{Node: peer, State: StateAlive}, since: m.now()}
	}
	m.mu.Unlock()
	m.notifyIfChanged()
}

// Suspect records direct evidence against a peer (a failed exchange).
func (m *Membership) Suspect(peer string) {
	m.mu.Lock()
	if cur, ok := m.table[peer]; ok && peer != m.self.Node && cur.State == StateAlive {
		m.setStateLocked(peer, cur.Inc, StateSuspect)
	}
	m.mu.Unlock()
	m.notifyIfChanged()
}

func (m *Membership) setStateLocked(node string, inc uint64, s MemberState) {
	cur := m.table[node]
	m.table[node] = memberState{Member: Member{Node: node, Inc: inc, State: s}, since: m.now()}
	if cur.State != s {
		m.logf("membership: %s %s→%s (inc=%d)", node, cur.State, s, inc)
	}
}

// notifyIfChanged invokes the change callback when the live set differs
// from the last notified one. Called without the lock held; the callback
// may call back into Membership.
func (m *Membership) notifyIfChanged() {
	m.mu.Lock()
	fn := m.changed
	live := m.liveLocked()
	changed := fn != nil && !equalStrings(live, m.lastLive)
	if changed {
		m.lastLive = live
	}
	m.mu.Unlock()
	if changed {
		fn(live)
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func (m *Membership) logf(format string, args ...any) {
	if m.cfg.Logf != nil {
		m.cfg.Logf(format, args...)
	}
}
