package harness

import (
	"encoding/json"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// lruModel is the reference the fuzz target holds LRU to: a slice of
// entries in recency order (front first) and nothing clever.
type lruModel struct {
	maxBytes                int64
	entries                 []*modelEntry
	hits, misses, evictions int64
}

type modelEntry struct {
	key, data string
	aliases   []string
}

func (e *modelEntry) size() int64 {
	n := len(e.key) + len(e.data)
	for _, a := range e.aliases {
		n += len(a)
	}
	return int64(n)
}

func (m *lruModel) bytes() (n int64) {
	for _, e := range m.entries {
		n += e.size()
	}
	return n
}

func (m *lruModel) find(key string) int {
	return slices.IndexFunc(m.entries, func(e *modelEntry) bool { return e.key == key })
}

func (m *lruModel) owner(alias string) int {
	return slices.IndexFunc(m.entries, func(e *modelEntry) bool { return slices.Contains(e.aliases, alias) })
}

func (m *lruModel) touch(i int) *modelEntry {
	e := m.entries[i]
	m.entries = slices.Insert(slices.Delete(m.entries, i, i+1), 0, e)
	return e
}

func (m *lruModel) evict() {
	for m.bytes() > m.maxBytes && len(m.entries) > 0 {
		m.entries = m.entries[:len(m.entries)-1]
		m.evictions++
	}
}

func (m *lruModel) get(key string) (string, bool) {
	i := m.find(key)
	if i < 0 {
		m.misses++
		return "", false
	}
	m.hits++
	return m.touch(i).data, true
}

func (m *lruModel) lookup(alias string) (key, data string, ok bool) {
	i := m.owner(alias)
	if i < 0 {
		return "", "", false
	}
	m.hits++
	e := m.touch(i)
	return e.key, e.data, true
}

func (m *lruModel) put(key, data string) {
	if i := m.find(key); i >= 0 {
		e := m.touch(i)
		e.data, e.aliases = data, nil
	} else {
		e := &modelEntry{key: key, data: data}
		if e.size() > m.maxBytes {
			return
		}
		m.entries = slices.Insert(m.entries, 0, e)
	}
	m.evict()
}

func (m *lruModel) alias(key, alias string) {
	i := m.find(key)
	if i < 0 {
		return
	}
	e := m.entries[i]
	if e.size()+int64(len(alias)) > m.maxBytes || slices.Contains(e.aliases, alias) {
		return
	}
	if j := m.owner(alias); j >= 0 {
		o := m.entries[j]
		o.aliases = slices.DeleteFunc(o.aliases, func(a string) bool { return a == alias })
	}
	if len(e.aliases) == maxAliases {
		e.aliases = e.aliases[1:]
	}
	e.aliases = append(e.aliases, alias)
	m.evict()
}

// checkLRUOps decodes an op stream — three bytes per op: opcode, name,
// payload size — runs it against LRU and the model, and compares every
// return value and, after every op, the whole observable state: the byte
// count (never over budget), the entry count and the three counters. Keys
// and aliases draw on overlapping name sets (alias "k3" exists, and so does
// key "k3"), so an alias shadowing a key, or the reverse, shows as a wrong
// answer. At the end every name is resolved both ways, which is where an
// alias that outlived its entry would surface.
func checkLRUOps(t *testing.T, maxBytes int64, data []byte) {
	l := NewLRU(maxBytes)
	m := &lruModel{maxBytes: maxBytes}
	name := func(b byte) string { return "k" + string('0'+b%6) }
	aliasName := func(b byte) string {
		if b%4 == 0 {
			return name(b / 4) // the same bytes as a key
		}
		return strings.Repeat("a", int(b%5)) + "\x00" + string('0'+b%7)
	}
	check := func(op int, what string) {
		t.Helper()
		st := l.Stats()
		if st.Bytes > maxBytes {
			t.Fatalf("op %d (%s): %d bytes held, budget %d", op, what, st.Bytes, maxBytes)
		}
		if st.Bytes != m.bytes() || st.Entries != len(m.entries) ||
			st.Hits != m.hits || st.Misses != m.misses || st.Evictions != m.evictions {
			t.Fatalf("op %d (%s): stats %+v, model bytes=%d entries=%d hits=%d misses=%d evictions=%d",
				op, what, st, m.bytes(), len(m.entries), m.hits, m.misses, m.evictions)
		}
	}
	get := func(op int, key string) {
		t.Helper()
		got, ok := l.Get(key)
		want, wantOK := m.get(key)
		if ok != wantOK || string(got) != want {
			t.Fatalf("op %d: Get(%q) = %q, %v; model %q, %v", op, key, got, ok, want, wantOK)
		}
	}
	lookup := func(op int, alias string) {
		t.Helper()
		key, got, ok := l.Lookup([]byte(alias))
		wantKey, want, wantOK := m.lookup(alias)
		if ok != wantOK || key != wantKey || string(got) != want {
			t.Fatalf("op %d: Lookup(%q) = %q, %q, %v; model %q, %q, %v", op, alias, key, got, ok, wantKey, want, wantOK)
		}
	}
	op := 0
	for ; len(data) >= 3; data, op = data[3:], op+1 {
		a, b, c := data[0], data[1], data[2]
		switch a % 5 {
		case 0:
			payload := strings.Repeat("x", int(c)) + string('0'+b%10) // distinct per (name, size)
			l.Put(name(b), json.RawMessage(payload))
			m.put(name(b), payload)
		case 1:
			get(op, name(b))
		case 2:
			l.Alias(name(b), []byte(aliasName(c)))
			m.alias(name(b), aliasName(c))
		case 3:
			lookup(op, aliasName(c))
		case 4:
			if got, want := l.Contains(name(b)), m.find(name(b)) >= 0; got != want {
				t.Fatalf("op %d: Contains(%q) = %v, model %v", op, name(b), got, want)
			}
		}
		check(op, "after")
	}
	for b := byte(0); b < 28; b++ {
		lookup(op, aliasName(b))
		get(op, name(b))
		check(op, "final sweep")
	}
}

// FuzzLRUAliases holds LRU — Put, Get, Alias, Lookup, Contains under a byte
// budget — to lruModel on arbitrary op streams. The first input byte picks
// the budget, from "two entries fit" to "everything fits".
func FuzzLRUAliases(f *testing.F) {
	const put, get, alias, lookup, contains = 0, 1, 2, 3, 4
	seed := func(budget byte, ops ...[3]byte) {
		data := []byte{budget}
		for _, op := range ops {
			data = append(data, op[:]...)
		}
		f.Add(data)
	}
	f.Add([]byte{})
	// An aliased entry is evicted by a larger Put: the alias stops resolving.
	seed(3, [3]byte{put, 1, 40}, [3]byte{alias, 1, 5}, [3]byte{lookup, 0, 5}, [3]byte{put, 2, 150}, [3]byte{lookup, 0, 5})
	// An alias spelled like its own key; a replacing Put drops it, the key stays.
	seed(9, [3]byte{put, 1, 10}, [3]byte{alias, 1, 4}, [3]byte{lookup, 0, 4}, [3]byte{put, 1, 11}, [3]byte{lookup, 0, 4}, [3]byte{get, 1, 0})
	// One alias registered for two entries in turn names the second.
	seed(9, [3]byte{put, 1, 8}, [3]byte{put, 2, 8}, [3]byte{alias, 1, 5}, [3]byte{alias, 2, 5}, [3]byte{lookup, 0, 5}, [3]byte{contains, 1, 0})
	// A fifth alias drops the first.
	seed(9, [3]byte{put, 1, 8}, [3]byte{alias, 1, 1}, [3]byte{alias, 1, 2}, [3]byte{alias, 1, 3}, [3]byte{alias, 1, 5}, [3]byte{alias, 1, 6}, [3]byte{lookup, 0, 1})
	// At a 64-byte budget, registering an alias evicts the other entry.
	seed(0, [3]byte{put, 1, 27}, [3]byte{put, 2, 27}, [3]byte{alias, 2, 19}, [3]byte{get, 1, 0}, [3]byte{lookup, 0, 19})
	f.Fuzz(func(t *testing.T, data []byte) {
		maxBytes := int64(4096)
		if len(data) > 0 {
			maxBytes = 64 + 40*int64(data[0]%16)
			data = data[1:]
		}
		checkLRUOps(t, maxBytes, data)
	})
}

// TestLRUAliasesMatchModel runs the fuzz body over seeded op streams far
// longer than the seed corpus, so plain `go test` exercises evictions,
// replacements and alias moves by the thousand.
func TestLRUAliasesMatchModel(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for trial := 0; trial < 300; trial++ {
		data := make([]byte, 3*(1+rng.Intn(400)))
		rng.Read(data)
		checkLRUOps(t, 64+40*int64(trial%16), data)
	}
}

// TestLRUContainsDoesNotPerturb: a presence probe is not a use. It counts
// neither a hit nor a miss and leaves the eviction order alone.
func TestLRUContainsDoesNotPerturb(t *testing.T) {
	payload := json.RawMessage(strings.Repeat("x", 98)) // with 2-byte keys: 100 bytes/entry
	l := NewLRU(300)
	for _, k := range []string{"k0", "k1", "k2"} {
		l.Put(k, payload)
	}
	before := l.Stats()
	if !l.Contains("k0") || l.Contains("k9") {
		t.Fatal("Contains gave the wrong answer")
	}
	if after := l.Stats(); after != before {
		t.Fatalf("Contains moved the stats: %+v → %+v", before, after)
	}
	l.Put("k3", payload) // evicts the least recently used: still k0
	if l.Contains("k0") || !l.Contains("k1") {
		t.Fatal("Contains refreshed k0's recency: k1 was evicted in its place")
	}
}
