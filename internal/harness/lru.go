package harness

import (
	"container/list"
	"encoding/json"
	"sync"
)

// LRU is an in-memory, byte-budgeted, least-recently-used cache of encoded
// job results. It is the L1 tier the serving daemon puts in front of the
// on-disk Cache (L2): lookups cost one map probe instead of a file read,
// and the byte budget bounds resident memory no matter how many distinct
// queries a long-running process serves. Safe for concurrent use.
//
// An entry can also be reached by aliases: extra names registered for a key
// that is resident (Alias) and resolved by Lookup. Aliases are part of
// their entry — their bytes are charged to the same budget and they are
// dropped when the entry is evicted or replaced by a Put — and live in a
// namespace of their own, so an alias can never answer a Get.
type LRU struct {
	mu       sync.Mutex
	maxBytes int64
	bytes    int64
	order    *list.List // front = most recently used; values are *lruEntry
	items    map[string]*list.Element
	aliases  map[string]*list.Element

	hits, misses, evictions int64
}

type lruEntry struct {
	key     string
	data    json.RawMessage
	aliases []string // oldest first; at most maxAliases
}

// maxAliases caps the aliases of one entry; registering one more drops the
// oldest. Callers alias an entry by the spellings of one request they have
// seen, and a client population rarely uses more than a couple.
const maxAliases = 4

// NewLRU returns an LRU holding at most maxBytes of result payload
// (key and alias bytes count toward the budget too, so a flood of tiny
// entries cannot grow the maps unboundedly). maxBytes <= 0 disables the
// cache: Get and Lookup always miss, Put and Alias are no-ops.
func NewLRU(maxBytes int64) *LRU {
	return &LRU{
		maxBytes: maxBytes,
		order:    list.New(),
		items:    map[string]*list.Element{},
		aliases:  map[string]*list.Element{},
	}
}

// Get returns the cached encoding for key and marks it most recently used.
// The returned slice is shared: callers must not mutate it.
func (l *LRU) Get(key string) (json.RawMessage, bool) {
	if l == nil || l.maxBytes <= 0 {
		return nil, false
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	el, ok := l.items[key]
	if !ok {
		l.misses++
		return nil, false
	}
	l.order.MoveToFront(el)
	l.hits++
	return el.Value.(*lruEntry).data, true
}

// Lookup resolves an alias: when it names a resident entry, Lookup is Get on
// that entry's key (recency and hit count included) and also returns the
// key. An unknown alias touches no counter — the caller goes on to derive
// the key and Get it, and that probe is the one that counts.
func (l *LRU) Lookup(alias []byte) (key string, data json.RawMessage, ok bool) {
	if l == nil || l.maxBytes <= 0 {
		return "", nil, false
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	el, ok := l.aliases[string(alias)]
	if !ok {
		return "", nil, false
	}
	l.order.MoveToFront(el)
	l.hits++
	e := el.Value.(*lruEntry)
	return e.key, e.data, true
}

// Contains reports whether key is resident without counting a hit or a
// miss and without touching recency.
func (l *LRU) Contains(key string) bool {
	if l == nil || l.maxBytes <= 0 {
		return false
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	_, ok := l.items[key]
	return ok
}

// Put stores data under key and evicts least-recently-used entries until
// the cache fits its byte budget. It replaces any previous entry for key,
// aliases included: they named the old entry. An entry larger than the
// whole budget is not stored at all.
func (l *LRU) Put(key string, data json.RawMessage) {
	if l == nil || l.maxBytes <= 0 {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if el, ok := l.items[key]; ok {
		e := el.Value.(*lruEntry)
		l.dropAliases(e, len(e.aliases))
		l.bytes += int64(len(data) - len(e.data))
		e.data = data
		l.order.MoveToFront(el)
	} else {
		size := int64(len(key) + len(data))
		if size > l.maxBytes {
			return
		}
		l.items[key] = l.order.PushFront(&lruEntry{key: key, data: data})
		l.bytes += size
	}
	l.evict()
}

// Alias registers alias as one more name for key's entry; a no-op when key
// is not resident. An alias names one entry at a time: registering it again
// for another key moves it. The entry keeps its place in the recency order
// (naming is not use), and the alias's bytes are charged like any others,
// so registering one can evict — possibly the entry itself. An alias that
// would make its entry larger than the whole budget is not registered.
func (l *LRU) Alias(key string, alias []byte) {
	if l == nil || l.maxBytes <= 0 {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	el, ok := l.items[key]
	if !ok {
		return
	}
	e := el.Value.(*lruEntry)
	size := len(key) + len(e.data) + len(alias)
	for _, a := range e.aliases {
		size += len(a)
	}
	if int64(size) > l.maxBytes {
		return // like an oversized Put: making room would empty the cache
	}
	if old, ok := l.aliases[string(alias)]; ok {
		if old == el {
			return
		}
		oe := old.Value.(*lruEntry)
		for i, a := range oe.aliases {
			if a == string(alias) {
				oe.aliases = append(oe.aliases[:i], oe.aliases[i+1:]...)
				break
			}
		}
		delete(l.aliases, string(alias))
		l.bytes -= int64(len(alias))
	}
	if len(e.aliases) == maxAliases {
		l.dropAliases(e, 1)
	}
	name := string(alias) // the one copy: the entry and the map share it
	e.aliases = append(e.aliases, name)
	l.aliases[name] = el
	l.bytes += int64(len(name))
	l.evict()
}

// dropAliases unregisters e's n oldest aliases.
func (l *LRU) dropAliases(e *lruEntry, n int) {
	for _, a := range e.aliases[:n] {
		delete(l.aliases, a)
		l.bytes -= int64(len(a))
	}
	e.aliases = e.aliases[n:]
}

// evict removes least-recently-used entries, with their aliases, until the
// cache fits its budget.
func (l *LRU) evict() {
	for l.bytes > l.maxBytes {
		back := l.order.Back()
		if back == nil {
			break
		}
		e := back.Value.(*lruEntry)
		l.dropAliases(e, len(e.aliases))
		l.order.Remove(back)
		delete(l.items, e.key)
		l.bytes -= int64(len(e.key) + len(e.data))
		l.evictions++
	}
}

// LRUStats is a point-in-time snapshot of the cache. Entries counts
// entries, not names: aliases add to Bytes only.
type LRUStats struct {
	Entries   int   `json:"entries"`
	Bytes     int64 `json:"bytes"`
	MaxBytes  int64 `json:"max_bytes"`
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
}

// Stats reports entry/byte occupancy and lifetime hit/miss/eviction counts.
func (l *LRU) Stats() LRUStats {
	if l == nil {
		return LRUStats{}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return LRUStats{
		Entries:   len(l.items),
		Bytes:     l.bytes,
		MaxBytes:  l.maxBytes,
		Hits:      l.hits,
		Misses:    l.misses,
		Evictions: l.evictions,
	}
}
