package harness

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// Version is the default code-version salt mixed into every cache key.
// Bump it whenever the harness envelope format changes incompatibly;
// experiment packages layer their own salt on top for driver changes.
const Version = "harness-v1"

// Key derives the content address of a job result: a hex SHA-256 over the
// length-prefixed (name, spec, salt) triple. Length prefixes keep distinct
// triples from colliding by concatenation (e.g. "ab"+"c" vs "a"+"bc").
//
// The daemon derives a key for every request it resolves, so the message is
// laid out in a stack buffer and hashed in one call: the returned string is
// the only allocation (a triple longer than the buffer costs one more).
func Key(name, spec, salt string) string {
	var stack [1024]byte
	msg := stack[:0]
	for _, field := range [...]string{name, spec, salt} {
		msg = binary.LittleEndian.AppendUint64(msg, uint64(len(field)))
		msg = append(msg, field...)
	}
	sum := sha256.Sum256(msg)
	var out [2 * sha256.Size]byte
	hex.Encode(out[:], sum[:])
	return string(out[:])
}

// Entry is the on-disk envelope of one cached result.
type Entry struct {
	Job       string          `json:"job"`
	Spec      string          `json:"spec"`
	Salt      string          `json:"salt"`
	Key       string          `json:"key"`
	CreatedAt time.Time       `json:"created_at"`
	Result    json.RawMessage `json:"result"`
}

// Cache is a content-addressed store of job results: one JSON file per key
// under a flat directory. Writes are atomic (temp file + rename), so a
// concurrent or interrupted run never leaves a partial entry behind.
type Cache struct {
	dir string
}

// OpenCache opens (creating if necessary) a cache rooted at dir.
func OpenCache(dir string) (*Cache, error) {
	if dir == "" {
		return nil, errors.New("harness: empty cache dir")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("harness: open cache: %w", err)
	}
	return &Cache{dir: dir}, nil
}

// Dir returns the cache root.
func (c *Cache) Dir() string { return c.dir }

func (c *Cache) path(key string) string {
	return filepath.Join(c.dir, key+".json")
}

// Get returns the cached result for key. A missing entry is (nil, false,
// nil); a corrupt or mismatched entry is treated as a miss so a damaged
// cache degrades to recomputation, never to a wrong answer.
func (c *Cache) Get(key string) (json.RawMessage, bool, error) {
	e, ok, err := c.Load(key)
	if !ok || err != nil {
		return nil, false, err
	}
	return e.Result, true, nil
}

// Load returns the full envelope stored under key, with the same
// missing/corrupt semantics as Get. The metadata (job, spec, salt) is what
// lets one node re-offer an entry to another: the receiver can rederive and
// verify the content address before accepting the bytes.
func (c *Cache) Load(key string) (Entry, bool, error) {
	data, err := os.ReadFile(c.path(key))
	if errors.Is(err, fs.ErrNotExist) {
		return Entry{}, false, nil
	}
	if err != nil {
		return Entry{}, false, fmt.Errorf("harness: cache read: %w", err)
	}
	var e Entry
	if err := json.Unmarshal(data, &e); err != nil || e.Key != key || e.Result == nil {
		return Entry{}, false, nil // corrupt: recompute
	}
	return e, true, nil
}

// Keys lists the key of every entry currently in the cache, unordered.
// Entries that appear or vanish concurrently are simply included or not —
// callers (cache status, anti-entropy walks) tolerate both.
func (c *Cache) Keys() ([]string, error) {
	des, err := os.ReadDir(c.dir)
	if err != nil {
		return nil, fmt.Errorf("harness: cache keys: %w", err)
	}
	keys := make([]string, 0, len(des))
	for _, de := range des {
		if de.IsDir() || !strings.HasSuffix(de.Name(), ".json") {
			continue
		}
		keys = append(keys, strings.TrimSuffix(de.Name(), ".json"))
	}
	return keys, nil
}

// Put stores a result under key, atomically.
func (c *Cache) Put(key string, e Entry) error {
	e.Key = key
	data, err := json.Marshal(&e)
	if err != nil {
		return fmt.Errorf("harness: cache encode: %w", err)
	}
	tmp, err := os.CreateTemp(c.dir, ".put-*")
	if err != nil {
		return fmt.Errorf("harness: cache write: %w", err)
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("harness: cache write: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("harness: cache write: %w", err)
	}
	if err := os.Rename(tmp.Name(), c.path(key)); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("harness: cache write: %w", err)
	}
	return nil
}

// Prune evicts entries, oldest modification time first, until the cache's
// total size is at most maxBytes, and reports how many entries and bytes it
// removed. Content-addressed entries are pure function results, so eviction
// is always safe — a pruned entry just recomputes on next use. If logf is
// non-nil it receives one line per evicted entry plus a summary (the daemon
// and `runner status -prune` pass their loggers so operators can see what a
// byte budget actually costs). maxBytes < 0 means no limit (no-op).
func (c *Cache) Prune(maxBytes int64, logf func(format string, args ...any)) (evicted int, freed int64, err error) {
	if maxBytes < 0 {
		return 0, 0, nil
	}
	des, err := os.ReadDir(c.dir)
	if err != nil {
		return 0, 0, fmt.Errorf("harness: cache prune: %w", err)
	}
	type entry struct {
		name    string
		size    int64
		modTime time.Time
	}
	var entries []entry
	var total int64
	for _, de := range des {
		if de.IsDir() || !strings.HasSuffix(de.Name(), ".json") {
			continue
		}
		info, err := de.Info()
		if err != nil {
			continue // raced with a concurrent delete: skip
		}
		entries = append(entries, entry{de.Name(), info.Size(), info.ModTime()})
		total += info.Size()
	}
	sort.Slice(entries, func(i, j int) bool {
		if !entries[i].modTime.Equal(entries[j].modTime) {
			return entries[i].modTime.Before(entries[j].modTime)
		}
		return entries[i].name < entries[j].name
	})
	for _, e := range entries {
		if total <= maxBytes {
			break
		}
		if err := os.Remove(filepath.Join(c.dir, e.name)); err != nil {
			if errors.Is(err, fs.ErrNotExist) {
				total -= e.size // someone else removed it: still freed
				continue
			}
			return evicted, freed, fmt.Errorf("harness: cache prune: %w", err)
		}
		total -= e.size
		freed += e.size
		evicted++
		if logf != nil {
			logf("harness: prune evict key=%s bytes=%d age=%s",
				strings.TrimSuffix(e.name, ".json"),
				e.size, time.Since(e.modTime).Round(time.Second))
		}
	}
	if logf != nil && evicted > 0 {
		logf("harness: prune done evicted=%d freed=%d remaining_bytes=%d budget=%d",
			evicted, freed, total, maxBytes)
	}
	return evicted, freed, nil
}

// Stats reports the number of entries and their total size in bytes.
func (c *Cache) Stats() (entries int, bytes int64, err error) {
	des, err := os.ReadDir(c.dir)
	if err != nil {
		return 0, 0, fmt.Errorf("harness: cache stats: %w", err)
	}
	for _, de := range des {
		if de.IsDir() || !strings.HasSuffix(de.Name(), ".json") {
			continue
		}
		info, err := de.Info()
		if err != nil {
			continue
		}
		entries++
		bytes += info.Size()
	}
	return entries, bytes, nil
}
