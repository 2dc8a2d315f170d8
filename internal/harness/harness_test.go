package harness

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// toyResult is the result type used by the test jobs.
type toyResult struct {
	N int `json:"n"`
}

func decodeToy(data []byte) (any, error) {
	var r toyResult
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, err
	}
	return &r, nil
}

func toyJob(name string, n int) Job {
	return Job{
		Name: name,
		Spec: fmt.Sprintf(`{"n":%d}`, n),
		Run: func(ctx context.Context) (any, error) {
			return &toyResult{N: n * n}, nil
		},
		Decode: decodeToy,
	}
}

func TestRegistryRejectsDuplicatesAndEmpty(t *testing.T) {
	r := NewRegistry()
	if err := r.Register(toyJob("a", 1)); err != nil {
		t.Fatalf("register: %v", err)
	}
	if err := r.Register(toyJob("a", 2)); err == nil {
		t.Fatalf("duplicate name accepted")
	}
	if err := r.Register(Job{Name: "", Run: func(context.Context) (any, error) { return nil, nil }}); err == nil {
		t.Fatalf("empty name accepted")
	}
	if err := r.Register(Job{Name: "norun"}); err == nil {
		t.Fatalf("nil Run accepted")
	}
	if r.Len() != 1 {
		t.Fatalf("len = %d, want 1", r.Len())
	}
}

func TestRegistryMatch(t *testing.T) {
	r := NewRegistry()
	for _, n := range []string{"fig5a", "fig5b", "fig10", "table1"} {
		r.MustRegister(toyJob(n, 1))
	}
	got, err := r.Match("fig5*")
	if err != nil {
		t.Fatalf("match: %v", err)
	}
	if len(got) != 2 || got[0].Name != "fig5a" || got[1].Name != "fig5b" {
		t.Fatalf("fig5* matched %v", got)
	}
	all, err := r.Match("")
	if err != nil || len(all) != 4 {
		t.Fatalf("empty pattern should match all: %v, %v", all, err)
	}
	if _, err := r.Match("[bad"); err == nil {
		t.Fatalf("invalid pattern accepted")
	}
}

func TestKeyDistinguishesFields(t *testing.T) {
	// Length-prefixing must keep concatenation-ambiguous triples apart.
	if Key("ab", "c", "s") == Key("a", "bc", "s") {
		t.Fatalf("ambiguous keys collide")
	}
	if Key("a", "b", "s") == Key("a", "b", "t") {
		t.Fatalf("salt not mixed into key")
	}
	if Key("a", "b", "s") != Key("a", "b", "s") {
		t.Fatalf("key not deterministic")
	}
}

// TestKeyKnownAnswers pins the digest itself: cache directories and peers
// outlive a binary, so a faster Key must be the same function. The two
// serve triples are spec_golden.json's fat-tree and Xpander requests (their
// keys also appear in serve's reply goldens); the last spec is longer than
// any buffer a Key implementation might keep on its stack.
func TestKeyKnownAnswers(t *testing.T) {
	for _, c := range []struct{ name, spec, salt, want string }{
		{"", "", "", "9d908ecfb6b256def8b49a7c504e6c889c4b0e41fe6ce3e01863dd7b61a20aa0"},
		{"a", "b", "s", "e37ff9be8e942dba63bc8440e98ca5b70087cb0fabd1cec43fd5ac7b26b0054e"},
		{"v1/throughput", `{"topo":{"kind":"fattree","k":4},"tm":"longest-matching","x":1,"epsilon":0.08,"seed":1}`, "eval-v2",
			"a32973828a4c10b04d446adf7e07dc7082fb30799aff3ac1b741552fe3635a5a"},
		{"v1/pathstats", `{"topo":{"kind":"xpander","degree":4,"lift":3,"servers":6,"seed":1}}`, "eval-v2",
			"68318b528f04c71e21bd62c3b557d022dc58c2f46a233ba73cdef1b758a28b3b"},
		{"fig5a", strings.Repeat("scale=laptop;", 400), "harness-v1",
			"235a40f43affd73596bc29836b42d9bfbeb18c6e82f0d9b712c285349251ba07"},
	} {
		if got := Key(c.name, c.spec, c.salt); got != c.want {
			t.Errorf("Key(%q, %.40q…, %q) = %s, want %s", c.name, c.spec, c.salt, got, c.want)
		}
	}
	spec := `{"topo":{"kind":"fattree","k":4},"tm":"longest-matching","x":1,"epsilon":0.08,"seed":1}`
	if n := testing.AllocsPerRun(100, func() { Key("v1/throughput", spec, "eval-v2") }); n > 1 {
		t.Errorf("Key allocates %v times per call, want 1 (the returned string)", n)
	}
}

func TestCacheRoundTripAndCorruption(t *testing.T) {
	c, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	key := Key("j", "spec", "salt")
	if _, hit, err := c.Get(key); err != nil || hit {
		t.Fatalf("empty cache: hit=%v err=%v", hit, err)
	}
	want := json.RawMessage(`{"n":9}`)
	if err := c.Put(key, Entry{Job: "j", Spec: "spec", Salt: "salt", Result: want}); err != nil {
		t.Fatalf("put: %v", err)
	}
	got, hit, err := c.Get(key)
	if err != nil || !hit || string(got) != string(want) {
		t.Fatalf("get = %s hit=%v err=%v", got, hit, err)
	}
	// Corrupt the entry on disk: must degrade to a miss, not an error.
	if err := os.WriteFile(filepath.Join(c.Dir(), key+".json"), []byte("{truncated"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, hit, err := c.Get(key); err != nil || hit {
		t.Fatalf("corrupt entry should be a miss: hit=%v err=%v", hit, err)
	}
	entries, _, err := c.Stats()
	if err != nil || entries != 1 {
		t.Fatalf("stats = %d, %v", entries, err)
	}
}

func TestCacheLoadAndKeys(t *testing.T) {
	c, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if ks, err := c.Keys(); err != nil || len(ks) != 0 {
		t.Fatalf("empty cache keys = %v, %v", ks, err)
	}
	want := map[string]Entry{}
	for i := 0; i < 3; i++ {
		spec := fmt.Sprintf(`{"i":%d}`, i)
		key := Key("job", spec, "salt")
		e := Entry{Job: "job", Spec: spec, Salt: "salt", Result: json.RawMessage(fmt.Sprintf(`{"v":%d}`, i))}
		if err := c.Put(key, e); err != nil {
			t.Fatalf("put: %v", err)
		}
		want[key] = e
	}
	// Noise the walk must skip: a subdirectory and a non-.json stray.
	if err := os.Mkdir(filepath.Join(c.Dir(), "subdir"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(c.Dir(), "stray.tmp"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	keys, err := c.Keys()
	if err != nil {
		t.Fatalf("keys: %v", err)
	}
	if len(keys) != len(want) {
		t.Fatalf("keys = %v, want the %d stored entries", keys, len(want))
	}
	for _, k := range keys {
		e, ok, err := c.Load(k)
		if err != nil || !ok {
			t.Fatalf("load %s: ok=%v err=%v", k, ok, err)
		}
		w := want[k]
		if e.Job != w.Job || e.Spec != w.Spec || e.Salt != w.Salt || string(e.Result) != string(w.Result) {
			t.Fatalf("load %s = %+v, want %+v", k, e, w)
		}
		if e.Key != k {
			t.Fatalf("loaded envelope key = %q, want %q (Put must stamp it)", e.Key, k)
		}
		// The envelope's metadata must rederive its own content address —
		// that's what lets a replica verify a pushed entry before accepting.
		if Key(e.Job, e.Spec, e.Salt) != k {
			t.Fatalf("entry %s does not rederive its own key", k)
		}
	}
	if _, ok, err := c.Load("absent"); ok || err != nil {
		t.Fatalf("load of absent key: ok=%v err=%v, want clean miss", ok, err)
	}
}

func TestRunComputesCachesAndResumes(t *testing.T) {
	cache, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var calls atomic.Int64
	mk := func(name string, n int) Job {
		j := toyJob(name, n)
		inner := j.Run
		j.Run = func(ctx context.Context) (any, error) {
			calls.Add(1)
			time.Sleep(2 * time.Millisecond) // so duration metrics are observable
			return inner(ctx)
		}
		return j
	}
	jobs := []Job{mk("a", 2), mk("b", 3), mk("c", 4)}
	var progress strings.Builder
	rep, err := Run(context.Background(), jobs, Options{Workers: 2, Cache: cache, Progress: &progress})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if rep.CacheMisses != 3 || rep.CacheHits != 0 || rep.Errors != 0 {
		t.Fatalf("cold run: hits=%d misses=%d errors=%d", rep.CacheHits, rep.CacheMisses, rep.Errors)
	}
	if got := rep.Jobs[1].Value.(*toyResult).N; got != 9 {
		t.Fatalf("job b = %d, want 9", got)
	}
	for _, jr := range rep.Jobs {
		if jr.DurationMs < 1 {
			t.Fatalf("job %s duration %.3fms not recorded", jr.Name, jr.DurationMs)
		}
	}
	if calls.Load() != 3 {
		t.Fatalf("calls = %d, want 3", calls.Load())
	}
	if !strings.Contains(progress.String(), "job=b") || !strings.Contains(progress.String(), "hits=0 misses=3") {
		t.Fatalf("progress lines missing:\n%s", progress.String())
	}

	// Warm run: everything decodes from the cache, nothing recomputes.
	rep2, err := Run(context.Background(), jobs, Options{Workers: 2, Cache: cache})
	if err != nil {
		t.Fatalf("warm run: %v", err)
	}
	if rep2.CacheHits != 3 || rep2.CacheMisses != 0 {
		t.Fatalf("warm run: hits=%d misses=%d", rep2.CacheHits, rep2.CacheMisses)
	}
	if calls.Load() != 3 {
		t.Fatalf("warm run recomputed: calls = %d", calls.Load())
	}
	if got := rep2.Jobs[2].Value.(*toyResult).N; got != 16 {
		t.Fatalf("cached job c = %d, want 16", got)
	}

	// A salt change invalidates every entry.
	rep3, err := Run(context.Background(), jobs, Options{Workers: 1, Cache: cache, Salt: "v2"})
	if err != nil {
		t.Fatalf("salted run: %v", err)
	}
	if rep3.CacheMisses != 3 {
		t.Fatalf("salt change should miss: hits=%d misses=%d", rep3.CacheHits, rep3.CacheMisses)
	}
}

func TestRunRecoversPanics(t *testing.T) {
	jobs := []Job{
		toyJob("ok", 2),
		{
			Name: "boom",
			Spec: "{}",
			Run:  func(ctx context.Context) (any, error) { panic("kaboom") },
		},
		{
			Name: "fails",
			Spec: "{}",
			Run:  func(ctx context.Context) (any, error) { return nil, errors.New("nope") },
		},
	}
	rep, err := Run(context.Background(), jobs, Options{Workers: 3})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if rep.Errors != 2 {
		t.Fatalf("errors = %d, want 2", rep.Errors)
	}
	if rep.Jobs[0].Err != "" {
		t.Fatalf("healthy job poisoned: %s", rep.Jobs[0].Err)
	}
	if !strings.Contains(rep.Jobs[1].Err, "kaboom") {
		t.Fatalf("panic not captured: %q", rep.Jobs[1].Err)
	}
	aggErr := rep.Err()
	if aggErr == nil || !strings.Contains(aggErr.Error(), "boom") || !strings.Contains(aggErr.Error(), "nope") {
		t.Fatalf("aggregate error = %v", aggErr)
	}
}

func TestRunHonoursCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	var ran atomic.Int64
	jobs := make([]Job, 8)
	for i := range jobs {
		i := i
		jobs[i] = Job{
			Name: fmt.Sprintf("slow%d", i),
			Spec: "{}",
			Run: func(ctx context.Context) (any, error) {
				if i == 0 {
					close(started)
				}
				<-ctx.Done() // block until cancellation
				ran.Add(1)
				return &toyResult{}, nil
			},
			Decode: decodeToy,
		}
	}
	go func() {
		<-started
		cancel()
	}()
	rep, err := Run(ctx, jobs, Options{Workers: 1})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	// Worker 1 ran one job to completion; the other 7 were never started
	// and must be marked canceled.
	canceled := 0
	for _, jr := range rep.Jobs {
		if strings.Contains(jr.Err, context.Canceled.Error()) {
			canceled++
		}
	}
	if canceled != 7 || ran.Load() != 1 {
		t.Fatalf("canceled=%d ran=%d, want 7 and 1", canceled, ran.Load())
	}
}

func TestRunWritesArtifactsOnHitAndMiss(t *testing.T) {
	cache, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	j := toyJob("art", 3)
	j.Artifacts = func(result any, dir string) ([]string, error) {
		p := filepath.Join(dir, "art.txt")
		if err := os.WriteFile(p, []byte(fmt.Sprintf("%d\n", result.(*toyResult).N)), 0o644); err != nil {
			return nil, err
		}
		return []string{p}, nil
	}
	for pass, out := range []string{t.TempDir(), t.TempDir()} {
		rep, err := Run(context.Background(), []Job{j}, Options{Workers: 1, Cache: cache, OutDir: out})
		if err != nil || rep.Errors != 0 {
			t.Fatalf("pass %d: %v, errors=%d", pass, err, rep.Errors)
		}
		data, err := os.ReadFile(filepath.Join(out, "art.txt"))
		if err != nil || string(data) != "9\n" {
			t.Fatalf("pass %d artifact = %q, %v", pass, data, err)
		}
		wantCached := pass == 1
		if rep.Jobs[0].Cached != wantCached {
			t.Fatalf("pass %d cached = %v", pass, rep.Jobs[0].Cached)
		}
	}
}

func TestManifestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	rep := &Report{
		Workers: 4, Salt: "s", WallClockMs: 12.5,
		CacheHits: 1, CacheMisses: 2,
		Jobs: []JobReport{{Name: "a", Key: "k", Cached: true, DurationMs: 1.5, Artifacts: []string{"a.csv"}}},
	}
	p, err := WriteManifest(dir, rep, "/tmp/cache")
	if err != nil {
		t.Fatalf("write: %v", err)
	}
	if filepath.Base(p) != ManifestName {
		t.Fatalf("manifest path = %s", p)
	}
	m, err := ReadManifest(dir)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if m.Workers != 4 || m.CacheHits != 1 || len(m.Jobs) != 1 || !m.Jobs[0].Cached {
		t.Fatalf("round trip mangled: %+v", m)
	}
	if time.Since(m.CreatedAt) > time.Minute {
		t.Fatalf("created_at not stamped: %v", m.CreatedAt)
	}
}
