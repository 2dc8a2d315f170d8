package cluster

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"beyondft/internal/harness"
)

// FuzzClusterHandlers feeds arbitrary requests to the replication plane's
// server half over an in-memory store, standalone and clustered. Laws: it
// never panics; it answers no 5xx but a standalone node's gossip 503; a fill
// reaches the store only with a non-empty result under the content address
// of its (name, spec, salt); a have over maxHaveKeys keys is a 400 that asks
// the store nothing.
func FuzzClusterHandlers(f *testing.F) {
	good := entry("j", `{"a":1}`, "s", `{"v":1}`)
	bad := good
	bad.Spec = `{"a":2}` // no longer derives good.Key
	empty := good
	empty.Result = nil
	marshal := func(v any) []byte {
		b, err := json.Marshal(v)
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	gossip := GossipRequest{From: "http://peer:1", Members: []Member{{Node: "http://peer:2", Inc: 3, State: StateSuspect}}}
	for _, clustered := range []bool{false, true} {
		f.Add(http.MethodPost, PathFill, marshal(good), clustered)
		f.Add(http.MethodPost, PathFill, marshal(bad), clustered)
		f.Add(http.MethodPost, PathFill, marshal(empty), clustered)
		f.Add(http.MethodPost, PathFill, []byte(`{"key":`), clustered)
		f.Add(http.MethodGet, PathEntry+good.Key, []byte(nil), clustered)
		f.Add(http.MethodGet, PathEntry+"absent", []byte(nil), clustered)
		f.Add(http.MethodPost, PathHave, marshal(HaveRequest{Keys: []string{good.Key, "absent"}}), clustered)
		f.Add(http.MethodPost, PathHave, marshal(HaveRequest{Keys: make([]string, maxHaveKeys+1)}), clustered)
		f.Add(http.MethodPost, PathGossip, marshal(gossip), clustered)
		f.Add(http.MethodPut, PathGossip, []byte("x"), clustered)
		f.Add(http.MethodGet, Prefix+"../entry/x", []byte(nil), clustered)
	}
	f.Fuzz(func(t *testing.T, method, path string, body []byte, clustered bool) {
		store := newMemStore(good)
		var cl *Cluster
		if clustered {
			var err error
			if cl, err = New(Config{Self: "http://self:1", GossipInterval: time.Hour}); err != nil {
				t.Fatal(err)
			}
		}
		req := &http.Request{
			Method: method,
			URL:    &url.URL{Path: path},
			Header: http.Header{},
			Body:   io.NopCloser(bytes.NewReader(body)),
		}
		rec := httptest.NewRecorder()
		Handler(store, func() *Cluster { return cl }).ServeHTTP(rec, req)

		standaloneGossip := !clustered && rec.Code == http.StatusServiceUnavailable &&
			strings.Contains(rec.Body.String(), "gossip disabled")
		if rec.Code >= 500 && !standaloneGossip {
			t.Fatalf("%s %q: status %d: %s", method, path, rec.Code, rec.Body)
		}
		for _, e := range store.filled {
			if len(e.Result) == 0 || harness.Key(e.Name, e.Spec, e.Salt) != e.Key {
				t.Fatalf("%s %q: store filled a malformed entry %+v", method, path, e)
			}
		}
		var have HaveRequest
		if method == http.MethodPost && path == PathHave &&
			json.NewDecoder(bytes.NewReader(body)).Decode(&have) == nil && len(have.Keys) > maxHaveKeys {
			if rec.Code != http.StatusBadRequest || store.hasOps != 0 {
				t.Fatalf("have of %d keys: status %d after %d Has calls, want 400 after none",
					len(have.Keys), rec.Code, store.hasOps)
			}
		}
	})
}
