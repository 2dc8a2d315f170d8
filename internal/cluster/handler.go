package cluster

import (
	"encoding/json"
	"fmt"
	"net/http"

	"beyondft/internal/harness"
)

// Store is the node-local cache the replication plane reads and fills: the
// serving engine, or an in-memory map in tests.
type Store interface {
	// Has reports whether key is durably held (what replica placement
	// counts).
	Has(key string) bool
	// Fill stores a pushed entry unless key is already durably held, and
	// reports whether it was.
	Fill(key, name, spec, salt string, data json.RawMessage) (had bool)
	// Load reads one durably held entry, metadata and all.
	Load(key string) (Entry, bool)
	// Keys lists the durably held keys.
	Keys() ([]string, error)
}

// maxBody bounds one replication-plane request body.
const maxBody = 64 << 20

// maxHaveKeys bounds one have query (anti-entropy batches well under this).
const maxHaveKeys = 4096

// Handler serves the replication plane (every path under Prefix) over
// store. current returns the node's cluster, nil while standalone: fill,
// entry and have then still answer from the local caches, and gossip
// answers 503.
//
// None of these endpoints computes or forwards — that is what makes the
// primary's sibling probe loop-safe: a probe can only ever read a cache.
func Handler(store Store, current func() *Cluster) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST "+PathFill, func(w http.ResponseWriter, r *http.Request) {
		// The content address is rederived from the carried (name, spec,
		// salt) triple before the bytes are accepted — a mismatched push is
		// a protocol error, not a cache write.
		var e Entry
		if !decodeBody(w, r, &e) {
			return
		}
		if len(e.Result) == 0 {
			writeError(w, http.StatusBadRequest, "fill without result")
			return
		}
		if got := harness.Key(e.Name, e.Spec, e.Salt); got != e.Key {
			writeError(w, http.StatusBadRequest,
				fmt.Sprintf("fill key mismatch: body derives %.12s…, header says %.12s…", got, e.Key))
			return
		}
		writeJSON(w, http.StatusOK, FillResponse{Had: store.Fill(e.Key, e.Name, e.Spec, e.Salt, e.Result)})
	})
	mux.HandleFunc("GET "+PathEntry+"{key}", func(w http.ResponseWriter, r *http.Request) {
		e, ok := store.Load(r.PathValue("key"))
		if !ok {
			writeError(w, http.StatusNotFound, "not cached")
			return
		}
		writeJSON(w, http.StatusOK, e)
	})
	mux.HandleFunc("POST "+PathHave, func(w http.ResponseWriter, r *http.Request) {
		var req HaveRequest
		if !decodeBody(w, r, &req) {
			return
		}
		if len(req.Keys) > maxHaveKeys {
			writeError(w, http.StatusBadRequest, fmt.Sprintf("have query exceeds %d keys", maxHaveKeys))
			return
		}
		have := make([]bool, len(req.Keys))
		for i, k := range req.Keys {
			have[i] = store.Has(k)
		}
		writeJSON(w, http.StatusOK, HaveResponse{Have: have})
	})
	mux.HandleFunc("POST "+PathGossip, func(w http.ResponseWriter, r *http.Request) {
		cl := current()
		if cl == nil || cl.mem == nil {
			writeError(w, http.StatusServiceUnavailable, "gossip disabled")
			return
		}
		var req GossipRequest
		if !decodeBody(w, r, &req) {
			return
		}
		// Receiving gossip from a peer is proof it is alive.
		cl.mem.Merge(req.Members)
		if req.From != "" {
			cl.mem.Refresh(req.From)
		}
		writeJSON(w, http.StatusOK, GossipResponse{Members: cl.mem.Table()})
	})
	return mux
}

func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBody)).Decode(v); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("decode request: %v", err))
		return false
	}
	return true
}

// writeError replies with the serving API's JSON error envelope.
func writeError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, struct {
		Error string `json:"error"`
	}{msg})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		http.Error(w, `{"error":"encode response"}`, http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(append(data, '\n'))
}
