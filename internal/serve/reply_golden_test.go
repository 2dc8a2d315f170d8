package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"beyondft/internal/golden"
	"beyondft/internal/harness"
)

const replyGoldenPath = "testdata/reply_golden.json"

// durationField matches the one run-varying part of a reply.
var durationField = regexp.MustCompile(`"duration_ms":[^,]+,`)

func maskDuration(reply []byte) string {
	return string(durationField.ReplaceAll(reply, []byte(`"duration_ms":0,`)))
}

// injectedPayload is a result no compute of ours produces: characters
// encoding/json escapes on the way out (<, &, U+2028), insignificant
// whitespace it strips, and a non-ASCII topology name it leaves alone. It
// reaches the node the two ways foreign bytes can — a replica push
// (Engine.Fill) and a file already in the L2 directory — and the reply
// bytes a client then sees are pinned below.
const injectedPayload = "{ \"topology\" : \"jellyfish-ñ-λ<12&3>\u2028\",\n\t\"switches\": 12,  \"note\": \"a<b && c>d\u2028e\" ,\n \"throughput\" : 0.5 }"

// TestReplyGolden pins the full reply bytes of an L1 hit (duration_ms
// masked) for every request of spec_golden.json, and of hits on entries
// injected through Engine.Fill and through an L2 file. These are the bytes
// the hit path serves: a change to how a hit is found or how its reply is
// put together passes this file unedited.
func TestReplyGolden(t *testing.T) {
	registerGoldenDesign(t)
	cacheDir := t.TempDir()
	s, err := New(testConfig(t, cacheDir))
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	post := func(path, body string) []byte {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("POST %s %s: %d %s", path, body, rec.Code, rec.Body.Bytes())
		}
		return rec.Body.Bytes()
	}
	hit := func(path, body string) string {
		t.Helper()
		reply := post(path, body)
		if !bytes.Contains(reply, []byte(`"source":"l1"`)) {
			t.Fatalf("POST %s %s: not an L1 hit: %s", path, body, reply)
		}
		return maskDuration(reply)
	}

	got := map[string]string{}
	names := make([]string, 0, len(specGoldenBodies))
	for name := range specGoldenBodies {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		kind, _, _ := strings.Cut(name, "/")
		path, body := "/v1/"+kind, specGoldenBodies[name]
		post(path, body) // cold compute
		got[name] = hit(path, body)
	}

	// keyOf resolves a throughput body the way the handler does.
	keyOf := func(body string) (key, spec string) {
		t.Helper()
		var req ThroughputRequest
		if err := json.Unmarshal([]byte(body), &req); err != nil {
			t.Fatal(err)
		}
		if err := req.normalize(); err != nil {
			t.Fatal(err)
		}
		return harness.Key("v1/throughput", req.spec(), CodeSalt), req.spec()
	}

	filled := `{"topo":{"kind":"jellyfish","n":10,"degree":3,"servers":2},"seed":77}`
	key, spec := keyOf(filled)
	if had := s.engine.Fill(key, "v1/throughput", spec, CodeSalt, json.RawMessage(injectedPayload)); had {
		t.Fatal("fill: key already present")
	}
	got["injected/fill"] = hit("/v1/throughput", filled)

	onDisk := `{"topo":{"kind":"jellyfish","n":10,"degree":3,"servers":2},"seed":78}`
	key, spec = keyOf(onDisk)
	meta, err := json.Marshal(harness.Entry{Job: "v1/throughput", Spec: spec, Salt: CodeSalt, Key: key})
	if err != nil {
		t.Fatal(err)
	}
	// The envelope a foreign writer might leave: the payload verbatim, not
	// passed through json.Marshal.
	file := bytes.Replace(meta, []byte(`"result":null`), []byte(`"result":`+injectedPayload), 1)
	if err := os.WriteFile(filepath.Join(cacheDir, key+".json"), file, 0o644); err != nil {
		t.Fatal(err)
	}
	promoted := post("/v1/throughput", onDisk)
	if !bytes.Contains(promoted, []byte(`"source":"l2"`)) {
		t.Fatalf("hand-written L2 file was not read: %s", promoted)
	}
	got["injected/l2-file"] = maskDuration(promoted)
	got["injected/l2-file-then-l1"] = hit("/v1/throughput", onDisk)

	if *golden.Update {
		golden.Write(t, replyGoldenPath, got, "  ")
		return
	}
	var want map[string]string
	golden.Read(t, replyGoldenPath, &want)
	if len(want) != len(got) {
		t.Errorf("golden file has %d replies, the test produces %d", len(want), len(got))
	}
	for name, g := range got {
		if w := want[name]; g != w {
			t.Errorf("%s: reply changed\nwant %q\ngot  %q", name, w, g)
		}
	}
}
