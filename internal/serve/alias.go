package serve

import (
	"encoding/json"
	"io"
	"math"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"time"
)

// The alias path: an L1 hit without a decode.
//
// Resolving a request — strict decode, normalize, canonical spec, SHA-256 —
// is a pure function of (kind, body bytes), and a design loop re-issues the
// same bytes constantly. So once a request has gone through the resolver
// and its result sits in L1, the entry is also named by the request's own
// bytes (harness.LRU.Alias), and the next identical request is answered by
// one map probe on those bytes and one copy of the cached reply. The
// invariant: an alias is a memo of that pure function; it can only name an
// entry the strict path produced; it never outlives that entry. A body that
// was never resolved — unknown field, different whitespace, another kind —
// has no alias and falls through to the resolver, which stays the only
// place a request is interpreted.

// maxAliasBody bounds the bodies the alias probe reads: a throughput or
// what-if spec is a few hundred bytes. Longer bodies (and chunked ones, and
// any request with a query string) take the resolver path untouched.
const maxAliasBody = 2048

// maxPooledBuf keeps a buffer that grew for one large what-if reply from
// staying in the pool.
const maxPooledBuf = 64 << 10

// bufPool holds the per-request scratch of the alias path: first the alias,
// then, on a hit, the reply.
var bufPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 4096)
	return &b
}}

func putBuf(bp *[]byte) {
	if cap(*bp) <= maxPooledBuf {
		bufPool.Put(bp)
	}
}

// appendAlias appends the alias of a query: kind ‖ 0x00 ‖ raw body. Kinds
// contain no zero byte, so identical bodies of different kinds never share
// an alias.
func appendAlias(buf []byte, kind string, body []byte) []byte {
	buf = append(buf, kind...)
	buf = append(buf, 0)
	return append(buf, body...)
}

// readAlias reads the body of a request the alias probe may look at — known
// length within the bound, and no query string (?trace=1 and ?stream=1
// change what a reply is) — into buf and returns the request's alias and the
// body bytes it consumed. Any other request is left untouched (nil, nil). A
// body that ends before its Content-Length has no alias, only consumed
// bytes: the decoder reports it as it always has.
func readAlias(buf []byte, kind string, r *http.Request) (alias, consumed []byte) {
	if r.URL.RawQuery != "" || r.ContentLength < 0 || r.ContentLength > maxAliasBody {
		return nil, nil
	}
	alias = appendAlias(buf[:0], kind, nil)
	n := len(alias)
	alias = slices.Grow(alias, int(r.ContentLength))[:n+int(r.ContentLength)]
	got, err := io.ReadFull(r.Body, alias[n:])
	if err != nil {
		return nil, alias[n : n+got]
	}
	return alias, alias[n:]
}

var jsonContentType = []string{"application/json"}

// appendEnvelope appends the reply json.Marshal(queryResponse{Key, Source,
// DurationMs, Result}) + "\n" would produce, byte for byte, given a result
// that already is what json.Marshal makes of it (Engine.putL1 sees to that
// for everything in L1). Keys are hex and sources are our constants, so
// neither needs escaping.
func appendEnvelope(buf []byte, key string, src Source, elapsed time.Duration, result json.RawMessage) []byte {
	buf = append(buf, `{"key":"`...)
	buf = append(buf, key...)
	buf = append(buf, `","source":"`...)
	buf = append(buf, src...)
	buf = append(buf, `","duration_ms":`...)
	buf = appendJSONFloat(buf, float64(elapsed)/float64(time.Millisecond))
	buf = append(buf, `,"result":`...)
	buf = append(buf, result...)
	return append(buf, "}\n"...)
}

// appendJSONFloat formats a finite float64 the way encoding/json does: the
// shortest representation that round-trips, in %e form below 1e-6 and from
// 1e21 up, with a two-digit exponent's leading zero removed (1e-07 → 1e-7).
func appendJSONFloat(buf []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	buf = strconv.AppendFloat(buf, f, format, -1, 64)
	if format == 'e' {
		if n := len(buf); n >= 4 && buf[n-4] == 'e' && (buf[n-3] == '-' || buf[n-3] == '+') && buf[n-2] == '0' {
			buf[n-2] = buf[n-1]
			buf = buf[:n-1]
		}
	}
	return buf
}
