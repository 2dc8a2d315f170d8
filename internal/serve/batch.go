package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"beyondft/internal/cluster"
)

// POST /v1/batch: evaluate many specs over one connection, NDJSON in and
// NDJSON out. Each request line is a batchItem; each response line is a
// batchLine carrying the item's index (results stream in completion order,
// not input order), so thousands of specs cost one connection instead of
// thousands, while every item still runs through the full serving core —
// caches, singleflight, cluster forwarding, and admission control.
//
// Backpressure: items rejected by admission (local or the ring owner's) are
// retried with backoff for as long as the batch connection lives, instead
// of surfacing per-item 429s — a batch is a willing-to-wait workload, and
// the bounded worker pool here feeds the engine no faster than its
// admission queue drains.

// maxBatchItems bounds one batch request; beyond it the stream errors out.
const maxBatchItems = 100_000

// maxBatchLine bounds one NDJSON input line (a spec is a few hundred bytes).
const maxBatchLine = 1 << 20

// batchSaturatedBackoff is the initial retry sleep for an admission-rejected
// item, doubling up to batchSaturatedBackoffMax.
const (
	batchSaturatedBackoff    = 10 * time.Millisecond
	batchSaturatedBackoffMax = 500 * time.Millisecond
)

// batchItem is one input line of POST /v1/batch.
type batchItem struct {
	// Kind selects the query type: throughput | pathstats | whatif | job.
	Kind string `json:"kind"`
	// Name is the registry job to run (kind=job only).
	Name string `json:"name,omitempty"`
	// Spec is the query body, identical to the corresponding /v1 endpoint's
	// request body (kind=throughput|pathstats|whatif).
	Spec json.RawMessage `json:"spec,omitempty"`
}

// batchLine is one output line: a result or an error for input line Index,
// or the terminal summary (exactly one of Result/Error/Done is set).
type batchLine struct {
	Index      *int            `json:"index,omitempty"`
	Key        string          `json:"key,omitempty"`
	Source     Source          `json:"source,omitempty"`
	DurationMs float64         `json:"duration_ms,omitempty"`
	Result     json.RawMessage `json:"result,omitempty"`
	Error      string          `json:"error,omitempty"`
	Done       *batchSummary   `json:"done,omitempty"`
}

// batchIndex boxes a line index: the summary line has none, and a plain
// int with omitempty would silently drop index 0 from the first line.
func batchIndex(i int) *int { return &i }

// batchSummary is the terminal line of a batch stream.
type batchSummary struct {
	Items  int `json:"items"`
	Errors int `json:"errors"`
}

// resolveBatchItem turns an input line into engine inputs, through the same
// resolver as the corresponding single-query handler.
func (s *Server) resolveBatchItem(it batchItem) (query, error) {
	switch it.Kind {
	case "throughput", "pathstats", "whatif":
		q, _, err := s.resolveAdhoc(it.Kind, func(v any) error {
			dec := json.NewDecoder(bytes.NewReader(it.Spec))
			dec.DisallowUnknownFields()
			if err := dec.Decode(v); err != nil {
				return fmt.Errorf("decode %s spec: %w", it.Kind, err)
			}
			return nil
		})
		return q, err
	case "job":
		job, ok := s.reg.Lookup(it.Name)
		if !ok {
			return query{}, fmt.Errorf("unknown job %q (see GET /v1/jobs)", it.Name)
		}
		return s.jobQuery(job), nil
	default:
		return query{}, fmt.Errorf("unknown kind %q (want throughput|pathstats|whatif|job)", it.Kind)
	}
}

// handleBatch streams results for an NDJSON stream of specs. The bounded
// worker pool keeps this one connection from monopolizing the engine while
// still overlapping forwards, cache probes, and computes.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	s.metrics.Requests.Add(1)
	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	// bctx governs every in-flight item: it inherits the request's
	// cancellation and is additionally canceled the moment a response write
	// fails — once nobody is reading the stream, finishing (or starting)
	// items is pure waste.
	bctx, bcancel := context.WithCancel(r.Context())
	defer bcancel()
	var encMu sync.Mutex
	enc := json.NewEncoder(w)
	var errCount int
	var broken bool
	emit := func(line batchLine) {
		encMu.Lock()
		defer encMu.Unlock()
		if broken {
			return
		}
		if line.Error != "" {
			errCount++
			s.metrics.Errors.Add(1)
		}
		if err := enc.Encode(line); err != nil {
			// The client is gone (or the connection died). Stop the stream:
			// no further lines, no further items.
			broken = true
			bcancel()
			return
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
	streamBroken := func() bool {
		encMu.Lock()
		defer encMu.Unlock()
		return broken
	}

	workers := 2*s.cfg.Workers + 2
	if workers < 4 {
		workers = 4
	}
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	items := 0
	sc := bufio.NewScanner(r.Body)
	sc.Buffer(make([]byte, 64<<10), maxBatchLine)
	bp := bufPool.Get().(*[]byte)
	defer putBuf(bp)
	for sc.Scan() {
		if bctx.Err() != nil || streamBroken() {
			break // writer failed or client vanished: stop accepting lines
		}
		raw := sc.Bytes()
		if len(bytes.TrimSpace(raw)) == 0 {
			continue
		}
		if items >= maxBatchItems {
			emit(batchLine{Index: batchIndex(items), Error: fmt.Sprintf("batch exceeds %d items", maxBatchItems)})
			break
		}
		idx := items
		items++
		s.metrics.BatchItems.Add(1)
		var it batchItem
		if err := json.Unmarshal(raw, &it); err != nil {
			emit(batchLine{Index: batchIndex(idx), Error: fmt.Sprintf("decode line: %v", err)})
			continue
		}
		// The same alias probe as POST /v1/<kind>: an item whose spec bytes
		// were resolved before and whose result is in L1 needs no resolver.
		var alias []byte
		if _, adhoc := adhocKinds[it.Kind]; adhoc && len(it.Spec) <= maxAliasBody {
			start := time.Now()
			*bp = appendAlias((*bp)[:0], it.Kind, it.Spec)
			if key, data, ok := s.engine.LookupAlias(*bp); ok {
				emit(batchLine{
					Index:      batchIndex(idx),
					Key:        key,
					Source:     SourceL1,
					DurationMs: float64(time.Since(start)) / float64(time.Millisecond),
					Result:     data,
				})
				continue
			}
			alias = bytes.Clone(*bp) // registered by the item's goroutine, after the next line reuses bp
		}
		q, err := s.resolveBatchItem(it)
		if err != nil {
			emit(batchLine{Index: batchIndex(idx), Error: err.Error()})
			continue
		}
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			emit(s.runBatchQuery(bctx, r, idx, q, alias))
		}()
	}
	if err := sc.Err(); err != nil {
		emit(batchLine{Index: batchIndex(items), Error: fmt.Sprintf("read batch body: %v", err)})
	}
	wg.Wait()
	emit(batchLine{Done: &batchSummary{Items: items, Errors: errCount}})
}

// runBatchQuery runs one resolved item through the engine, retrying
// admission rejections (local and peer) with backoff while the batch
// stream lives. Each attempt gets its own RequestTimeout deadline under
// ctx, so a failed response write cancels the attempt mid-flight. alias (nil
// for none) names the served result's L1 entry from then on.
func (s *Server) runBatchQuery(ctx context.Context, r *http.Request, idx int, q query, alias []byte) batchLine {
	start := time.Now()
	backoff := batchSaturatedBackoff
	for {
		actx, cancel := s.timeoutCtx(ctx)
		data, key, src, err := s.engine.do(actx, q, cluster.Forwarded(r))
		cancel()
		if err == nil {
			s.engine.Alias(key, alias)
			return batchLine{
				Index:      batchIndex(idx),
				Key:        key,
				Source:     src,
				DurationMs: float64(time.Since(start)) / float64(time.Millisecond),
				Result:     data,
			}
		}
		if !errors.Is(err, errSaturated) || ctx.Err() != nil {
			return batchLine{Index: batchIndex(idx), Error: err.Error()}
		}
		select {
		case <-time.After(backoff):
			if backoff *= 2; backoff > batchSaturatedBackoffMax {
				backoff = batchSaturatedBackoffMax
			}
		case <-ctx.Done():
			return batchLine{Index: batchIndex(idx), Error: "batch canceled while retrying saturated item"}
		}
	}
}
