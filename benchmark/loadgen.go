package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// clock lets the open-loop scheduler run on a fake clock in tests.
type clock interface {
	Now() time.Time
	SleepUntil(t time.Time)
}

// realClock is the wall clock. Its zero value is ready to use; share one
// between the goroutines of a generator.
type realClock struct {
	// spin is held while a goroutine spins out the end of a sleep. A
	// goroutine in a Gosched loop never reaches the scheduler's network
	// poll, so if every processor spun at once, replies would wait for
	// sysmon's 10 ms poll; one spinner at a time leaves the rest free.
	spin sync.Mutex
}

func (*realClock) Now() time.Time { return time.Now() }

// timerSlack is how late a sleeping goroutine may wake on an idle
// processor: the runtime parks in epoll_wait, whose timeout has millisecond
// resolution. An open-loop generator that is a millisecond late on a 40 µs
// request measures its own timer, so the last stretch is a yielding spin.
const timerSlack = 1500 * time.Microsecond

func (c *realClock) SleepUntil(t time.Time) {
	if d := time.Until(t) - timerSlack; d > 0 {
		time.Sleep(d)
	}
	c.spin.Lock()
	for time.Now().Before(t) {
		runtime.Gosched()
	}
	c.spin.Unlock()
}

// Reply sources, as small integers so a shot stays 16 bytes.
const (
	srcNone uint8 = iota
	srcL1
	srcL2
	srcComputed
	srcCoalesced
	srcPeer
)

var sourceCodes = map[string]uint8{"l1": srcL1, "l2": srcL2, "computed": srcComputed, "coalesced": srcCoalesced, "peer": srcPeer}

// Shot statuses that are not HTTP codes.
const (
	statusTransportErr int16 = 0
	statusUnsent       int16 = -1 // open loop: still queued when the rung closed
)

// shot is one request's outcome. Latency is measured from the due time in
// an open loop (so a stall charges the requests queued behind it) and from
// the send in a closed loop.
type shot struct {
	LatMs    float32
	LagMs    float32 // open loop: send − due
	ServerMs float32 // envelope duration_ms, when parsed
	Status   int16
	Source   uint8
}

// closedLoop drives n requests from `clients` goroutines that each send
// their next request only after the previous reply: a slow system receives
// less load. send fills Status/Source/ServerMs; closedLoop fills LatMs.
func closedLoop(clients, n int, send func(client, i int) shot) []shot {
	shots := make([]shot, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				t0 := time.Now()
				s := send(c, i)
				s.LatMs = float32(float64(time.Since(t0)) / 1e6)
				shots[i] = s
			}
		}(c)
	}
	wg.Wait()
	return shots
}

// openLoop sends request i no earlier than start+due[i] on one of `conns`
// connections, whatever happened to earlier requests: independent users do
// not wait for each other. A request whose turn comes only after `cutoff`
// is never sent and counts as refused (the backlog the rung left behind).
// due must be ascending.
func openLoop(clk clock, due []time.Duration, conns int, cutoff time.Duration, send func(conn, i int) shot) []shot {
	shots := make([]shot, len(due))
	start := clk.Now()
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(due) {
					return
				}
				dueAt := start.Add(due[i])
				if clk.Now().Sub(start) > cutoff {
					shots[i] = shot{Status: statusUnsent}
					continue
				}
				clk.SleepUntil(dueAt)
				sent := clk.Now()
				s := send(c, i)
				s.LagMs = float32(float64(sent.Sub(dueAt)) / 1e6)
				s.LatMs = float32(float64(clk.Now().Sub(dueAt)) / 1e6)
				shots[i] = s
			}
		}(c)
	}
	wg.Wait()
	return shots
}

// envelope is the part of beyondftd's query response the benchmark reads.
type envelope struct {
	Key        string          `json:"key"`
	Source     string          `json:"source"`
	DurationMs float64         `json:"duration_ms"`
	Result     json.RawMessage `json:"result"`
}

// httpConn is one persistent connection: its own transport with a single
// idle slot, so "nproc clients" really means nproc sockets.
type httpConn struct{ c *http.Client }

func newHTTPConn() *httpConn {
	return &httpConn{c: &http.Client{
		Timeout:   60 * time.Second,
		Transport: &http.Transport{MaxIdleConns: 1, MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1},
	}}
}

func (h *httpConn) close() { h.c.CloseIdleConnections() }

// post sends one JSON body. With env == nil the reply is drained unparsed
// (status only), which keeps the generator's share of a warm request small.
func (h *httpConn) post(url string, body []byte, env *envelope) shot {
	resp, err := h.c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return shot{Status: statusTransportErr}
	}
	defer resp.Body.Close()
	s := shot{Status: int16(resp.StatusCode)}
	if env == nil || resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, resp.Body) // reply already judged by status
		return s
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil || json.Unmarshal(data, env) != nil {
		return shot{Status: statusTransportErr}
	}
	s.Source = sourceCodes[env.Source]
	s.ServerMs = float32(env.DurationMs)
	return s
}

// latencies returns the ascending latencies of the shots accepted by keep.
func latencies(shots []shot, keep func(shot) bool) []float64 {
	out := make([]float64, 0, len(shots))
	for _, s := range shots {
		if keep(s) {
			out = append(out, float64(s.LatMs))
		}
	}
	sort.Float64s(out)
	return out
}

func ok200(s shot) bool { return s.Status == http.StatusOK }
