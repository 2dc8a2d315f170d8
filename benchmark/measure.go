package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"beyondft/internal/stats"
)

// minBeyond is the fewest samples that must lie beyond a reported
// percentile; with fewer, the "percentile" is one or two outliers.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile (0 < p < 100) of the
// ascending samples and how many samples lie beyond it. ok is false — and
// the value must not be reported — when fewer than minBeyond do.
func percentile(sorted []float64, p float64) (v float64, beyond int, ok bool) {
	n := len(sorted)
	if n == 0 {
		return 0, 0, false
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	beyond = n - rank
	return sorted[rank-1], beyond, beyond >= minBeyond
}

// median returns the middle of the samples (mean of the two middle ones
// for an even count). No samples give 0, not NaN: an absent layer metric
// reads 0 and every value must survive JSON.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return stats.Percentile(xs, 50)
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// noisy reports calibration spins more than 10% apart: something else had
// the CPU for part of the interval between them.
func noisy(a, b float64) bool {
	return max(a, b) > 1.10*min(a, b)
}

// section is what one measured region cost the process.
type section struct {
	Wall       time.Duration
	Mallocs    uint64
	Bytes      uint64
	LiveHeapMB float64
	GCCycles   uint32
	GCPauseMs  float64
	// CalibMs are the calibration spins taken right before and right after
	// the region, on as many processors as the region keeps busy.
	CalibMs [2]float64
}

// calibReferenceMs is what calibSpin reads on the quiet 2-core reference
// box, at either width. Rates are scaled by spin ÷ reference, so they read
// "per second of a machine running at reference speed".
const calibReferenceMs = 78

// speed is how slow the machine ran around the section, relative to the
// reference reading: 1.25 means the fixed spin took 25% longer. It is read
// from the faster of the two spins: a slow phase that spans the section
// slows both, while a spin that alone is slow saw a phase begin or end, or
// shared the processors with work the program deferred past its section
// (cluster_serve's replica pushes made the second spin 50% slower), and
// scaling by it would credit the program with speed it does not have.
func (s section) speed() float64 {
	return min(s.CalibMs[0], s.CalibMs[1]) / calibReferenceMs
}

// measure runs f between two MemStats readings and two calibration spins.
// threads is how many processors f keeps busy, and the spins run that
// wide: 1 around one client waiting on one mostly serial solve or around
// one event loop, every processor around the rest. The width has to match.
// A virtual CPU of the reference box that sat idle for a few seconds takes
// over a second of sustained load to come back to full speed, on some hosts
// and not on others, so an all-processor spin after a one-processor section
// read 150 ms or 78 ms while the section itself ran at full speed either
// way: cold_query's scaled rate came out at 7.4 or 3.9 ops/s for the same
// 3.9 per wall second.
//
// It collects before f so the section starts from a settled heap, and
// again after f — while everything f's caller still references (servers,
// simulators) is alive — to read the live heap. The generator's own
// allocations are inside the deltas: allocs_per_op is "what the process
// pays per op", generator included.
func measure(threads int, f func()) section {
	var a, b runtime.MemStats
	wake(threads)
	c0 := calibSpin(threads)
	runtime.GC()
	runtime.ReadMemStats(&a)
	t0 := time.Now()
	f()
	wall := time.Since(t0)
	runtime.ReadMemStats(&b)
	s := section{
		CalibMs:   [2]float64{c0, calibSpin(threads)},
		Wall:      wall,
		Mallocs:   b.Mallocs - a.Mallocs,
		Bytes:     b.TotalAlloc - a.TotalAlloc,
		GCCycles:  b.NumGC - a.NumGC,
		GCPauseMs: float64(b.PauseTotalNs-a.PauseTotalNs) / 1e6,
	}
	// Twice: a sync.Pool keeps its contents through one collection, and
	// what a pool happens to hold (the last solve's scratch buffers) is
	// not the live heap.
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&b)
	s.LiveHeapMB = float64(b.HeapAlloc) / (1 << 20)
	return s
}

// wake spins on `threads` processors until they run at full speed, or for
// three seconds. Set-up is mostly serial, and a section that starts on a
// virtual CPU still coming back from idle loses its first second to it:
// cluster_serve ran 7% slower whenever the spin before it read 150 ms. Full
// speed is read from the box itself: a round on all the processors takes
// about as long as the same round on one.
func wake(threads int) {
	if threads < 2 || smokeRun {
		return
	}
	one := spinRound(1)
	for began := time.Now(); time.Since(began) < 3*time.Second; {
		if spinRound(threads) < 1.3*one {
			return
		}
	}
}

// calibSpin times a fixed integer workload that touches no memory, on
// `threads` processors at once (the same work on each), so two readings
// differ only when something else took CPU from the process: a neighbour
// on the host, or a sibling thread. It is what the shared box's
// multi-minute slow phases are read from, so it reports the median of nine
// rounds: a preemption that hits one round is a blip, a phase slows them
// all. The box's speed also wanders by about 5% from one second to the
// next, and nine rounds repeat within 4% where three repeated within 7%;
// that wander goes straight into ops_per_s. The reading is scaled to three
// rounds, the length calibReferenceMs was taken at.
func calibSpin(threads int) float64 {
	rounds := make([]float64, 9)
	if smokeRun {
		rounds = rounds[:3]
	}
	for r := range rounds {
		rounds[r] = spinRound(threads)
	}
	return 3 * median(rounds)
}

// smokeRun is set (runOnce) on runs under a tenth of the work, which check
// plumbing and not timings: they spin three rounds and skip the wake-up.
var smokeRun bool

// spinRound is one round of the spin, in milliseconds.
func spinRound(threads int) float64 {
	t0 := time.Now()
	var wg sync.WaitGroup
	for p := 0; p < threads; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			x := uint64(88172645463325252)
			for i := 0; i < 40_000_000/3; i++ {
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
			}
			calibSink.Store(x)
		}()
	}
	wg.Wait()
	return float64(time.Since(t0)) / 1e6
}

var calibSink atomic.Uint64

// envRecord is the noise and provenance record written into every output.
type envRecord struct {
	GoVersion    string  `json:"go_version"`
	GOMAXPROCS   int     `json:"gomaxprocs"`
	NumCPU       int     `json:"nproc"`
	CPUModel     string  `json:"cpu_model"`
	Commit       string  `json:"commit"`
	Seed         int64   `json:"seed"`
	Seconds      float64 `json:"seconds"`
	Scale        float64 `json:"scale"`
	LoadAvg      string  `json:"loadavg"`
	CalibMsStart float64 `json:"calib_ms_start"`
	CalibMsEnd   float64 `json:"calib_ms_end"`
	Noisy        bool    `json:"noisy"`
}

func firstLineWith(path, prefix string) string {
	f, err := os.Open(path)
	if err != nil {
		return ""
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if line := sc.Text(); strings.HasPrefix(line, prefix) {
			return line
		}
	}
	return ""
}

func newEnvRecord(seed int64, seconds, scale float64) envRecord {
	e := envRecord{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   "unknown",
		Commit:     "unknown",
		Seed:       seed,
		Seconds:    seconds,
		Scale:      scale,
	}
	if line := firstLineWith("/proc/cpuinfo", "model name"); line != "" {
		if _, v, ok := strings.Cut(line, ":"); ok {
			e.CPUModel = strings.TrimSpace(v)
		}
	}
	if data, err := os.ReadFile("/proc/loadavg"); err == nil {
		e.LoadAvg = strings.TrimSpace(string(data))
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				e.Commit = s.Value
			}
		}
	}
	if e.Commit == "unknown" {
		e.Commit = gitHead()
	}
	return e
}

// gitHead resolves HEAD by reading .git directly; the benchmark also runs
// in checkouts that are not repositories, where it reports "unknown".
func gitHead() string {
	data, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "unknown"
	}
	head := strings.TrimSpace(string(data))
	if ref, ok := strings.CutPrefix(head, "ref: "); ok {
		if data, err = os.ReadFile(".git/" + ref); err != nil {
			return "unknown"
		}
		head = strings.TrimSpace(string(data))
	}
	return head
}
