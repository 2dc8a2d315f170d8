package whatif

import (
	"encoding/json"
	"testing"

	"beyondft/internal/eval"
	"beyondft/internal/golden"
)

const reportGoldenPath = "testdata/report_golden.json"

// TestWhatifReportGolden pins cold (cache-less) sweeps bit for bit: the full
// JSON report — every scenario's throughput, bound, phases and ε at full
// float precision, the histogram, the frontier, the counters and the
// routing-Dijkstra count — for one family of each kind. A change to the ladder, the warm-start mapping or the
// solver that moves any of it must come with a salt bump and a reason.
// Regenerate with `go test ./internal/whatif -run ReportGolden -update`.
func TestWhatifReportGolden(t *testing.T) {
	got := map[string]json.RawMessage{}
	for name := range goldenCases {
		got[name] = goldenReport(t, name, 0)
	}
	if *golden.Update {
		golden.Write(t, reportGoldenPath, got, "")
		return
	}
	want := readReportGolden(t)
	for name, g := range got {
		if string(g) != string(want[name]) {
			t.Errorf("%s: report changed\nwant %s\ngot  %s", name, want[name], g)
		}
	}
}

var goldenCases = map[string]struct {
	fam    FamilySpec
	ladder Ladder
}{
	"single-link":   {FamilySpec{Kind: "single-link"}, Ladder{}},
	"single-switch": {FamilySpec{Kind: "single-switch"}, Ladder{TopK: 3}},
	"k-link-sample": {FamilySpec{Kind: "k-link-sample", K: 3, Samples: 10, Seed: 5}, Ladder{CoarseEps: 0.3, FineEps: 0.1, TopK: 4}},
	"rack-add":      {FamilySpec{Kind: "rack-add", Racks: 2, Degree: 3, Samples: 5}, Ladder{TopK: 2}},
}

// goldenReport runs one golden case cold at the given worker count (0: the
// default) and returns its golden bytes.
func goldenReport(t *testing.T, name string, workers int) json.RawMessage {
	t.Helper()
	c := goldenCases[name]
	g := testFabric(16)
	scens, err := Scenarios(g, c.fam)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Evaluate(g, testComms(16), scens, Options{Ladder: c.ladder, Workers: workers})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	data, err := json.Marshal(struct {
		Report     *Report `json:"report"`
		Iterations int64   `json:"iterations"` // routing Dijkstras: not in the report's JSON
	}{rep, rep.Iterations})
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func readReportGolden(t *testing.T) map[string]json.RawMessage {
	t.Helper()
	var want map[string]json.RawMessage
	golden.Read(t, reportGoldenPath, &want)
	return want
}

// TestWhatifCoarseDualsBounded: the coarse sweep holds duals for its running
// worst-TopK only, so when it ends at most TopK rungs still carry theirs —
// not one per scenario — and those include every scenario the fine rung goes
// on to promote: a promoted scenario whose duals were gone would have its
// coarse solve run again and charged, and the report, iterations included,
// would part from the golden, which was recorded by an engine that kept every
// scenario's duals until it returned.
func TestWhatifCoarseDualsBounded(t *testing.T) {
	want := readReportGolden(t)
	defer func() { debugCoarseSwept = nil }()
	bounded := false // some case solved more scenarios than it may promote
	for name, c := range goldenCases {
		topK := c.ladder.TopK
		if topK == 0 {
			topK = 8
		}
		for _, workers := range []int{1, 4} {
			solved, held := 0, 0
			debugCoarseSwept = func(coarse []eval.Rung) {
				for _, r := range coarse {
					if r.Iterations > 0 {
						solved++
					}
					if r.Duals != nil {
						held++
					}
				}
			}
			got := goldenReport(t, name, workers)
			if held != min(solved, topK) {
				t.Errorf("%s at %d workers: %d of %d coarse rungs hold duals after the coarse sweep, want %d", name, workers, held, solved, min(solved, topK))
			}
			bounded = bounded || solved > topK
			if string(got) != string(want[name]) {
				t.Errorf("%s at %d workers: report differs from the keep-everything golden\nwant %s\ngot  %s", name, workers, want[name], got)
			}
		}
	}
	if !bounded {
		t.Fatal("no golden case solves more scenarios than its TopK: the test bounds nothing")
	}
}
