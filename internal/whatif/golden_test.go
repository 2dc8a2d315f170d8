package whatif

import (
	"encoding/json"
	"flag"
	"os"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/report_golden.json")

const reportGoldenPath = "testdata/report_golden.json"

// TestWhatifReportGolden pins cold (cache-less) sweeps bit for bit: the full
// JSON report — every scenario's throughput, bound, phases and ε at full
// float precision, the histogram, the frontier, the counters and the
// routing-Dijkstra count — for one family of each kind. A change to the ladder, the warm-start mapping or the
// solver that moves any of it must come with a salt bump and a reason.
// Regenerate with `go test ./internal/whatif -run ReportGolden -update`.
func TestWhatifReportGolden(t *testing.T) {
	g := testFabric(16)
	comms := testComms(16)
	cases := map[string]struct {
		fam    FamilySpec
		ladder Ladder
	}{
		"single-link":   {FamilySpec{Kind: "single-link"}, Ladder{}},
		"single-switch": {FamilySpec{Kind: "single-switch"}, Ladder{TopK: 3}},
		"k-link-sample": {FamilySpec{Kind: "k-link-sample", K: 3, Samples: 10, Seed: 5}, Ladder{CoarseEps: 0.3, FineEps: 0.1, TopK: 4}},
		"rack-add":      {FamilySpec{Kind: "rack-add", Racks: 2, Degree: 3, Samples: 5}, Ladder{TopK: 2}},
	}
	got := map[string]json.RawMessage{}
	for name, c := range cases {
		scens, err := Scenarios(g, c.fam)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := Evaluate(g, comms, scens, Options{Ladder: c.ladder})
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
		got[name] = data
	}
	if *updateGolden {
		data, err := json.Marshal(got)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(reportGoldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(reportGoldenPath)
	if err != nil {
		t.Fatalf("%v (generate with -update)", err)
	}
	var want map[string]json.RawMessage
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	for name, g := range got {
		if string(g) != string(want[name]) {
			t.Errorf("%s: report changed\nwant %s\ngot  %s", name, want[name], g)
		}
	}
}
