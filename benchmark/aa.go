package main

import (
	"fmt"
	"io"
)

// aaRow is one end-to-end metric on one workload over the repeated runs of
// the same code: its median, quartiles and spread (IQR over median) set
// against the declared bound.
type aaRow struct {
	Workload string    `json:"workload"`
	Metric   string    `json:"metric"`
	Values   []float64 `json:"values"`
	Median   float64   `json:"median"`
	Q1       float64   `json:"q1"`
	Q3       float64   `json:"q3"`
	Spread   float64   `json:"spread"`
	Bound    float64   `json:"bound"`
	// Verdict is "steady" (spread under a third of the bound), "within"
	// (under the bound), or "demote": a metric that cannot be held at its
	// bound belongs in the layer table, not behind a looser bound.
	Verdict string `json:"verdict"`
}

// quartiles matches Python's statistics.quantiles(values, n=4) (the
// exclusive method), which is what the driver computes.
func quartiles(values []float64) (q1, q2, q3 float64) {
	s := sortedCopy(values)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	q := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

func aaReport(runs []runRecord) []aaRow {
	var rows []aaRow
	for wi, w := range runs[0].Workloads {
		for _, m := range endToEnd {
			row := aaRow{Workload: w.Workload, Metric: m.Name, Bound: m.Bound}
			for _, run := range runs {
				row.Values = append(row.Values, run.Workloads[wi].EndToEnd[m.Name].Value)
			}
			row.Q1, row.Median, row.Q3 = quartiles(row.Values)
			if row.Median != 0 {
				row.Spread = (row.Q3 - row.Q1) / row.Median
			}
			switch {
			case m.Name == "setup_s":
				row.Verdict = "exempt" // set-up is held by its median only
			case row.Spread <= m.Bound/3:
				row.Verdict = "steady"
			case row.Spread <= m.Bound:
				row.Verdict = "within"
			default:
				row.Verdict = "demote"
			}
			rows = append(rows, row)
		}
	}
	return rows
}

func printAA(out io.Writer, rows []aaRow) {
	fmt.Fprintf(out, "\n== A/A over %d runs (spread = (q3-q1)/median)\n", len(rows[0].Values))
	for _, r := range rows {
		fmt.Fprintf(out, "%-14s %-20s median %14.6g  q1 %14.6g  q3 %14.6g  spread %7.4f  bound %5.2f  %s\n",
			r.Workload, r.Metric, r.Median, r.Q1, r.Q3, r.Spread, r.Bound, r.Verdict)
	}
}
