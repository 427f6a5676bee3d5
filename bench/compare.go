package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
)

// Verdicts of -compare.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

// judge compares a metric's value in b against a. It is regressed when b
// is worse than a by more than the bound (and, for setup_s, by more than
// setupFloorS as well), unresolved when either side's run-to-run spread
// is wider than the bound or the metric is missing on one side, and ok
// otherwise. delta is b's change relative to a, positive when worse.
func judge(def metricDef, a, b fileMetric, haveA, haveB bool) (delta float64, verdict string) {
	if !haveA || !haveB || a.Value == 0 {
		return 0, verdictUnresolved
	}
	delta = (b.Value - a.Value) / a.Value
	if def.Better == higher {
		delta = -delta
	}
	worse := delta > def.Bound
	if def.Name == "setup_s" {
		worse = worse && b.Value-a.Value > setupFloorS
	}
	switch {
	case a.Spread > def.Bound || b.Spread > def.Bound:
		return delta, verdictUnresolved
	case worse:
		return delta, verdictRegressed
	}
	return delta, verdictOK
}

func readResultFile(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// compareFiles prints one row per workload and end-to-end metric and
// reports whether any regressed.
func compareFiles(w io.Writer, pathA, pathB string) (regressed bool, err error) {
	a, err := readResultFile(pathA)
	if err != nil {
		return false, err
	}
	b, err := readResultFile(pathB)
	if err != nil {
		return false, err
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\ta\tb\tworse by\tbound\tverdict")
	for _, s := range specs {
		wa, wb := a.Workloads[s.Name], b.Workloads[s.Name]
		for _, def := range endToEnd {
			ma, okA := wa.EndToEnd[def.Name]
			mb, okB := wb.EndToEnd[def.Name]
			delta, verdict := judge(def, ma, mb, okA, okB)
			regressed = regressed || verdict == verdictRegressed
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%+.1f%%\t%.0f%%\t%s\n",
				s.Name, def.Name, ma.Value, mb.Value, delta*100, def.Bound*100, verdict)
		}
	}
	return regressed, tw.Flush()
}
