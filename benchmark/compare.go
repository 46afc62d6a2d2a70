package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// Verdicts of -compare, per workload × end-to-end metric.
const (
	verdictBetter     = "better"
	verdictSame       = "same"
	verdictWorse      = "worse"      // beyond the metric's bound
	verdictUnresolved = "unresolved" // run-to-run spread wider than the bound
)

func readReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}

// compareFiles prints one row per workload × end-to-end metric of two
// result files (a is the baseline) and reports whether any is worse.
func compareFiles(out io.Writer, pathA, pathB string) (worse bool, err error) {
	a, err := readReport(pathA)
	if err != nil {
		return false, err
	}
	b, err := readReport(pathB)
	if err != nil {
		return false, err
	}
	if a.Seed != b.Seed || a.Scale != b.Scale {
		fmt.Fprintf(out, "note: inputs differ (seed %d/%s vs %d/%s); exact metrics are not comparable\n",
			a.Seed, a.Scale, b.Seed, b.Scale)
	}
	fmt.Fprintf(out, "%-15s %-16s %13s %23s %13s %23s %8s  %s\n",
		"workload", "metric", "a.value", "a.q1..q3", "b.value", "b.q1..q3", "delta", "verdict")
	for _, wa := range a.Workloads {
		var wb *workloadReport
		for i := range b.Workloads {
			if b.Workloads[i].Name == wa.Name {
				wb = &b.Workloads[i]
			}
		}
		if wb == nil {
			fmt.Fprintf(out, "%-15s missing from %s\n", wa.Name, pathB)
			worse = true
			continue
		}
		for _, def := range resultMetrics() {
			ma, okA := wa.EndToEnd[def.Name]
			mb, okB := wb.EndToEnd[def.Name]
			if !okA || !okB {
				continue
			}
			v := verdict(def, ma, mb)
			worse = worse || v == verdictWorse
			fmt.Fprintf(out, "%-15s %-16s %13.6g %23s %13.6g %23s %+7.2f%%  %s\n",
				wa.Name, def.Name, ma.Value, quartiles(ma), mb.Value, quartiles(mb),
				100*ratio(mb.Value-ma.Value, ma.Value), v)
		}
	}
	return worse, nil
}

func quartiles(m metricValue) string { return fmt.Sprintf("%.5g..%.5g", m.Q1, m.Q3) }

// verdict judges b against baseline a. Exact metrics compare exactly.
// For the rest, whether each side's figure is settled is checked before
// the figures are compared: an unsettled pair cannot show a regression
// of the bound's size, and is reported unresolved, never "same". A gain
// is only called when the figures differ by more than the baseline's
// own interquartile range.
func verdict(def metricDef, a, b metricValue) string {
	gain := b.Value - a.Value // positive = b better
	if def.Better == "lower" {
		gain = -gain
	}
	if def.Exact {
		switch {
		case gain < 0:
			return verdictWorse
		case gain > 0:
			return verdictBetter
		}
		return verdictSame
	}
	if max(unsettled(def, a), unsettled(def, b)) > def.Bound {
		return verdictUnresolved
	}
	switch base := math.Abs(a.Value); {
	case -gain > def.Bound*base+def.Slack:
		return verdictWorse
	case gain > math.Abs(a.Q3-a.Q1):
		return verdictBetter
	}
	return verdictSame
}

// unsettled is how far, as a share of itself, a reported figure stands
// from the bulk of its own trials. A best-trial figure is settled when
// the better quartile of the run reaches close to it — several trials
// found the quiet host — and unsettled when it is a lone outlier. A
// median (setup_s) is judged by its interquartile range.
func unsettled(def metricDef, m metricValue) float64 {
	if def.Median {
		return m.spread()
	}
	near := m.Q3
	if def.Better == "lower" {
		near = m.Q1
	}
	return math.Abs(m.Value-near) / math.Abs(m.Value)
}
