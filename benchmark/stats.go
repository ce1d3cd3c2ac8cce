package main

import (
	"math"
	"sort"
)

// summary describes one metric's samples: the median with its
// quartiles, the extremes, the sample count, and the highest
// percentile the count supports (tailPercentile).
type summary struct {
	N                        int
	Min, Q1, Median, Q3, Max float64
	// TailPct is the highest percentile with at least ten samples
	// beyond it (0 when the count supports none); Tail is its value.
	TailPct float64
	Tail    float64
}

// quantile returns the q-quantile of sorted samples by the exclusive
// method (position q·(n+1), linear interpolation, clamped to the
// extremes) — the method Python's statistics.quantiles defaults to, so
// spreads computed here match the ones the benchmark's reviewers compute.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	pos := q*float64(n+1) - 1
	if pos <= 0 {
		return sorted[0]
	}
	if pos >= float64(n-1) {
		return sorted[n-1]
	}
	lo := int(pos)
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// median returns the middle sample (the mean of the middle two for an
// even count). The input need not be sorted and is not modified.
func median(samples []float64) float64 {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// tailPermille are the candidates tailPercentile picks from, in tenths of
// a percent so that the count beyond each is exact integer arithmetic.
var tailPermille = []int{500, 900, 950, 990, 999}

// tailPercentile returns the highest candidate percentile that still
// has at least ten of the n samples beyond it, or 0 when even the
// median has fewer (n < 20). A tail percentile resting on fewer samples
// is one outlier's value, not a property of the distribution.
func tailPercentile(n int) float64 {
	best := 0.0
	for _, p := range tailPermille {
		if n*(1000-p) >= 10*1000 {
			best = float64(p) / 10
		}
	}
	return best
}

// summarize computes a summary. The input need not be sorted and is not
// modified.
func summarize(samples []float64) summary {
	if len(samples) == 0 {
		return summary{}
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	out := summary{
		N:      len(s),
		Min:    s[0],
		Q1:     quantile(s, 0.25),
		Median: quantile(s, 0.5),
		Q3:     quantile(s, 0.75),
		Max:    s[len(s)-1],
	}
	if p := tailPercentile(len(s)); p > 0 {
		out.TailPct = p
		out.Tail = quantile(s, p/100)
	}
	return out
}

// spread is the interquartile range as a share of the median — the
// run-to-run noise figure every bound in BENCHMARK.json is held against.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / s.Median
}

// geomean returns the geometric mean of positive values, 0 for none.
func geomean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	var sum float64
	for _, v := range vals {
		sum += math.Log(v)
	}
	return math.Exp(sum / float64(len(vals)))
}
