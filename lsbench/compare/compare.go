// Package compare judges two sets of benchmark runs — a baseline and a
// candidate, one value per run — against a metric's bound, by the rule
// the benchmark's README states: a gain needs the candidate to win at
// least nine tenths of the pairs and the medians to differ by more than
// the baseline's own quartile spread; otherwise the candidate must not
// be worse than the baseline median by more than the bound, and a
// baseline spread wider than the bound leaves the metric unresolved.
package compare

import (
	"fmt"
	"math"
	"slices"
)

// Verdict is the judgement on one metric of one workload.
type Verdict string

// The verdicts.
const (
	Gain       Verdict = "gain"
	NoWorse    Verdict = "no worse within bound"
	Worse      Verdict = "worse beyond bound"
	Unresolved Verdict = "unresolved"
)

// Summary describes one side's runs.
type Summary struct {
	Q1, Median, Q3 float64
}

// Spread is the quartile distance as a share of the median.
func (s Summary) Spread() float64 {
	if s.Median == 0 {
		return math.Inf(1)
	}
	return (s.Q3 - s.Q1) / math.Abs(s.Median)
}

// Summarize returns the quartiles of xs as Python's
// statistics.quantiles(xs, n=4) computes them (the exclusive method).
// It needs at least one value.
func Summarize(xs []float64) Summary {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n == 1 {
		return Summary{s[0], s[0], s[0]}
	}
	at := func(k int) float64 {
		m := n + 1
		j := min(max(k*m/4, 1), n-1)
		delta := float64(k*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return Summary{at(1), at(2), at(3)}
}

// Result is the full comparison of one metric.
type Result struct {
	Base, Cand Summary
	// WinFrac is the share of pairs the candidate won; ties count for
	// neither side.
	WinFrac float64
	Verdict Verdict
}

func (r Result) String() string {
	return fmt.Sprintf("base %.6g [%.6g, %.6g]  cand %.6g [%.6g, %.6g]  wins %.2f  %s",
		r.Base.Median, r.Base.Q1, r.Base.Q3, r.Cand.Median, r.Cand.Q1, r.Cand.Q3, r.WinFrac, r.Verdict)
}

// Judge compares paired runs: base[i] and cand[i] ran as one pair.
// higher says which direction is better; bound is the share of the
// baseline median the candidate may lose before it counts as worse.
func Judge(base, cand []float64, higher bool, bound float64) Result {
	if len(base) != len(cand) || len(base) == 0 {
		panic("compare: need equally many base and candidate runs")
	}
	better := func(c, b float64) bool {
		if higher {
			return c > b
		}
		return c < b
	}
	wins := 0
	for i := range base {
		if better(cand[i], base[i]) {
			wins++
		}
	}
	r := Result{
		Base:    Summarize(base),
		Cand:    Summarize(cand),
		WinFrac: float64(wins) / float64(len(base)),
	}
	diff := r.Cand.Median - r.Base.Median
	if !higher {
		diff = -diff
	}
	// diff > 0: the candidate's median is better.
	baseIQR := r.Base.Q3 - r.Base.Q1
	allBetter := slices.Max(cand) < slices.Min(base)
	if higher {
		allBetter = slices.Min(cand) > slices.Max(base)
	}
	switch {
	case r.WinFrac >= 0.9 && diff > baseIQR:
		r.Verdict = Gain
	case r.Base.Spread() > bound && !allBetter:
		r.Verdict = Unresolved
	case -diff > bound*math.Abs(r.Base.Median):
		r.Verdict = Worse
	default:
		r.Verdict = NoWorse
	}
	return r
}
