package compare

import (
	"math"
	"testing"
)

// TestSummarizeMatchesPython pins the quartiles to the values Python's
// statistics.quantiles(xs, n=4) prints for the same data.
func TestSummarizeMatchesPython(t *testing.T) {
	cases := []struct {
		xs        []float64
		q1, m, q3 float64
	}{
		// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 5.5, 8.25},
		// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		// statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
		{[]float64{3, 1, 4, 1, 5}, 1, 3, 4.5},
	}
	for _, c := range cases {
		s := Summarize(c.xs)
		if math.Abs(s.Q1-c.q1) > 1e-12 || math.Abs(s.Median-c.m) > 1e-12 || math.Abs(s.Q3-c.q3) > 1e-12 {
			t.Errorf("Summarize(%v) = %+v, want %g %g %g", c.xs, s, c.q1, c.m, c.q3)
		}
	}
}

func TestJudge(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	faster := make([]float64, len(base))
	slower := make([]float64, len(base))
	for i, b := range base {
		faster[i] = b * 1.2
		slower[i] = b * 0.8
	}
	if got := Judge(base, faster, true, 0.05).Verdict; got != Gain {
		t.Errorf("20%% more throughput: %s, want %s", got, Gain)
	}
	if got := Judge(base, slower, true, 0.05).Verdict; got != Worse {
		t.Errorf("20%% less throughput: %s, want %s", got, Worse)
	}
	if got := Judge(base, base, true, 0.05).Verdict; got != NoWorse {
		t.Errorf("identical runs: %s, want %s", got, NoWorse)
	}
	if got := Judge(base, slower, false, 0.05).Verdict; got != Gain {
		t.Errorf("20%% lower latency: %s, want %s", got, Gain)
	}
	noisy := []float64{50, 150, 80, 120, 100, 60, 140, 90, 110, 100}
	if got := Judge(noisy, noisy, true, 0.05).Verdict; got != Unresolved {
		t.Errorf("spread wider than the bound: %s, want %s", got, Unresolved)
	}
}
