package main

import (
	"strings"
	"testing"
)

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// Expected values are statistics.quantiles(xs, n=4), the method the
	// run-to-run spread is judged by.
	cases := []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{7}, 7, 7, 7},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{1, 2, 3, 4}, 1.25, 2.5, 3.75},
		{[]float64{5, 5, 5}, 5, 5, 5},
		{[]float64{10, 20, 30, 40, 50, 60, 70}, 20, 40, 60},
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 5.5, 8.25},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.xs)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
		if m := median(c.xs); m != c.q2 {
			t.Errorf("median(%v) = %v, want %v", c.xs, m, c.q2)
		}
	}
	if q1, q2, q3 := quartiles(nil); q1 != 0 || q2 != 0 || q3 != 0 {
		t.Errorf("quartiles(nil) = %v %v %v", q1, q2, q3)
	}
}

func TestMedianDoesNotReorderInput(t *testing.T) {
	xs := []float64{3, 1, 2}
	median(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatalf("median reordered its input: %v", xs)
	}
}

func TestSupportedPercentileLeavesTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		want float64
	}{
		{0, 0}, {1, 0}, {99, 0}, {100, 90}, {199, 90}, {200, 95},
		{999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9}, {100000, 99.99},
	}
	for _, c := range cases {
		if got := supportedPercentile(c.n); got != c.want {
			t.Errorf("supportedPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{{0.1, 1}, {50, 5}, {90, 9}, {99, 10}, {100, 10}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(p%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile(empty) = %v", got)
	}
	same := []float64{4, 4, 4, 4}
	if got := percentile(same, 99); got != 4 {
		t.Errorf("all-equal p99 = %v", got)
	}
}

func TestSummaryPrintsSampleCountBesideEveryPercentile(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	s := summarize(xs)
	if s.N != 1000 || s.TopQ != 99 || s.Top != 990 || s.P50 != 500.5 {
		t.Fatalf("summary = %+v", s)
	}
	if out := s.String(); !strings.Contains(out, "p99=990") || !strings.Contains(out, "n=1000") {
		t.Errorf("String() = %q", out)
	}
	small := summarize([]float64{2, 2, 2})
	if small.P50 != 2 || small.TopQ != 0 || !strings.Contains(small.String(), "n=3 (too few samples") {
		t.Errorf("small summary = %+v %q", small, small.String())
	}
}
