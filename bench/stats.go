package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// summary describes one timing distribution the way the benchmark
// reports every timing: median, quartiles, the highest percentile the
// sample supports, and the sample count.
type summary struct {
	N             int
	P25, P50, P75 float64
	TopQ          float64 // highest supported percentile, e.g. 99 for p99
	Top           float64 // value at TopQ
}

// candidatePercentiles are the tail percentiles a summary may report,
// highest first.
var candidatePercentiles = []float64{99.99, 99.9, 99, 95, 90}

// supportedPercentile returns the highest candidate percentile that
// leaves at least ten samples beyond it, or 0 when even p90 does not
// (fewer than 100 samples).
func supportedPercentile(n int) float64 {
	for _, p := range candidatePercentiles {
		if float64(n)*(100-p)/100 >= 10-1e-9 {
			return p
		}
	}
	return 0
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// sorted xs; 0 for an empty sample.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count); 0 for an empty sample. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// quartiles returns the three cut points that split xs into four
// groups, by the same exclusive method as Python's
// statistics.quantiles(xs, n=4), which is how run-to-run spreads are
// judged. It needs at least two values; one value is its own quartiles.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	switch len(s) {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	ld := len(s)
	m := ld + 1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

// summarize builds a summary of xs. xs is not modified.
func summarize(xs []float64) summary {
	s := sortedCopy(xs)
	out := summary{N: len(s)}
	if len(s) == 0 {
		return out
	}
	out.P25, out.P50, out.P75 = quartiles(s)
	out.TopQ = supportedPercentile(len(s))
	if out.TopQ > 0 {
		out.Top = percentile(s, out.TopQ)
	}
	return out
}

// String renders the summary with its sample count beside every
// percentile, e.g. "p50=12.1 p25=11.9 p75=12.6 p99=20.4 n=4123".
func (s summary) String() string {
	if s.TopQ == 0 {
		return fmt.Sprintf("p50=%.4g p25=%.4g p75=%.4g n=%d (too few samples for a tail percentile)", s.P50, s.P25, s.P75, s.N)
	}
	return fmt.Sprintf("p50=%.4g p25=%.4g p75=%.4g p%g=%.4g n=%d", s.P50, s.P25, s.P75, s.TopQ, s.Top, s.N)
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// reservoir keeps a uniform random sample of at most its capacity of
// the values added (Algorithm R), so a long window's timings fit in a
// fixed amount of memory allocated before the window starts, and the
// benchmark's own bookkeeping does not grow the heap it measures.
type reservoir struct {
	vals []float64
	seen int
	rng  *rand.Rand
}

func newReservoir(capacity int, seed int64) *reservoir {
	return &reservoir{vals: make([]float64, 0, capacity), rng: rand.New(rand.NewSource(seed))}
}

func (r *reservoir) add(v float64) {
	r.seen++
	if len(r.vals) < cap(r.vals) {
		r.vals = append(r.vals, v)
		return
	}
	if j := r.rng.Int63n(int64(r.seen)); j < int64(len(r.vals)) {
		r.vals[j] = v
	}
}
