package metrics

import (
	"encoding/json"
	"fmt"
	"sync/atomic"
)

// Merge folds o's observations into h. Both histograms must have the
// same shape (lo, width, bucket count); merging is exact for counts
// and min/max, and the Welford stream is combined with the standard
// parallel-variance formula, so merged statistics equal what one
// histogram fed all observations would report (up to floating-point
// association).
func (h *Histogram) Merge(o *Histogram) error {
	if o == nil {
		return nil
	}
	if h.lo != o.lo || h.width != o.width || len(h.buckets) != len(o.buckets) {
		return fmt.Errorf("metrics: merging histograms of different shapes ([%g,+%g)x%d vs [%g,+%g)x%d)",
			h.lo, h.width, len(h.buckets), o.lo, o.width, len(o.buckets))
	}
	for i, b := range o.buckets {
		h.buckets[i] += b
	}
	h.under += o.under
	h.over += o.over
	h.stream.Merge(&o.stream)
	return nil
}

// Merge folds o's observations into s (Chan et al. parallel update).
func (s *Stream) Merge(o *Stream) {
	if o == nil || o.n == 0 {
		return
	}
	if s.n == 0 {
		*s = *o
		return
	}
	n := s.n + o.n
	delta := o.mean - s.mean
	s.m2 += o.m2 + delta*delta*float64(s.n)*float64(o.n)/float64(n)
	s.mean += delta * float64(o.n) / float64(n)
	if o.min < s.min {
		s.min = o.min
	}
	if o.max > s.max {
		s.max = o.max
	}
	s.n = n
}

// histogramJSON is the export schema shared by Histogram and
// AtomicHistogram: enough to redraw the distribution and recompute
// every summary the package exposes.
type histogramJSON struct {
	Lo      float64 `json:"lo"`
	Width   float64 `json:"width"`
	Buckets []int64 `json:"buckets"`
	Under   int64   `json:"under"`
	Over    int64   `json:"over"`
	Count   int64   `json:"count"`
	Mean    float64 `json:"mean"`
	Min     float64 `json:"min"`
	Max     float64 `json:"max"`
	P50     float64 `json:"p50"`
	P99     float64 `json:"p99"`
}

// MarshalJSON implements json.Marshaler: bucket counts plus the
// summary statistics, the schema the CI bench artifact records.
func (h *Histogram) MarshalJSON() ([]byte, error) {
	return json.Marshal(histogramJSON{
		Lo:      h.lo,
		Width:   h.width,
		Buckets: h.buckets,
		Under:   h.under,
		Over:    h.over,
		Count:   h.stream.Count(),
		Mean:    h.stream.Mean(),
		Min:     h.stream.Min(),
		Max:     h.stream.Max(),
		P50:     h.Quantile(0.5),
		P99:     h.Quantile(0.99),
	})
}

// AtomicHistogram is the concurrent counterpart of Histogram: a
// fixed-bucket histogram whose Add is a single atomic increment, safe
// for any number of writers with no locking and no per-observation
// allocation. It trades the Welford stream for an exact sum (mean is
// still exact; variance is not tracked), which keeps the write path a
// pair of atomics. Snapshot and Merge move its counts into the plain
// Histogram world for reporting.
type AtomicHistogram struct {
	lo, width   float64
	buckets     []atomic.Int64
	under, over atomic.Int64
	count       atomic.Int64
	// sumMilli accumulates observations scaled by 1000 so the mean is
	// recoverable without a float CAS loop.
	sumMilli atomic.Int64
}

// NewAtomicHistogram creates an atomic histogram with the given bucket
// count over [lo, hi). It panics on a degenerate range, like
// NewHistogram.
func NewAtomicHistogram(lo, hi float64, buckets int) *AtomicHistogram {
	if buckets < 1 || hi <= lo {
		panic("metrics: bad histogram shape")
	}
	return &AtomicHistogram{
		lo:      lo,
		width:   (hi - lo) / float64(buckets),
		buckets: make([]atomic.Int64, buckets),
	}
}

// index returns x's bucket: -1 below the range, Buckets() at or above
// it.
func (h *AtomicHistogram) index(x float64) int {
	switch {
	case x < h.lo:
		return -1
	case x >= h.lo+h.width*float64(len(h.buckets)):
		return len(h.buckets)
	}
	return int((x - h.lo) / h.width)
}

// Add records one observation. Safe for concurrent use.
func (h *AtomicHistogram) Add(x float64) {
	switch i := h.index(x); {
	case i < 0:
		h.under.Add(1)
	case i == len(h.buckets):
		h.over.Add(1)
	default:
		h.buckets[i].Add(1)
	}
	h.count.Add(1)
	h.sumMilli.Add(int64(x * 1000))
}

// BufferBuckets is the widest histogram a HistogramBuffer can stage for.
const BufferBuckets = 64

// HistogramBuffer stages observations for an AtomicHistogram on one
// goroutine, so a burst of observations costs plain increments plus one
// Flush instead of three atomics each. Its bucket array is fixed-size:
// a buffer is a plain value that needs no allocation, and its zero
// value is empty. It serves histograms of at most BufferBuckets
// buckets; staging for a wider one panics.
type HistogramBuffer struct {
	buckets [BufferBuckets]int64
	// first and end bound the staged buckets, [first, end); end is 0
	// while none is, so a Flush passes over only the buckets in use.
	first, end         int
	under, over, count int64
	sumMilli           int64
}

// Stage records x into b, bucketed by h's shape, without touching h.
// b is h's alone until the Flush that publishes it.
func (h *AtomicHistogram) Stage(b *HistogramBuffer, x float64) {
	switch i := h.index(x); {
	case i < 0:
		b.under++
	case i == len(h.buckets):
		b.over++
	default:
		switch {
		case b.end == 0:
			b.first, b.end = i, i+1
		case i < b.first:
			b.first = i
		case i >= b.end:
			b.end = i + 1
		}
		b.buckets[i]++
	}
	b.count++
	b.sumMilli += int64(x * 1000)
}

// Flush publishes everything staged in b into h in one pass, one atomic
// add per non-empty bucket plus the count and the sum, and empties b,
// which must hold only h's observations. Safe for concurrent use with
// h's other writers and readers; a concurrent Snapshot may see part of
// a flush, as with concurrent Adds.
func (h *AtomicHistogram) Flush(b *HistogramBuffer) {
	if b.count == 0 {
		return
	}
	staged := b.buckets[b.first:b.end]
	for i, n := range staged {
		if n != 0 {
			h.buckets[b.first+i].Add(n)
		}
	}
	clear(staged)
	if b.under != 0 {
		h.under.Add(b.under)
	}
	if b.over != 0 {
		h.over.Add(b.over)
	}
	h.count.Add(b.count)
	if b.sumMilli != 0 {
		h.sumMilli.Add(b.sumMilli)
	}
	b.first, b.end = 0, 0
	b.under, b.over, b.count, b.sumMilli = 0, 0, 0, 0
}

// Count returns the number of observations.
func (h *AtomicHistogram) Count() int64 { return h.count.Load() }

// Sum returns the (millis-quantized) total of the observations.
func (h *AtomicHistogram) Sum() float64 { return float64(h.sumMilli.Load()) / 1000 }

// Mean returns the running mean (0 with no observations).
func (h *AtomicHistogram) Mean() float64 {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return h.Sum() / float64(n)
}

// Bucket returns the count of bucket i.
func (h *AtomicHistogram) Bucket(i int) int64 { return h.buckets[i].Load() }

// Buckets returns the bucket count.
func (h *AtomicHistogram) Buckets() int { return len(h.buckets) }

// Snapshot copies the current counts into a plain Histogram of the
// same shape (whose stream carries count and mean but no variance —
// per-bucket counts, quantiles and JSON export are exact). Concurrent
// Adds during a snapshot may straddle it; each observation lands in
// either the snapshot or the next one, never both.
func (h *AtomicHistogram) Snapshot() *Histogram {
	out := &Histogram{
		lo:      h.lo,
		width:   h.width,
		buckets: make([]int64, len(h.buckets)),
	}
	for i := range h.buckets {
		out.buckets[i] = h.buckets[i].Load()
	}
	out.under = h.under.Load()
	out.over = h.over.Load()
	n := h.count.Load()
	out.stream = Stream{n: n, mean: 0}
	if n > 0 {
		out.stream.mean = h.Sum() / float64(n)
	}
	return out
}

// MergeAtomic folds o's counts into h (both atomic, same shape).
func (h *AtomicHistogram) MergeAtomic(o *AtomicHistogram) error {
	if o == nil {
		return nil
	}
	if h.lo != o.lo || h.width != o.width || len(h.buckets) != len(o.buckets) {
		return fmt.Errorf("metrics: merging atomic histograms of different shapes")
	}
	for i := range o.buckets {
		h.buckets[i].Add(o.buckets[i].Load())
	}
	h.under.Add(o.under.Load())
	h.over.Add(o.over.Load())
	h.count.Add(o.count.Load())
	h.sumMilli.Add(o.sumMilli.Load())
	return nil
}

// MarshalJSON implements json.Marshaler via a snapshot.
func (h *AtomicHistogram) MarshalJSON() ([]byte, error) {
	return h.Snapshot().MarshalJSON()
}
