package metrics

import (
	"encoding/json"
	"math"
	"math/rand"
	"sync"
	"testing"
)

func TestStreamMergeMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var whole Stream
	var a, b Stream
	for i := 0; i < 1000; i++ {
		x := rng.NormFloat64()*3 + 10
		whole.Add(x)
		if i%2 == 0 {
			a.Add(x)
		} else {
			b.Add(x)
		}
	}
	a.Merge(&b)
	if a.Count() != whole.Count() {
		t.Fatalf("merged count %d, want %d", a.Count(), whole.Count())
	}
	for _, c := range []struct {
		name      string
		got, want float64
	}{
		{"mean", a.Mean(), whole.Mean()},
		{"variance", a.Variance(), whole.Variance()},
		{"min", a.Min(), whole.Min()},
		{"max", a.Max(), whole.Max()},
	} {
		if math.Abs(c.got-c.want) > 1e-9*math.Max(1, math.Abs(c.want)) {
			t.Fatalf("merged %s = %v, want %v", c.name, c.got, c.want)
		}
	}
	// Merging into an empty stream copies.
	var empty Stream
	empty.Merge(&whole)
	if empty.Count() != whole.Count() || empty.Mean() != whole.Mean() {
		t.Fatalf("merge into empty lost data")
	}
}

func TestHistogramMergeMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	whole := NewHistogram(0, 100, 20)
	a := NewHistogram(0, 100, 20)
	b := NewHistogram(0, 100, 20)
	for i := 0; i < 2000; i++ {
		x := rng.Float64()*120 - 10 // exercise under/over too
		whole.Add(x)
		if i%3 == 0 {
			a.Add(x)
		} else {
			b.Add(x)
		}
	}
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < whole.Buckets(); i++ {
		if a.Bucket(i) != whole.Bucket(i) {
			t.Fatalf("bucket %d: merged %d, want %d", i, a.Bucket(i), whole.Bucket(i))
		}
	}
	if a.Under() != whole.Under() || a.Over() != whole.Over() {
		t.Fatalf("under/over: merged %d/%d, want %d/%d", a.Under(), a.Over(), whole.Under(), whole.Over())
	}
	if a.Stats().Count() != whole.Stats().Count() {
		t.Fatalf("count: merged %d, want %d", a.Stats().Count(), whole.Stats().Count())
	}
	if math.Abs(a.Quantile(0.5)-whole.Quantile(0.5)) > 1e-9 {
		t.Fatalf("median drifted after merge")
	}
}

func TestHistogramMergeRejectsShapeMismatch(t *testing.T) {
	a := NewHistogram(0, 100, 20)
	b := NewHistogram(0, 100, 10)
	if err := a.Merge(b); err == nil {
		t.Fatal("merged histograms of different shapes")
	}
}

func TestAtomicHistogramConcurrentAddsAreExact(t *testing.T) {
	const goroutines = 8
	const perG = 5000
	h := NewAtomicHistogram(0, 64, 16)
	locals := make([]*Histogram, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		locals[g] = NewHistogram(0, 64, 16)
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g) + 1))
			for i := 0; i < perG; i++ {
				x := float64(rng.Intn(80) - 8)
				h.Add(x)
				locals[g].Add(x)
			}
		}(g)
	}
	wg.Wait()

	merged := NewHistogram(0, 64, 16)
	for _, l := range locals {
		if err := merged.Merge(l); err != nil {
			t.Fatal(err)
		}
	}
	snap := h.Snapshot()
	if snap.Stats().Count() != int64(goroutines*perG) {
		t.Fatalf("count %d, want %d", snap.Stats().Count(), goroutines*perG)
	}
	for i := 0; i < snap.Buckets(); i++ {
		if snap.Bucket(i) != merged.Bucket(i) {
			t.Fatalf("bucket %d: atomic %d, per-goroutine sum %d", i, snap.Bucket(i), merged.Bucket(i))
		}
	}
	if snap.Under() != merged.Under() || snap.Over() != merged.Over() {
		t.Fatalf("under/over mismatch: %d/%d vs %d/%d", snap.Under(), snap.Over(), merged.Under(), merged.Over())
	}
	if math.Abs(snap.Stats().Mean()-merged.Stats().Mean()) > 1e-3 {
		t.Fatalf("mean drifted: atomic %v, merged %v", snap.Stats().Mean(), merged.Stats().Mean())
	}
}

// TestAtomicHistogramFlushMatchesAdd: goroutines that stage into their
// own buffers and flush every few observations leave the histogram
// exactly as direct Adds of the same observations would, out-of-range
// values and the sum included.
func TestAtomicHistogramFlushMatchesAdd(t *testing.T) {
	const goroutines = 8
	const perG = 5000
	direct := NewAtomicHistogram(0, 64, 16)
	staged := NewAtomicHistogram(0, 64, 16)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g) + 1))
			var b HistogramBuffer
			for i := 0; i < perG; i++ {
				x := float64(rng.Intn(80)-8) + 0.25
				direct.Add(x)
				staged.Stage(&b, x)
				if i%37 == 0 {
					staged.Flush(&b)
				}
			}
			staged.Flush(&b)
			if b != (HistogramBuffer{}) {
				t.Error("Flush left the buffer non-empty")
			}
		}(g)
	}
	wg.Wait()
	for i := 0; i < direct.Buckets(); i++ {
		if direct.Bucket(i) != staged.Bucket(i) {
			t.Fatalf("bucket %d: staged %d, direct %d", i, staged.Bucket(i), direct.Bucket(i))
		}
	}
	d, s := direct.Snapshot(), staged.Snapshot()
	if d.Under() != s.Under() || d.Over() != s.Over() || direct.Count() != staged.Count() || direct.Sum() != staged.Sum() {
		t.Fatalf("staged under/over/count/sum %d/%d/%d/%v, direct %d/%d/%d/%v",
			s.Under(), s.Over(), staged.Count(), staged.Sum(), d.Under(), d.Over(), direct.Count(), direct.Sum())
	}
}

func TestAtomicHistogramMergeAtomic(t *testing.T) {
	a := NewAtomicHistogram(0, 10, 5)
	b := NewAtomicHistogram(0, 10, 5)
	a.Add(1)
	b.Add(1)
	b.Add(9)
	if err := a.MergeAtomic(b); err != nil {
		t.Fatal(err)
	}
	if a.Count() != 3 || a.Bucket(0) != 2 || a.Bucket(4) != 1 {
		t.Fatalf("merge wrong: count=%d buckets=[%d .. %d]", a.Count(), a.Bucket(0), a.Bucket(4))
	}
	if err := a.MergeAtomic(NewAtomicHistogram(0, 10, 4)); err == nil {
		t.Fatal("merged atomic histograms of different shapes")
	}
}

func TestHistogramJSONRoundTrip(t *testing.T) {
	h := NewHistogram(0, 8, 4)
	for _, x := range []float64{1, 1, 3, 5, 9} {
		h.Add(x)
	}
	raw, err := json.Marshal(h)
	if err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		Lo      float64 `json:"lo"`
		Width   float64 `json:"width"`
		Buckets []int64 `json:"buckets"`
		Over    int64   `json:"over"`
		Count   int64   `json:"count"`
		Mean    float64 `json:"mean"`
	}
	if err := json.Unmarshal(raw, &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded.Count != 5 || decoded.Over != 1 || len(decoded.Buckets) != 4 {
		t.Fatalf("bad JSON export: %s", raw)
	}
	if decoded.Buckets[0] != 2 || decoded.Buckets[1] != 1 || decoded.Buckets[2] != 1 {
		t.Fatalf("bucket counts wrong: %s", raw)
	}
	if math.Abs(decoded.Mean-3.8) > 1e-9 {
		t.Fatalf("mean %v, want 3.8", decoded.Mean)
	}
	// The atomic variant exports the same schema.
	ah := NewAtomicHistogram(0, 8, 4)
	ah.Add(2)
	raw2, err := json.Marshal(ah)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw2, &decoded); err != nil || decoded.Count != 1 {
		t.Fatalf("atomic JSON export wrong: %s (%v)", raw2, err)
	}
}
