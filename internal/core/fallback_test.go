package core

import (
	"math/rand"
	"slices"
	"testing"

	"gaussiancube/internal/fault"
	"gaussiancube/internal/gc"
	"gaussiancube/internal/graph"
)

// TestFallbackMatchesShortestPath differentially checks the pooled BFS
// fallback against graph.ShortestPath over the healthy view of the same
// cube: for random GC(n, 2^alpha), n in 4..12, under random node and
// link faults, every pair — s == d, faulty endpoints and disconnected
// pairs included — gets exactly the oracle's path appended after the
// existing contents of dst, or no path where the oracle returns nil.
// One scratch serves every search of a trial, so state left over from
// one search must not leak into the next.
func TestFallbackMatchesShortestPath(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	var same, unreachable, found int
	for trial := 0; trial < 60; trial++ {
		n := uint(4 + rng.Intn(9))
		cube := gc.New(n, uint(rng.Intn(int(n)+1)))
		var fs *fault.Set
		if trial%10 != 0 { // every tenth trial routes fault-free
			fs = fault.NewSet(cube)
			fs.InjectRandomNodes(rng, rng.Intn(cube.Nodes()/4+1))
			for i := rng.Intn(cube.Nodes()/4 + 1); i > 0; i-- {
				v := gc.NodeID(rng.Intn(cube.Nodes()))
				dims := cube.LinkDims(v)
				fs.AddLink(v, dims[rng.Intn(len(dims))])
			}
		}
		r := NewRouter(cube, WithFaults(fs))
		sc := r.scratch.Get().(*routeScratch)
		oracle := healthyView{cube: cube, faults: fs}
		for i := 0; i < 24; i++ {
			s := gc.NodeID(rng.Intn(cube.Nodes()))
			d := gc.NodeID(rng.Intn(cube.Nodes()))
			if i == 0 {
				d = s
			}
			want := graph.ShortestPath(oracle, s, d)
			prefix := []gc.NodeID{7, 7}
			got, ok := r.appendFallback(slices.Clip(prefix), sc, s, d)
			if !slices.Equal(got[:2], prefix) {
				t.Fatalf("GC(%d,2^%d) %d->%d: dst prefix overwritten: %v", n, cube.Alpha(), s, d, got[:2])
			}
			if ok != (want != nil) || !slices.Equal(got[2:], want) {
				t.Fatalf("GC(%d,2^%d) %d->%d: fallback (%v, %v), ShortestPath %v",
					n, cube.Alpha(), s, d, got[2:], ok, want)
			}
			switch {
			case s == d:
				same++
			case want == nil:
				unreachable++
			default:
				found++
			}
		}
		r.scratch.Put(sc)
	}
	if same == 0 || unreachable == 0 || found == 0 {
		t.Fatalf("coverage: %d s==d, %d unreachable, %d found; want all > 0", same, unreachable, found)
	}
}

// wireMissFaults is the fault pattern of the serving benchmark's
// wire-miss workload: GC(14,2^2) with 32 node faults drawn from seed 1.
func wireMissFaults() (*gc.Cube, *fault.Set) {
	cube := gc.New(14, 2)
	fs := fault.NewSet(cube)
	fs.InjectRandomNodes(rand.New(rand.NewSource(1)), 32)
	return cube, fs.Freeze()
}

// healthyPairs draws n uniform pairs of healthy nodes.
func healthyPairs(cube *gc.Cube, fs *fault.Set, n int, seed int64) [][2]gc.NodeID {
	rng := rand.New(rand.NewSource(seed))
	pairs := make([][2]gc.NodeID, 0, n)
	for len(pairs) < n {
		s, d := gc.NodeID(rng.Intn(cube.Nodes())), gc.NodeID(rng.Intn(cube.Nodes()))
		if !fs.NodeFaulty(s) && !fs.NodeFaulty(d) {
			pairs = append(pairs, [2]gc.NodeID{s, d})
		}
	}
	return pairs
}

func benchRouteInto(b *testing.B, r *Router, pairs [][2]gc.NodeID) {
	dst := make([]gc.NodeID, 0, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pairs[i%len(pairs)]
		var err error
		if dst, err = r.RouteInto(dst[:0], p[0], p[1]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRouteFaulty is RouteInto over uniform healthy pairs on the
// wire-miss fault pattern, about 1.5% of which take the BFS fallback.
func BenchmarkRouteFaulty(b *testing.B) {
	cube, fs := wireMissFaults()
	benchRouteInto(b, NewRouter(cube, WithFaults(fs)), healthyPairs(cube, fs, 4096, 2))
}

// BenchmarkRouteFallback is RouteInto over only the pairs of
// BenchmarkRouteFaulty that take the BFS fallback.
func BenchmarkRouteFallback(b *testing.B) {
	cube, fs := wireMissFaults()
	r := NewRouter(cube, WithFaults(fs))
	var pairs [][2]gc.NodeID
	for _, p := range healthyPairs(cube, fs, 4096, 2) {
		if res, err := r.Route(p[0], p[1]); err == nil && res.UsedFallback {
			pairs = append(pairs, p)
		}
	}
	if len(pairs) == 0 {
		b.Fatal("no fallback pairs")
	}
	benchRouteInto(b, r, pairs)
}
