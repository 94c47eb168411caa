package core

import (
	"errors"
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

// TestFallbackBidirectionalCases checks the meet-in-the-middle fallback
// against graph.ShortestPath on the cases its design turns on: adjacent
// pairs, odd and even distances (the sides meet at unequal or equal
// depths), an isolated source or destination (each side's frontier
// empties first in turn), two components of unequal size in both
// orientations, link-only fault sets, and the wire-miss pairs that take
// the fallback. Every path must equal the oracle's exactly. One scratch
// serves every case, largest cube first, so state a search leaves
// behind would show in a later one.
func TestFallbackBidirectionalCases(t *testing.T) {
	sc := new(routeScratch)
	var ahead, tied, behind, odd, even int // ks > kd, ks == kd, ks < kd; path parity
	check := func(t *testing.T, r *Router, s, d gc.NodeID) bool {
		t.Helper()
		want := graph.ShortestPath(healthyView{cube: r.cube, faults: r.faults}, s, d)
		got, ok := r.appendFallback(nil, sc, s, d)
		if ok != (want != nil) || !slices.Equal(got, want) {
			t.Fatalf("GC(%d,2^%d) %d->%d: fallback (%v, %v), ShortestPath %v",
				r.cube.N(), r.cube.Alpha(), s, d, got, ok, want)
		}
		if !ok || s == d {
			return ok
		}
		ks, kd := sc.from.depth(), sc.to.depth()
		if ks+kd != len(want)-1 {
			t.Fatalf("%d->%d: sides met at depths %d+%d, path has %d hops", s, d, ks, kd, len(want)-1)
		}
		switch {
		case ks > kd:
			ahead++
		case ks == kd:
			tied++
		default:
			behind++
		}
		if len(want)%2 == 0 {
			odd++
		} else {
			even++
		}
		return true
	}
	pairs := func(r *Router, count int, seed int64) [][2]gc.NodeID {
		fs := r.faults
		if fs == nil {
			fs = fault.NewSet(r.cube)
		}
		return healthyPairs(r.cube, fs, count, seed)
	}

	t.Run("wire-miss", func(t *testing.T) {
		cube, fs := wireMissFaults()
		r := NewRouter(cube, WithFaults(fs))
		fallbacks := wireMissFallbackPairs(r, cube, fs)
		if len(fallbacks) == 0 {
			t.Fatal("no wire-miss pair takes the fallback")
		}
		for _, p := range fallbacks {
			if !check(t, r, p[0], p[1]) {
				t.Fatalf("%d->%d: wire-miss fallback pair unreachable", p[0], p[1])
			}
		}
	})

	t.Run("distances", func(t *testing.T) {
		cube := gc.New(11, 2)
		fs := fault.NewSet(cube)
		fs.InjectRandomNodes(rand.New(rand.NewSource(4)), 40)
		for _, r := range []*Router{NewRouter(cube), NewRouter(cube, WithFaults(fs.Freeze()))} {
			for _, p := range pairs(r, 64, 5) {
				check(t, r, p[0], p[1])
			}
		}
	})

	t.Run("adjacent", func(t *testing.T) {
		cube := gc.New(10, 3)
		fs := fault.NewSet(cube)
		fs.InjectRandomNodes(rand.New(rand.NewSource(6)), 30)
		r := NewRouter(cube, WithFaults(fs.Freeze()))
		for _, p := range pairs(r, 16, 7) {
			s := p[0]
			for _, dim := range cube.LinkDims(s) {
				check(t, r, s, s^1<<dim)
			}
		}
	})

	t.Run("isolated", func(t *testing.T) {
		cube := gc.New(10, 2)
		const s, d = gc.NodeID(5), gc.NodeID(1000)
		for _, end := range []gc.NodeID{s, d} {
			fs := fault.NewSet(cube)
			for _, dim := range cube.LinkDims(end) {
				fs.AddNode(end ^ 1<<dim)
			}
			r := NewRouter(cube, WithFaults(fs.Freeze()))
			if check(t, r, s, d) {
				t.Fatalf("%d->%d reachable with %d cut off", s, d, end)
			}
			emptied, other := &sc.from, &sc.to
			if end == d {
				emptied, other = other, emptied
			}
			if emptied.frontier() != 0 || other.frontier() == 0 {
				t.Fatalf("%d cut off: frontiers %d (its side) and %d, want its side to empty first",
					end, emptied.frontier(), other.frontier())
			}
			if visits := len(sc.from.visit) + len(sc.to.visit); visits > 2+len(cube.LinkDims(s)) {
				t.Fatalf("%d cut off: %d nodes visited, want the search to stop at its side's first level", end, visits)
			}
		}
	})

	t.Run("components", func(t *testing.T) {
		// Cut the 256 nodes with both top bits set from the other 768.
		cube := gc.New(10, 2)
		fs := fault.NewSet(cube)
		inSmall := func(v gc.NodeID) bool { return v>>8 == 3 }
		for v := gc.NodeID(0); int(v) < cube.Nodes(); v++ {
			for _, dim := range cube.LinkDims(v) {
				if inSmall(v) && !inSmall(v^1<<dim) {
					fs.AddLink(v, dim)
				}
			}
		}
		r := NewRouter(cube, WithFaults(fs.Freeze()))
		var cut, joined [2]int // by orientation: from the small side, into it
		for _, p := range pairs(r, 400, 8) {
			if inSmall(p[0]) == inSmall(p[1]) {
				if !check(t, r, p[0], p[1]) {
					t.Fatalf("%d->%d: unreachable inside one component", p[0], p[1])
				}
				continue
			}
			o := 0
			if inSmall(p[1]) {
				o = 1
			}
			if check(t, r, p[0], p[1]) {
				joined[o]++
			} else {
				cut[o]++
			}
		}
		if joined != [2]int{} || cut[0] == 0 || cut[1] == 0 {
			t.Fatalf("cross-component pairs: %v unreachable, %v reachable; want both orientations unreachable", cut, joined)
		}
	})

	t.Run("link-faults", func(t *testing.T) {
		rng := rand.New(rand.NewSource(9))
		for _, cube := range []*gc.Cube{gc.New(9, 2), gc.New(8, 0), gc.New(7, 3)} {
			fs := fault.NewSet(cube)
			for i := cube.Nodes(); i > 0; i-- {
				v := gc.NodeID(rng.Intn(cube.Nodes()))
				dims := cube.LinkDims(v)
				fs.AddLink(v, dims[rng.Intn(len(dims))])
			}
			r := NewRouter(cube, WithFaults(fs.Freeze()))
			for _, p := range pairs(r, 64, 10) {
				check(t, r, p[0], p[1])
			}
		}
	})

	if ahead == 0 || tied == 0 || behind == 0 || odd == 0 || even == 0 {
		t.Fatalf("coverage: meetings with ks>kd %d, ks==kd %d, ks<kd %d; odd %d, even %d; want all > 0",
			ahead, tied, behind, odd, even)
	}
}

// TestFallbackBoundPrunes checks what the distance bound buys on the
// pairs of BenchmarkRouteFaulty that take the fallback: the bounded
// search returns the unbounded search's path and, summed over the
// pairs, visits at most a quarter of the nodes.
func TestFallbackBoundPrunes(t *testing.T) {
	cube, fs := wireMissFaults()
	r := NewRouter(cube, WithFaults(fs))
	sc := new(routeScratch)
	var bounded, full int
	for _, p := range wireMissFallbackPairs(r, cube, fs) {
		want, ok := r.appendSearch(nil, sc, p[0], p[1], false)
		if !ok {
			t.Fatalf("%d->%d: wire-miss fallback pair unreachable", p[0], p[1])
		}
		full += sc.fbLog.visits
		got, _ := r.appendFallback(nil, sc, p[0], p[1])
		if !slices.Equal(got, want) {
			t.Fatalf("%d->%d: bounded path %v, unbounded %v", p[0], p[1], got, want)
		}
		bounded += sc.fbLog.visits
	}
	t.Logf("visits: bounded %d, unbounded %d", bounded, full)
	if 4*bounded > full {
		t.Fatalf("bounded search visited %d nodes, unbounded %d; want at most a quarter", bounded, full)
	}
}

// TestFallbackBoundRules drives the bounded search through each of its
// rules and checks every answer against graph.ShortestPath: a first
// pass that meets; a first pass that runs out after pruning and widens;
// a widened pass that meets past its bound and reruns; a last pass run
// unbounded; and unreachable pairs, proven by a side that pruned
// nothing or by the unbounded last pass. Seeded dense node faults on
// small cubes supply the cases, and a cut between two halves of a cube
// supplies partitioned pairs whose small side prunes. One scratch
// serves every case.
func TestFallbackBoundRules(t *testing.T) {
	sc := new(routeScratch)
	var exact, widened, overshoot, unboundedLast, cut, cutAfterPruning int
	check := func(t *testing.T, r *Router, s, d gc.NodeID) {
		t.Helper()
		want := graph.ShortestPath(healthyView{cube: r.cube, faults: r.faults}, s, d)
		got, ok := r.appendFallback(nil, sc, s, d)
		if ok != (want != nil) || !slices.Equal(got, want) {
			t.Fatalf("GC(%d,2^%d) %d->%d: fallback (%v, %v), ShortestPath %v",
				r.cube.N(), r.cube.Alpha(), s, d, got, ok, want)
		}
		fl := sc.fbLog
		if fl.overshoot && !fl.widened {
			t.Fatalf("%d->%d: the first pass, bounded by h(s, d), met past its bound", s, d)
		}
		switch {
		case !ok && fl.passes == 1:
			cut++
		case !ok:
			cutAfterPruning++
		case fl.passes == 1:
			exact++
		}
		if fl.widened {
			widened++
		}
		if fl.overshoot {
			overshoot++
		}
		if fl.unbounded && fl.passes > 1 {
			unboundedLast++
		}
	}

	// dense is GC(n, 2^alpha) with n in 6..12 and alpha in 1..3, under
	// 1/8 to 1/3 of its nodes faulty, all drawn from seed.
	dense := func(seed int64) *Router {
		rng := rand.New(rand.NewSource(seed))
		cube := gc.New(uint(6+rng.Intn(7)), uint(1+rng.Intn(3)))
		fs := fault.NewSet(cube)
		fs.InjectRandomNodes(rng, cube.Nodes()/8+rng.Intn(cube.Nodes()/5))
		return NewRouter(cube, WithFaults(fs.Freeze()))
	}

	t.Run("dense-faults", func(t *testing.T) {
		for seed := int64(1); seed <= 120; seed++ {
			r := dense(seed)
			for _, p := range healthyPairs(r.cube, r.faults, 60, seed) {
				check(t, r, p[0], p[1])
			}
		}
	})

	t.Run("overshoot", func(t *testing.T) {
		// A widened pass rarely meets past its bound: these are two of
		// the eight such pairs among the first 1000 healthy pairs of
		// seeds 1..129, and two where taking that meet's path would
		// not return ShortestPath's.
		for _, c := range []struct {
			seed int64
			s, d gc.NodeID
		}{{73, 1908, 595}, {112, 359, 681}} {
			r := dense(c.seed)
			check(t, r, c.s, c.d)
			if !sc.fbLog.overshoot {
				t.Fatalf("seed %d GC(%d,2^%d) %d->%d: no overshoot rerun (%+v)", c.seed, r.cube.N(), r.cube.Alpha(), c.s, c.d, sc.fbLog)
			}
		}
	})

	t.Run("partitioned", func(t *testing.T) {
		// Cut the 256 nodes with both top bits set from the other 768.
		cube := gc.New(10, 2)
		fs := fault.NewSet(cube)
		inSmall := func(v gc.NodeID) bool { return v>>8 == 3 }
		for v := gc.NodeID(0); int(v) < cube.Nodes(); v++ {
			for _, dim := range cube.LinkDims(v) {
				if inSmall(v) && !inSmall(v^1<<dim) {
					fs.AddLink(v, dim)
				}
			}
		}
		r := NewRouter(cube, WithFaults(fs.Freeze()))
		for _, p := range healthyPairs(cube, r.faults, 64, 11) {
			check(t, r, p[0], p[1])
		}
	})

	t.Logf("first pass met %d, widened %d, overshoot %d, unbounded last pass %d, unreachable %d at once and %d after pruning",
		exact, widened, overshoot, unboundedLast, cut, cutAfterPruning)
	if exact == 0 || widened == 0 || overshoot == 0 || unboundedLast == 0 || cut == 0 || cutAfterPruning == 0 {
		t.Fatal("coverage: want every rule exercised at least once")
	}
}

// FuzzFallbackAgainstShortestPath checks appendFallback against
// graph.ShortestPath on arbitrary cubes, fault populations (node and
// link faults at a fuzzed density) and endpoints, faulty ones included:
// the same path, or no path for both. One scratch serves every input.
func FuzzFallbackAgainstShortestPath(f *testing.F) {
	f.Add(uint8(8), uint8(2), int64(1), uint8(40), uint16(5), uint16(201))
	f.Add(uint8(6), uint8(0), int64(2), uint8(0), uint16(0), uint16(63))
	f.Add(uint8(10), uint8(3), int64(3), uint8(200), uint16(17), uint16(1000))
	f.Add(uint8(5), uint8(5), int64(4), uint8(90), uint16(3), uint16(3))
	sc := new(routeScratch)
	f.Fuzz(func(t *testing.T, nRaw, aRaw uint8, seed int64, density uint8, sRaw, dRaw uint16) {
		n := uint(2 + nRaw%11)
		cube := gc.New(n, uint(aRaw)%(n+1))
		s, d := gc.NodeID(int(sRaw)%cube.Nodes()), gc.NodeID(int(dRaw)%cube.Nodes())
		fs := fault.NewSet(cube)
		rng := rand.New(rand.NewSource(seed))
		for i := cube.Nodes() * int(density) / 512; i > 0; i-- {
			v := gc.NodeID(rng.Intn(cube.Nodes()))
			if rng.Intn(2) == 0 {
				fs.AddNode(v)
			} else {
				dims := cube.LinkDims(v)
				fs.AddLink(v, dims[rng.Intn(len(dims))])
			}
		}
		r := NewRouter(cube, WithFaults(fs))
		want := graph.ShortestPath(healthyView{cube: cube, faults: fs}, s, d)
		got, ok := r.appendFallback(nil, sc, s, d)
		if ok != (want != nil) || !slices.Equal(got, want) {
			t.Fatalf("GC(%d,2^%d) %d->%d: fallback (%v, %v), ShortestPath %v",
				n, cube.Alpha(), s, d, got, ok, want)
		}
	})
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

// wireMissFallbackPairs returns the pairs of BenchmarkRouteFaulty that
// take the BFS fallback on r, a router over the wire-miss pattern.
func wireMissFallbackPairs(r *Router, cube *gc.Cube, fs *fault.Set) [][2]gc.NodeID {
	var pairs [][2]gc.NodeID
	for _, p := range healthyPairs(cube, fs, 4096, 2) {
		if res, err := r.Route(p[0], p[1]); err == nil && res.UsedFallback {
			pairs = append(pairs, p)
		}
	}
	return pairs
}

// BenchmarkRouteFallback is RouteInto over only the pairs of
// BenchmarkRouteFaulty that take the BFS fallback.
func BenchmarkRouteFallback(b *testing.B) {
	cube, fs := wireMissFaults()
	r := NewRouter(cube, WithFaults(fs))
	pairs := wireMissFallbackPairs(r, cube, fs)
	if len(pairs) == 0 {
		b.Fatal("no fallback pairs")
	}
	benchRouteInto(b, r, pairs)
}

// BenchmarkRouteUnreachable is RouteInto on GC(14,2^2) with the
// wire-miss node faults, from uniform healthy sources to one healthy
// destination whose links are all faulty: the strategy gives up and
// the fallback must prove the pair unreachable.
func BenchmarkRouteUnreachable(b *testing.B) {
	cube := gc.New(14, 2)
	fs := fault.NewSet(cube)
	fs.InjectRandomNodes(rand.New(rand.NewSource(1)), 32)
	pairs := healthyPairs(cube, fs, 257, 3)
	d := pairs[0][1]
	for _, dim := range cube.LinkDims(d) {
		fs.AddLink(d, dim)
	}
	r := NewRouter(cube, WithFaults(fs.Freeze()))
	var srcs []gc.NodeID
	for _, p := range pairs[1:] {
		if p[0] != d {
			srcs = append(srcs, p[0])
		}
	}
	dst := make([]gc.NodeID, 0, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.RouteInto(dst[:0], srcs[i%len(srcs)], d); !errors.Is(err, ErrUnreachable) {
			b.Fatalf("%d->%d: err %v, want ErrUnreachable", srcs[i%len(srcs)], d, err)
		}
	}
}
