// Package gaussiancube_bench is the benchmark harness: one benchmark per
// paper table/figure (reporting the figure's headline values as custom
// metrics, so `go test -bench . -benchmem` regenerates the evaluation),
// plus ablation benchmarks for the design choices called out in
// DESIGN.md.
package gaussiancube_bench

import (
	"math/rand"
	"testing"

	"gaussiancube/internal/core"
	"gaussiancube/internal/exchanged"
	"gaussiancube/internal/experiments"
	"gaussiancube/internal/fault"
	"gaussiancube/internal/gc"
	"gaussiancube/internal/graph"
	"gaussiancube/internal/gtree"
	"gaussiancube/internal/hypercube"
	"gaussiancube/internal/simnet"
)

// BenchmarkFig1Construct measures Gaussian Graph construction (the
// Figure 1 topologies, scaled up to alpha = 10).
func BenchmarkFig1Construct(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for alpha := uint(1); alpha <= 10; alpha++ {
			gtree.New(alpha)
		}
	}
}

// BenchmarkFig2Diameter regenerates the Figure 2 series (tree diameter
// for alpha = 1..14) and reports the top diameter.
func BenchmarkFig2Diameter(b *testing.B) {
	var last float64
	for i := 0; i < b.N; i++ {
		f := experiments.Figure2(14)
		pts := f.Series[0].Points
		last = pts[len(pts)-1].Y
	}
	b.ReportMetric(last, "diam(T_2^14)")
}

// BenchmarkFig4Bound regenerates the Figure 4 series (log2 tolerable
// faults, alpha = 1..4, n to 25).
func BenchmarkFig4Bound(b *testing.B) {
	var t25 float64
	for i := 0; i < b.N; i++ {
		f := experiments.Figure4(25)
		s := f.Series[0] // alpha=1
		t25 = s.Points[len(s.Points)-1].Y
	}
	b.ReportMetric(t25, "log2T(25,a1)")
}

// simPoint runs one simulation configuration for the figure benches.
func simPoint(b *testing.B, n, alpha uint, faults int) *simnet.Stats {
	b.Helper()
	cfg := simnet.Config{
		N: n, Alpha: alpha, Arrival: 0.01, GenCycles: 60, Seed: 1,
	}
	if faults > 0 {
		cube := gc.New(n, alpha)
		fs := fault.NewSet(cube)
		fs.InjectRandomNodes(rand.New(rand.NewSource(99)), faults)
		cfg.Faults = fs
	}
	stats, err := simnet.Run(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return stats
}

// BenchmarkFig5Latency measures the fault-free latency point at the top
// of the paper's Figure 5 sweep (n = 12 here for benchmark runtime),
// reporting avg latency per modulus.
func BenchmarkFig5Latency(b *testing.B) {
	var m1, m4 float64
	for i := 0; i < b.N; i++ {
		m1 = simPoint(b, 12, 0, 0).AvgLatency()
		m4 = simPoint(b, 12, 2, 0).AvgLatency()
	}
	b.ReportMetric(m1, "latM1")
	b.ReportMetric(m4, "latM4")
}

// BenchmarkFig6Throughput reports log2 throughput at two dimensions,
// showing the Figure 6 growth.
func BenchmarkFig6Throughput(b *testing.B) {
	var lo, hi float64
	for i := 0; i < b.N; i++ {
		lo = simPoint(b, 8, 1, 0).Log2Throughput()
		hi = simPoint(b, 12, 1, 0).Log2Throughput()
	}
	b.ReportMetric(lo, "log2thr_n8")
	b.ReportMetric(hi, "log2thr_n12")
}

// BenchmarkFig7FaultLatency reports the Figure 7 comparison: GC(11,2)
// latency without and with one faulty node.
func BenchmarkFig7FaultLatency(b *testing.B) {
	var clean, faulty float64
	for i := 0; i < b.N; i++ {
		clean = simPoint(b, 11, 1, 0).AvgLatency()
		faulty = simPoint(b, 11, 1, 1).AvgLatency()
	}
	b.ReportMetric(clean, "lat_clean")
	b.ReportMetric(faulty, "lat_1fault")
}

// BenchmarkFig8FaultThroughput reports the Figure 8 comparison.
func BenchmarkFig8FaultThroughput(b *testing.B) {
	var clean, faulty float64
	for i := 0; i < b.N; i++ {
		clean = simPoint(b, 11, 1, 0).Log2Throughput()
		faulty = simPoint(b, 11, 1, 1).Log2Throughput()
	}
	b.ReportMetric(clean, "thr_clean")
	b.ReportMetric(faulty, "thr_1fault")
}

// BenchmarkMultipathSaturation runs the DESIGN.md §15 multipath
// campaign — GC(9, 4), 16-tree stripe, four hot source frames with
// every tree-edge link faulted — and reports each arm's saturation
// throughput and committed fault-detour total. The striped arm's
// headline claim (higher saturation, fewer detours) ships in
// BENCH_10.json through these metrics.
func BenchmarkMultipathSaturation(b *testing.B) {
	var baseThr, stripedThr float64
	var baseDet, stripedDet int
	for i := 0; i < b.N; i++ {
		rep, err := experiments.Multipath(9, 2, 16, 4,
			[]float64{0.3, 0.6, 1.0}, 200, []int64{1, 2}, 12)
		if err != nil {
			b.Fatal(err)
		}
		baseThr, stripedThr = rep.SaturationThroughput()
		baseDet, stripedDet = rep.TotalDetours()
	}
	b.ReportMetric(baseThr, "thr_1tree")
	b.ReportMetric(stripedThr, "thr_16tree")
	b.ReportMetric(float64(baseDet), "detours_1tree")
	b.ReportMetric(float64(stripedDet), "detours_16tree")
}

// --- Ablation benches (design choices from DESIGN.md) ---

// BenchmarkAblationPC compares the paper's PC path construction with
// generic BFS on the Gaussian Tree.
func BenchmarkAblationPC(b *testing.B) {
	tr := gtree.New(14)
	rng := rand.New(rand.NewSource(3))
	pairs := make([][2]gtree.Node, 256)
	for i := range pairs {
		pairs[i] = [2]gtree.Node{
			gtree.Node(rng.Intn(tr.Nodes())), gtree.Node(rng.Intn(tr.Nodes())),
		}
	}
	b.Run("PC", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p := pairs[i%len(pairs)]
			tr.PC(p[0], p[1])
		}
	})
	b.Run("BFS", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p := pairs[i%len(pairs)]
			graph.ShortestPath(tr, p[0], p[1])
		}
	})
	b.Run("LCA", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p := pairs[i%len(pairs)]
			tr.Path(p[0], p[1])
		}
	})
}

// BenchmarkAblationCT compares the paper's CT closed traversal with the
// Euler-tour reference.
func BenchmarkAblationCT(b *testing.B) {
	tr := gtree.New(12)
	rng := rand.New(rand.NewSource(4))
	dests := make([]gtree.Node, 16)
	for i := range dests {
		dests[i] = gtree.Node(rng.Intn(tr.Nodes()))
	}
	b.Run("CT", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tr.CT(0, dests)
		}
	})
	b.Run("Euler", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tr.CTEuler(0, dests)
		}
	})
}

// BenchmarkAblationSubstrate compares the two intra-class fault-tolerant
// hypercube substrates end to end on faulty GC routing.
func BenchmarkAblationSubstrate(b *testing.B) {
	cube := gc.New(12, 2)
	fs := fault.NewSet(cube)
	fs.InjectRandomLinks(rand.New(rand.NewSource(5)), 12)
	pairs := make([][2]gc.NodeID, 256)
	rng := rand.New(rand.NewSource(6))
	for i := range pairs {
		pairs[i] = [2]gc.NodeID{
			gc.NodeID(rng.Intn(cube.Nodes())), gc.NodeID(rng.Intn(cube.Nodes())),
		}
	}
	for _, sub := range []struct {
		name string
		s    core.Substrate
	}{
		{"Adaptive", core.SubstrateAdaptive},
		{"Safety", core.SubstrateSafety},
		{"Vector", core.SubstrateVector},
	} {
		r := core.NewRouter(cube, core.WithFaults(fs), core.WithSubstrate(sub.s))
		b.Run(sub.name, func(b *testing.B) {
			b.ReportAllocs()
			extra := 0
			n := 0
			for i := 0; i < b.N; i++ {
				p := pairs[i%len(pairs)]
				res, err := r.Route(p[0], p[1])
				if err != nil {
					b.Fatal(err)
				}
				extra += res.Extra()
				n++
			}
			b.ReportMetric(float64(extra)/float64(n), "extra-hops/route")
		})
	}
}

// BenchmarkRoutePlanning measures raw FFGCR route computation
// throughput (fault-free, the hot path of the simulator).
func BenchmarkRoutePlanning(b *testing.B) {
	cube := gc.New(14, 2)
	r := core.NewRouter(cube)
	rng := rand.New(rand.NewSource(7))
	pairs := make([][2]gc.NodeID, 1024)
	for i := range pairs {
		pairs[i] = [2]gc.NodeID{
			gc.NodeID(rng.Intn(cube.Nodes())), gc.NodeID(rng.Intn(cube.Nodes())),
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pairs[i%len(pairs)]
		if _, err := r.Route(p[0], p[1]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRouteInto measures the allocation-free variant of the hot
// path: same workload as BenchmarkRoutePlanning minus the Result
// envelope (expected ~0 allocs/op under -benchmem).
func BenchmarkRouteInto(b *testing.B) {
	cube := gc.New(14, 2)
	r := core.NewRouter(cube)
	rng := rand.New(rand.NewSource(7))
	pairs := make([][2]gc.NodeID, 1024)
	for i := range pairs {
		pairs[i] = [2]gc.NodeID{
			gc.NodeID(rng.Intn(cube.Nodes())), gc.NodeID(rng.Intn(cube.Nodes())),
		}
	}
	dst := make([]gc.NodeID, 0, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pairs[i%len(pairs)]
		var err error
		if dst, err = r.RouteInto(dst[:0], p[0], p[1]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRouteCache measures the simulator's sharded CLOCK route cache
// on a repeating pair workload (the permutation-traffic case it serves).
func BenchmarkRouteCache(b *testing.B) {
	cube := gc.New(14, 2)
	r := core.NewRouter(cube)
	rng := rand.New(rand.NewSource(7))
	pairs := make([][2]gc.NodeID, 1024)
	for i := range pairs {
		pairs[i] = [2]gc.NodeID{
			gc.NodeID(rng.Intn(cube.Nodes())), gc.NodeID(rng.Intn(cube.Nodes())),
		}
	}
	cache := simnet.NewRouteCache(simnet.DefaultRouteCacheCapacity)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pairs[i%len(pairs)]
		if _, ok := cache.Get(p[0], p[1]); ok {
			continue
		}
		res, err := r.Route(p[0], p[1])
		if err != nil {
			b.Fatal(err)
		}
		cache.Put(p[0], p[1], res.Path)
	}
}

// BenchmarkFREH measures fault-tolerant exchanged-hypercube routing,
// with the walk buffer and search state reused across routes.
func BenchmarkFREH(b *testing.B) {
	e := exchanged.New(6, 6)
	f := exchanged.NewFaultSet()
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 4; i++ {
		f.AddNode(exchanged.Node(rng.Intn(e.Nodes())))
	}
	pairs := make([][2]exchanged.Node, 256)
	for i := range pairs {
		for {
			r0 := exchanged.Node(rng.Intn(e.Nodes()))
			d0 := exchanged.Node(rng.Intn(e.Nodes()))
			if !f.NodeFaulty(r0) && !f.NodeFaulty(d0) {
				pairs[i] = [2]exchanged.Node{r0, d0}
				break
			}
		}
	}
	var sc graph.WalkScratch
	var walk []exchanged.Node
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pairs[i%len(pairs)]
		var err error
		if walk, err = exchanged.AppendRoute(walk[:0], &sc, e, f, p[0], p[1]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSafetyLevels measures the distributed safety-level
// computation (the fault-status exchange of the paper's characteristic 4).
func BenchmarkSafetyLevels(b *testing.B) {
	c := hypercube.New(10)
	f := hypercube.NewFaultSet()
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 8; i++ {
		f.AddNode(hypercube.Node(rng.Intn(c.Nodes())))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hypercube.SafetyLevels(c, f)
	}
}
