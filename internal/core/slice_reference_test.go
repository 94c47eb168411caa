package core

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"gaussiancube/internal/bitutil"
	"gaussiancube/internal/exchanged"
	"gaussiancube/internal/fault"
	"gaussiancube/internal/gc"
	"gaussiancube/internal/graph"
	"gaussiancube/internal/gtree"
	"gaussiancube/internal/hypercube"
	"gaussiancube/internal/repair"
	"gaussiancube/internal/trace"
)

// The reference engines: in-slice routing as the planner did it in
// subcube coordinates, and FREH on a blocked tree-edge crossing as it
// ran in EH labels, mapping every hop and every fault probe through the
// Theorem 3 and Theorem 5 embeddings (GEECOf, Pair, FromGC, ToGC,
// GCDimOf, and the coordinate views below). The production
// fixClassDims and crossTreeEdge route on GC labels restricted to
// dimension masks; the tests below require the two to agree path for
// path and event for event.

// geecView adapts a fault set to the hypercube.Faults oracle of one
// GEEC(k, t) slice: subcube dimension i is GC dimension Dims()[i].
type geecView struct {
	set  *fault.Set
	geec *gc.GEEC
}

func (v *geecView) NodeFaulty(x hypercube.Node) bool {
	return v.set.NodeFaulty(v.geec.ToGC(x))
}

func (v *geecView) LinkFaulty(x hypercube.Node, dim uint) bool {
	return v.set.LinkFaulty(v.geec.ToGC(x), v.geec.Dims()[dim])
}

// pairView adapts a fault set to the exchanged.Faults oracle of one
// tree-edge subgraph G(p, q, k) in EH labels.
type pairView struct {
	set  *fault.Set
	pair *gc.Pair
}

func (v *pairView) NodeFaulty(x exchanged.Node) bool {
	return v.set.NodeFaulty(v.pair.ToGC(x))
}

func (v *pairView) LinkFaulty(x exchanged.Node, dim uint) bool {
	return v.set.LinkFaulty(v.pair.ToGC(x), v.pair.GCDimOf(dim))
}

// refSliceScratch is the reference engines' working state. frehFailed
// counts the blocked crossings whose pair subgraph FREH could not
// route.
type refSliceScratch struct {
	view       geecView
	hcWalk     []hypercube.Node
	seen       map[hypercube.Node]bool
	stack      []uint
	ehWalk     []exchanged.Node
	ehScratch  graph.WalkScratch
	frehFailed int
}

// routeAdaptive is the adaptive substrate as it ran on the whole
// subcube Q_dim, with its own visited set: preferred dimensions lowest
// first, then spare dimensions 0..dim-1 not yet used as spares, else
// backtrack.
func (sc *refSliceScratch) routeAdaptive(q *hypercube.Cube, f hypercube.Faults, s, d hypercube.Node) ([]hypercube.Node, error) {
	usable := func(cur hypercube.Node, dim uint) bool {
		nb := cur ^ (1 << dim)
		return !f.LinkFaulty(cur, dim) && !f.NodeFaulty(nb) && !sc.seen[nb]
	}
	if f.NodeFaulty(s) || f.NodeFaulty(d) {
		return nil, hypercube.ErrFaultyEndpoint
	}
	walk := append(sc.hcWalk[:0], s)
	sc.seen = map[hypercube.Node]bool{s: true}
	stack := sc.stack[:0]
	var spareMask uint64
	pick := func(cur hypercube.Node) (uint, bool) {
		for dim := uint(0); dim < q.Dim(); dim++ {
			if bitutil.HasBit(uint64(cur^d), dim) && usable(cur, dim) {
				return dim, true
			}
		}
		for dim := uint(0); dim < q.Dim(); dim++ {
			if !bitutil.HasBit(uint64(cur^d)|spareMask, dim) && usable(cur, dim) {
				return dim, true
			}
		}
		return 0, false
	}
	for cur := s; cur != d; {
		if dim, ok := pick(cur); ok {
			if !bitutil.HasBit(uint64(cur^d), dim) {
				spareMask = bitutil.Set(spareMask, dim)
			}
			cur ^= 1 << dim
			sc.seen[cur] = true
			walk = append(walk, cur)
			stack = append(stack, dim)
			continue
		}
		if len(stack) == 0 {
			return nil, hypercube.ErrUnreachable
		}
		cur ^= 1 << stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		walk = append(walk, cur)
	}
	sc.stack = stack
	return walk, nil
}

// refFixClassDims flips mask's high dimensions inside cur's GEEC slice
// in subcube coordinates.
func (r *Router) refFixClassDims(sc *refSliceScratch, path []gc.NodeID, cur gc.NodeID, mask uint32) ([]gc.NodeID, gc.NodeID, error) {
	g := r.cube.GEECOf(cur)
	from := g.FromGC(cur)
	to := from
	for i, dim := range g.Dims() {
		if mask&(1<<dim) != 0 {
			to ^= 1 << uint(i)
		}
	}
	if to == from {
		return path, cur, nil
	}
	if r.faults == nil {
		for _, x := range hypercube.ECubeRoute(g.Cube(), from, to)[1:] {
			nxt := g.ToGC(x)
			if r.tracer != nil {
				r.emitHop(r.tracer, cur, nxt, uint(bitutil.LowestBit(uint64(cur^nxt))))
			}
			cur = nxt
			path = append(path, cur)
		}
		return path, cur, nil
	}
	if r.faults.NodeFaulty(g.ToGC(to)) {
		return path, cur, ErrUnreachable
	}
	sc.view = geecView{r.faults, g}
	q := g.Cube()
	var err error
	switch r.substrate {
	case SubstrateSafety:
		sc.hcWalk, _, err = hypercube.RouteSafety(q, &sc.view, from, to)
	case SubstrateVector:
		sc.hcWalk, _, err = hypercube.RouteSafetyVector(q, &sc.view, from, to)
	default:
		sc.hcWalk, err = sc.routeAdaptive(q, &sc.view, from, to)
	}
	if err != nil {
		return path, cur, ErrUnreachable
	}
	walk := sc.hcWalk
	detoured := r.tracer != nil && len(walk)-1 > bitutil.OnesCount(uint64(mask))
	if detoured {
		r.tracer.Emit(trace.Event{Kind: trace.KindDetourEnter, Cat: trace.CatA, Note: "geec-substrate"})
	}
	for _, x := range walk[1:] {
		nxt := g.ToGC(x)
		if r.tracer != nil {
			r.emitHop(r.tracer, cur, nxt, uint(bitutil.LowestBit(uint64(cur^nxt))))
		}
		cur = nxt
		path = append(path, cur)
	}
	if detoured {
		r.tracer.Emit(trace.Event{Kind: trace.KindDetourExit})
	}
	return path, cur, nil
}

// refPairOf returns the pair subgraph G(from, to, k) holding member:
// bit i of k is member's bit in the i-th lowest frame dimension.
func refPairOf(c *gc.Cube, from, to gtree.Node, member gc.NodeID) (*gc.Pair, error) {
	frame := bitutil.Mask(c.N()) &^ bitutil.Mask(c.Alpha()) &^ c.DimMask(from) &^ c.DimMask(to)
	var k uint64
	for i, m := uint(0), frame; m != 0; i, m = i+1, m&(m-1) {
		if uint64(member)&m&-m != 0 {
			k |= 1 << i
		}
	}
	return c.Pair(from, to, k)
}

// refCrossTreeEdge is crossTreeEdge for a single-tree top-level route
// with the reference FREH: a blocked crossing onto a live node routes
// the pair subgraph in EH labels through the pair view, and a crossing
// FREH cannot make takes the production tree-repair detour.
func (r *Router) refCrossTreeEdge(sc *routeScratch, ref *refSliceScratch, path []gc.NodeID, cur gc.NodeID, from, to gtree.Node, d gc.NodeID) ([]gc.NodeID, gc.NodeID, bool, error) {
	c := r.cube
	dim := c.Tree().EdgeDim(from, to)
	tgt := cur ^ (1 << dim)
	if r.faults == nil || (!r.faults.LinkFaulty(cur, dim) && !r.faults.NodeFaulty(tgt)) {
		if r.tracer != nil {
			r.emitHop(r.tracer, cur, tgt, dim)
		}
		return append(path, tgt), tgt, false, nil
	}
	if !r.faults.NodeFaulty(tgt) {
		if pair, err := refPairOf(c, from, to, cur); err == nil {
			ref.ehWalk, err = exchanged.AppendRoute(ref.ehWalk[:0], &ref.ehScratch, pair.EH(), &pairView{r.faults, pair}, pair.FromGC(cur), pair.FromGC(tgt))
			if err == nil {
				if r.tracer != nil {
					r.tracer.Emit(trace.Event{Kind: trace.KindDetourEnter, Cat: trace.CatB, Dim: uint8(dim), Note: "freh-pair"})
				}
				for _, x := range ref.ehWalk[1:] {
					nxt := pair.ToGC(x)
					if r.tracer != nil {
						r.emitHop(r.tracer, cur, nxt, uint(bitutil.LowestBit(uint64(cur^nxt))))
					}
					cur = nxt
					path = append(path, cur)
				}
				if r.tracer != nil {
					r.tracer.Emit(trace.Event{Kind: trace.KindDetourExit})
				}
				return path, cur, false, nil
			}
			ref.frehFailed++
		}
	}
	if r.repair == nil {
		return path, cur, false, ErrUnreachable
	}
	path, done, err := r.repairDetour(context.Background(), path, cur, to, dim, d, 0, sc.flow)
	return path, cur, done, err
}

// refExecute is execute with the reference engines: the same class
// walk, with every in-slice correction done by refFixClassDims and
// every tree-edge crossing by refCrossTreeEdge.
func (r *Router) refExecute(sc *routeScratch, ref *refSliceScratch, s, d gc.NodeID) ([]gc.NodeID, error) {
	p := &sc.plan
	path := []gc.NodeID{s}
	cur := s
	for i, k := range p.walk {
		for j, kc := range p.classes {
			if kc == k && p.masks[j] != 0 {
				var err error
				if path, cur, err = r.refFixClassDims(ref, path, cur, p.masks[j]); err != nil {
					return path, err
				}
				p.masks[j] = 0
				break
			}
		}
		if i+1 < len(p.walk) {
			var err error
			var done bool
			path, cur, done, err = r.refCrossTreeEdge(sc, ref, path, cur, k, p.walk[i+1], d)
			if err != nil || done {
				return path, err
			}
		}
	}
	if cur != d {
		return path, ErrUnreachable
	}
	return path, nil
}

// sliceOutcome is one engine's answer for a pair: the path, the error
// and the trace events the route emitted.
type sliceOutcome struct {
	path   []gc.NodeID
	err    error
	events []trace.Event
}

// diffSliceEngines routes s→d through execute and refExecute on a
// traced router and reports the first difference, and otherwise the
// agreed outcome.
func diffSliceEngines(r *Router, ring *trace.Ring, sc *routeScratch, ref *refSliceScratch, s, d gc.NodeID) (sliceOutcome, error) {
	run := func(exec func() ([]gc.NodeID, error)) sliceOutcome {
		ring.Reset()
		sc.flow = flow{tree: -1, tracer: r.tracer}
		r.planInto(&sc.plan, s, d)
		path, err := exec()
		return sliceOutcome{append([]gc.NodeID(nil), path...), err, ring.Events()}
	}
	got := run(func() ([]gc.NodeID, error) {
		return r.execute(context.Background(), sc, sc.path[:0], s, d, 0)
	})
	want := run(func() ([]gc.NodeID, error) { return r.refExecute(sc, ref, s, d) })
	if !reflect.DeepEqual(got, want) {
		return got, fmt.Errorf("%d->%d: GC-label engine\n  path %v err %v\n  events %v\nreference\n  path %v err %v\n  events %v",
			s, d, got.path, got.err, got.events, want.path, want.err, want.events)
	}
	return got, nil
}

// sliceDiffFaults returns a seeded random fault set on c: a few node
// faults anywhere, and link faults on the high (in-slice) dimensions,
// which are what force the slice substrates off their preferred
// dimensions.
func sliceDiffFaults(c *gc.Cube, rng *rand.Rand) *fault.Set {
	fs := fault.NewSet(c)
	nodes := c.Nodes()
	for i := 0; i < 1+rng.Intn(1+nodes/32); i++ {
		fs.AddNode(gc.NodeID(rng.Intn(nodes)))
	}
	for i := 0; i < 1+rng.Intn(1+nodes/4); i++ {
		v := gc.NodeID(rng.Intn(nodes))
		if dims := c.Dim(c.EndingClass(v)); len(dims) > 0 {
			fs.AddLink(v, dims[rng.Intn(len(dims))])
		}
	}
	return fs
}

// TestSliceRouteMatchesReference diffs the GC-label slice engine
// against the subcube-coordinate reference on every pair of
// TestFFGCRExhaustiveOptimal's cubes: fault-free, and under seeded
// random node and link fault sets with each of the three substrates.
// Paths, errors and the emitted trace events (hop dimensions, the
// A-category detour enter/exit) must be identical, and every substrate
// must take in-slice detours and meet strategy failures somewhere.
func TestSliceRouteMatchesReference(t *testing.T) {
	detours, failures := map[string]int{}, map[string]int{}
	substrates := []Substrate{SubstrateAdaptive, SubstrateSafety, SubstrateVector}
	for _, cfg := range []struct{ n, alpha uint }{
		{4, 0}, {5, 1}, {6, 1}, {6, 2}, {7, 2}, {7, 3}, {6, 6}, {5, 5}, {8, 2},
	} {
		c := gc.New(cfg.n, cfg.alpha)
		rng := rand.New(rand.NewSource(int64(cfg.n*16 + cfg.alpha)))
		// One fault-free router, then one faulted router per substrate,
		// each over its own seeded fault set.
		routers := []struct {
			name string
			opts []Option
		}{{name: "fault-free"}}
		for _, sub := range substrates {
			routers = append(routers, struct {
				name string
				opts []Option
			}{fmt.Sprintf("substrate %d", sub), []Option{WithFaults(sliceDiffFaults(c, rng)), WithSubstrate(sub)}})
		}
		for _, rt := range routers {
			ring := trace.NewRing(1 << 12)
			r := NewRouter(c, append(rt.opts, WithTracer(ring))...)
			sc, ref := new(routeScratch), new(refSliceScratch)
			nodes := gc.NodeID(c.Nodes())
			for s := gc.NodeID(0); s < nodes; s++ {
				for d := gc.NodeID(0); d < nodes; d++ {
					if r.faults != nil && (r.faults.NodeFaulty(s) || r.faults.NodeFaulty(d)) {
						continue
					}
					out, err := diffSliceEngines(r, ring, sc, ref, s, d)
					if err != nil {
						t.Fatalf("GC(%d,2^%d) %s: %v", cfg.n, cfg.alpha, rt.name, err)
					}
					if out.err != nil {
						failures[rt.name]++
					}
					for _, ev := range out.events {
						if ev.Kind == trace.KindDetourEnter && ev.Cat == trace.CatA {
							detours[rt.name]++
						}
					}
				}
			}
		}
	}
	for _, sub := range substrates {
		name := fmt.Sprintf("substrate %d", sub)
		t.Logf("%s: %d A-category slice detours, %d strategy failures", name, detours[name], failures[name])
		if detours[name] == 0 || failures[name] == 0 {
			t.Errorf("%s: the fault sets never detoured (%d) or failed (%d) inside a slice", name, detours[name], failures[name])
		}
	}
}

// FuzzSliceRouteMatchesReference drives the same differential from
// fuzzed cubes, fault sets, substrates and pairs.
func FuzzSliceRouteMatchesReference(f *testing.F) {
	f.Add(uint8(8), uint8(2), int64(1), uint8(0), uint32(3), uint32(200))
	f.Add(uint8(10), uint8(1), int64(7), uint8(1), uint32(0), uint32(1023))
	f.Add(uint8(9), uint8(3), int64(3), uint8(2), uint32(17), uint32(400))
	f.Fuzz(func(t *testing.T, n, alpha uint8, seed int64, sub uint8, s, d uint32) {
		nn := 2 + uint(n)%10
		c := gc.New(nn, uint(alpha)%(nn+1))
		fs := sliceDiffFaults(c, rand.New(rand.NewSource(seed)))
		src, dst := gc.NodeID(s)%gc.NodeID(c.Nodes()), gc.NodeID(d)%gc.NodeID(c.Nodes())
		if fs.NodeFaulty(src) || fs.NodeFaulty(dst) {
			return
		}
		ring := trace.NewRing(1 << 12)
		r := NewRouter(c, WithFaults(fs), WithSubstrate(Substrate(sub%3)), WithTracer(ring))
		if _, err := diffSliceEngines(r, ring, new(routeScratch), new(refSliceScratch), src, dst); err != nil {
			t.Fatal(err)
		}
	})
}

// frehDiffFaults returns a seeded random fault set on c: a few node
// faults anywhere, and link faults on tree-edge dimensions (below
// alpha), which block crossings and send them through FREH.
func frehDiffFaults(c *gc.Cube, rng *rand.Rand) *fault.Set {
	fs := fault.NewSet(c)
	nodes := c.Nodes()
	for i := 0; i < 1+rng.Intn(1+nodes/32); i++ {
		fs.AddNode(gc.NodeID(rng.Intn(nodes)))
	}
	for i := 0; i < 1+rng.Intn(1+nodes/4); i++ {
		v := gc.NodeID(rng.Intn(nodes))
		dims := c.LinkDims(v) // ascending: the tree-edge dimensions come first
		tree := 0
		for tree < len(dims) && dims[tree] < c.Alpha() {
			tree++
		}
		if tree > 0 {
			fs.AddLink(v, dims[rng.Intn(tree)])
		}
	}
	return fs
}

// frehDiffRouter returns a traced router over fs, with a tree-repair
// health map when withRepair is set.
func frehDiffRouter(c *gc.Cube, fs *fault.Set, ring *trace.Ring, withRepair bool) *Router {
	opts := []Option{WithFaults(fs), WithTracer(ring)}
	if withRepair {
		health := repair.NewHealth(c)
		health.Rebuild(fs)
		opts = append(opts, WithRepair(health))
	}
	return NewRouter(c, opts...)
}

// TestFREHMatchesReference diffs FREH on GC labels against the EH-label
// reference on every pair of TestFFGCRExhaustiveOptimal's cubes, under
// seeded node faults plus link faults on tree-edge dimensions, without
// and with tree repair. Paths, errors and trace events (the B-category
// freh-pair detour) must be identical, and somewhere FREH must both
// detour around a blocked crossing and fail to.
func TestFREHMatchesReference(t *testing.T) {
	detours, failures := 0, 0
	for _, cfg := range []struct{ n, alpha uint }{
		{4, 0}, {5, 1}, {6, 1}, {6, 2}, {7, 2}, {7, 3}, {6, 6}, {5, 5}, {8, 2},
	} {
		c := gc.New(cfg.n, cfg.alpha)
		rng := rand.New(rand.NewSource(int64(cfg.n*16 + cfg.alpha)))
		for _, withRepair := range []bool{false, true} {
			ring := trace.NewRing(1 << 12)
			r := frehDiffRouter(c, frehDiffFaults(c, rng), ring, withRepair)
			sc, ref := new(routeScratch), new(refSliceScratch)
			nodes := gc.NodeID(c.Nodes())
			for s := gc.NodeID(0); s < nodes; s++ {
				for d := gc.NodeID(0); d < nodes; d++ {
					if r.faults.NodeFaulty(s) || r.faults.NodeFaulty(d) {
						continue
					}
					out, err := diffSliceEngines(r, ring, sc, ref, s, d)
					if err != nil {
						t.Fatalf("GC(%d,2^%d) repair %v: %v", cfg.n, cfg.alpha, withRepair, err)
					}
					for _, ev := range out.events {
						if ev.Kind == trace.KindDetourEnter && ev.Cat == trace.CatB {
							detours++
						}
					}
				}
			}
			failures += ref.frehFailed
		}
	}
	t.Logf("%d FREH detours, %d FREH failures", detours, failures)
	if detours == 0 || failures == 0 {
		t.Errorf("the fault sets never sent a crossing through FREH (%d) or cut a pair subgraph (%d)", detours, failures)
	}
}

// FuzzFREHMatchesReference drives the same differential from fuzzed
// cubes, fault sets, repair settings and pairs.
func FuzzFREHMatchesReference(f *testing.F) {
	f.Add(uint8(8), uint8(2), int64(1), false, uint32(3), uint32(200))
	f.Add(uint8(10), uint8(1), int64(7), true, uint32(0), uint32(1023))
	f.Add(uint8(9), uint8(3), int64(3), false, uint32(17), uint32(400))
	f.Fuzz(func(t *testing.T, n, alpha uint8, seed int64, withRepair bool, s, d uint32) {
		nn := 2 + uint(n)%10
		c := gc.New(nn, uint(alpha)%(nn+1))
		fs := frehDiffFaults(c, rand.New(rand.NewSource(seed)))
		src, dst := gc.NodeID(s)%gc.NodeID(c.Nodes()), gc.NodeID(d)%gc.NodeID(c.Nodes())
		if fs.NodeFaulty(src) || fs.NodeFaulty(dst) {
			return
		}
		ring := trace.NewRing(1 << 12)
		r := frehDiffRouter(c, fs, ring, withRepair)
		if _, err := diffSliceEngines(r, ring, new(routeScratch), new(refSliceScratch), src, dst); err != nil {
			t.Fatal(err)
		}
	})
}
