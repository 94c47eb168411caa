package core

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"gaussiancube/internal/bitutil"
	"gaussiancube/internal/fault"
	"gaussiancube/internal/gc"
	"gaussiancube/internal/hypercube"
	"gaussiancube/internal/trace"
)

// The reference slice engine: in-slice routing as the planner did it in
// subcube coordinates, mapping every hop and every fault probe through
// the GEEC embedding (GEECOf, FromGC, ToGC, fault.GEECView). The
// production fixClassDims routes on GC labels restricted to Dim(k); the
// tests below require the two to agree path for path and event for
// event.

// refSliceScratch is the reference engine's working state.
type refSliceScratch struct {
	view   fault.GEECView
	hcWalk []hypercube.Node
	seen   map[hypercube.Node]bool
	stack  []uint
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
				r.emitHop(cur, nxt, uint(bitutil.LowestBit(uint64(cur^nxt))))
			}
			cur = nxt
			path = append(path, cur)
		}
		return path, cur, nil
	}
	if r.faults.NodeFaulty(g.ToGC(to)) {
		return path, cur, ErrUnreachable
	}
	sc.view = r.faults.GEECView(g)
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
			r.emitHop(cur, nxt, uint(bitutil.LowestBit(uint64(cur^nxt))))
		}
		cur = nxt
		path = append(path, cur)
	}
	if detoured {
		r.tracer.Emit(trace.Event{Kind: trace.KindDetourExit})
	}
	return path, cur, nil
}

// refExecute is execute with the reference slice engine: the same class
// walk and tree-edge crossings, with every in-slice correction done by
// refFixClassDims.
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
			path, cur, done, err = r.crossTreeEdge(context.Background(), sc, path, cur, k, p.walk[i+1], d, 0)
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
		sc.tree = -1
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
