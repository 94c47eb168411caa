package core

import (
	"context"

	"gaussiancube/internal/bitutil"
	"gaussiancube/internal/exchanged"
	"gaussiancube/internal/gc"
	"gaussiancube/internal/graph"
	"gaussiancube/internal/gtree"
	"gaussiancube/internal/hypercube"
	"gaussiancube/internal/trace"
)

// routePlan is the tree-level plan of FFGCR (Algorithm 3): the class
// walk to perform and the high dimensions to correct, grouped by the
// class that owns them. Its slices are scratch-backed and reused across
// routes (see routeScratch); a plan is valid only until the next
// planInto call on the same scratch.
type routePlan struct {
	// walk is the ending-class walk: the PC trunk from class(s) to
	// class(d), with CT excursions attached at branch points so that
	// every class owning a pending dimension is visited.
	walk []gtree.Node
	// classes lists the classes owning at least one pending dimension,
	// in first-seen (ascending-dimension) order; masks[i] is the mask of
	// GC dimensions in Dim(classes[i]) that must be flipped. At most n
	// entries, so linear scans beat a map both in time and allocation.
	classes []gtree.Node
	masks   []uint32
}

// routeScratch is the pooled per-route working state. Routers hand one
// to each in-flight Route call, which keeps a single Router safe for
// concurrent use while making the fault-free hot path allocation-free.
type routeScratch struct {
	plan routePlan
	path []gc.NodeID
	// flow is the tree and tracer this route is planned and narrated
	// for, set once per route by the entry points.
	flow
	// walk is the search state of the in-slice substrates (fixClassDims)
	// and of FREH on a blocked tree-edge crossing (crossTreeEdge);
	// safety holds the per-slice tables of the safety-level and
	// safety-vector substrates.
	walk   graph.WalkScratch
	safety hypercube.SafetyTables
	// seen, from and to are the BFS fallback's state (appendFallback):
	// a byte per node, sized to the cube on the first fallback through
	// this scratch, and the visit lists of the two search sides; fbLog
	// records the last search's passes.
	seen     []uint8
	from, to fallbackSide
	fbLog    fallbackLog
}

// flow is what one route is planned for beyond its endpoints: the
// multipath tree (-1 when single-tree) and the tracer narrating it
// (nil when untraced). Both are per-route inputs (AppendRoute), and a
// nested repair or steering leg inherits its parent's.
type flow struct {
	tree   int
	tracer trace.Tracer
}

// planInto computes the FFGCR tree-level plan for the pair (s, d) into
// the scratch-backed plan p.
func (r *Router) planInto(p *routePlan, s, d gc.NodeID) {
	c := r.cube
	p.classes = p.classes[:0]
	p.masks = p.masks[:0]

	// P = { i in [alpha, n-1] : bit i of s XOR d set }, grouped by the
	// owning class i mod 2^alpha (Definition 2 / Section 4).
	alpha := c.Alpha()
	diff := uint64(s^d) &^ (1<<alpha - 1)
	for m := diff; m != 0; m &= m - 1 {
		i := uint(bitutil.LowestBit(m))
		k := gtree.Node(bitutil.Low(uint64(i), alpha))
		idx := -1
		for j, kc := range p.classes {
			if kc == k {
				idx = j
				break
			}
		}
		if idx < 0 {
			p.classes = append(p.classes, k)
			p.masks = append(p.masks, 0)
			idx = len(p.classes) - 1
		}
		p.masks[idx] |= 1 << i
	}

	tr := c.Tree()
	p.walk = tr.AppendWalkVisiting(p.walk[:0], c.EndingClass(s), c.EndingClass(d), p.classes)
}

// optimal returns the fault-free length of the planned route: the tree
// walk length plus one hop per pending high dimension. This equals the
// Gaussian Cube distance (each pending high dimension needs one link
// that exists only in its owning class, and the class sequence of any
// path is a tree walk covering those classes).
func (p *routePlan) optimal() int {
	hops := len(p.walk) - 1
	for _, mask := range p.masks {
		hops += bitutil.OnesCount(uint64(mask))
	}
	return hops
}

// execute turns the plan into a hop-by-hop path appended onto path
// (starting with s), fault-free or around the router's fault set. It
// consumes the plan's pending masks (zeroing each as it is applied).
// depth counts nested repair-detour routes (0 for a top-level call); a
// detour that completes the route to d short-circuits the rest of the
// plan, since the splice replans from its landing node. ctx is checked
// once per class-walk step — between hops — so a canceled or expired
// route stops mid-walk and surfaces ctx's error.
func (r *Router) execute(ctx context.Context, sc *routeScratch, path []gc.NodeID, s, d gc.NodeID, depth int) ([]gc.NodeID, error) {
	p := &sc.plan
	path = append(path, s)
	cur := s

	for i, k := range p.walk {
		if err := ctx.Err(); err != nil {
			return path, err
		}
		for j, kc := range p.classes {
			if kc == k && p.masks[j] != 0 {
				var err error
				path, cur, err = r.fixClassDims(sc, path, cur, p.masks[j])
				if err != nil {
					return path, err
				}
				p.masks[j] = 0
				break
			}
		}
		if i+1 < len(p.walk) {
			var err error
			var done bool
			path, cur, done, err = r.crossTreeEdge(ctx, sc, path, cur, k, p.walk[i+1], d, depth)
			if err != nil {
				return path, err
			}
			if done {
				return path, nil
			}
		}
	}
	if cur != d {
		// The plan guarantees cur == d by construction; reaching here
		// means an inconsistent fault detour.
		return path, ErrUnreachable
	}
	return path, nil
}

// fixClassDims flips the given mask of high dimensions (all owned by
// cur's ending class k) by routing inside the GEEC slice of cur,
// appending the hops after cur onto path (whose last element is cur).
// Returns the extended path and the new current node. Theorem 3 makes
// the slice a hypercube whose subcube bit i is GC dimension Dim(k)[i];
// Dim(k) is ascending, so routing on GC labels restricted to Dim(k)
// visits dimensions in the subcube order and gives the same walk.
func (r *Router) fixClassDims(sc *routeScratch, path []gc.NodeID, cur gc.NodeID, mask uint32) ([]gc.NodeID, gc.NodeID, error) {
	to := cur ^ gc.NodeID(mask)
	start := len(path) - 1 // the walk starts at cur
	var err error
	switch {
	case r.faults == nil:
		// Fault-free: dimension-ordered (e-cube) routing in the slice.
		for m := uint64(mask); m != 0; m &= m - 1 {
			path = append(path, path[len(path)-1]^1<<bitutil.LowestBit(m))
		}
	case r.faults.NodeFaulty(to):
		// The forced class-exit node is faulty: beyond the strategy
		// (see package comment); the caller may fall back.
		return path, cur, ErrUnreachable
	default:
		dims := r.cube.DimMask(r.cube.EndingClass(cur))
		switch r.substrate {
		case SubstrateSafety:
			path, _, err = hypercube.AppendRouteSafetyDims(path[:start], &sc.walk, &sc.safety, r.cube.Nodes(), dims, r.faults, cur, to)
		case SubstrateVector:
			path, _, err = hypercube.AppendRouteSafetyVectorDims(path[:start], &sc.walk, &sc.safety, r.cube.Nodes(), dims, r.faults, cur, to)
		default:
			path, _, err = hypercube.AppendRouteAdaptiveDims(path[:start], &sc.walk, r.cube.Nodes(), dims, r.faults, cur, to)
		}
	}
	if err != nil {
		return path[:start+1], cur, ErrUnreachable // a failed walk leaves cur in place
	}
	if sc.tracer != nil {
		// A walk longer than the pending-dimension count means an
		// A-category fault forced an alternate preferred dimension:
		// narrate it as a detour around the GEEC slice's faults.
		walk := path[start:]
		detoured := len(walk)-1 > bitutil.OnesCount(uint64(mask))
		if detoured {
			sc.tracer.Emit(trace.Event{Kind: trace.KindDetourEnter, Cat: trace.CatA, Note: "geec-substrate"})
		}
		r.emitPathHops(sc.tracer, walk)
		if detoured {
			sc.tracer.Emit(trace.Event{Kind: trace.KindDetourExit})
		}
	}
	return path, to, nil
}

// crossTreeEdge moves cur from class "from" to the neighboring class
// "to" over the tree-edge link, detouring through the pair subgraph
// G(from, to, k) with FREH when the direct link is unusable, appending
// the hops after cur onto path. Returns the extended path and the new
// current node. When the local crossing is dead in every theorem-backed
// way and a health map is attached, a tree-repair detour to a surviving
// realization of the edge is spliced in instead; a successful detour
// completes the whole route to d and reports done == true. On a
// route planned for a multipath tree (sc.tree >= 0) a top-level
// crossing outside the tree's frame stripe first tries to steer into
// the stripe (multipath.go),
// which likewise completes the route; steering failures fall through
// to this single-tree ladder.
func (r *Router) crossTreeEdge(ctx context.Context, sc *routeScratch, path []gc.NodeID, cur gc.NodeID, from, to gtree.Node, d gc.NodeID, depth int) ([]gc.NodeID, gc.NodeID, bool, error) {
	c := r.cube
	dim := c.Tree().EdgeDim(from, to)
	if tree := sc.tree; tree >= 0 && depth == 0 && !r.trees.OwnsFrame(tree, r.trees.FrameOf(cur)) {
		if full, done := r.steerCrossing(ctx, path, cur, dim, d, depth, sc.flow); done {
			return full, cur, true, nil
		}
	}
	tgt := cur ^ (1 << dim)
	if r.faults == nil || (!r.faults.LinkFaulty(cur, dim) && !r.faults.NodeFaulty(tgt)) {
		if sc.tracer != nil {
			r.emitHop(sc.tracer, cur, tgt, dim)
		}
		return append(path, tgt), tgt, false, nil
	}
	// Theorem 5: the pair subgraph G(from, to, k) holding cur is
	// EH(|Dim(from)|, |Dim(to)|) with the tree edge as its crossing, the
	// a-part on Dim(from) and the b-part on Dim(to), so FREH routes it
	// on GC labels.
	m := exchanged.Embedding{Edge: dim, ASide: uint64(from) & (1 << dim), ADims: c.DimMask(from), BDims: c.DimMask(to)}
	if !r.faults.NodeFaulty(tgt) && m.ADims != 0 && m.BDims != 0 {
		start := len(path) - 1 // the walk starts at cur
		var err error
		path, err = exchanged.AppendRouteDims(path[:start], &sc.walk, c.Nodes(), m, r.faults, cur, tgt)
		if err == nil {
			// The direct crossing is a B-category blockage (the landing
			// node is alive, so the link itself is broken): FREH routes
			// around it inside the pair subgraph.
			if sc.tracer != nil {
				sc.tracer.Emit(trace.Event{Kind: trace.KindDetourEnter, Cat: trace.CatB, Dim: uint8(dim), Note: "freh-pair"})
				r.emitPathHops(sc.tracer, path[start:])
				sc.tracer.Emit(trace.Event{Kind: trace.KindDetourExit})
			}
			return path, tgt, false, nil
		}
		path = path[:start+1] // a failed walk leaves cur in place
	}
	// The crossing at this frame is beyond the FREH theorem (landing
	// node dead, degenerate pair, or the pair subgraph itself cut): the
	// tree-repair detour crosses at a surviving realization instead.
	if r.repair == nil {
		return path, cur, false, ErrUnreachable
	}
	path, done, err := r.repairDetour(ctx, path, cur, to, dim, d, depth, sc.flow)
	return path, cur, done, err
}
