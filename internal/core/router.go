// Package core implements the paper's contribution: the routing strategy
// for Gaussian Cubes built on the Gaussian Tree.
//
// Fault-free routing (FFGCR, Algorithm 3) maps source and destination to
// their ending classes — vertices of the Gaussian Tree — computes the
// set of classes whose high dimensions must be corrected, walks the tree
// along the PC trunk with CT-style excursions to reach every required
// class, and flips the preferred high dimensions inside each class.
// Because every dimension-c link (c >= alpha) lives only in class
// c mod 2^alpha, this walk is distance-optimal in the Gaussian Cube
// (verified exhaustively in the tests).
//
// The fault-tolerant strategy (Section 5) keeps the same tree-level
// plan and replaces the two primitive moves by fault-tolerant ones:
//
//   - within a class, the high-dimension corrections become
//     fault-tolerant hypercube routing inside the GEEC slice
//     (Theorem 3), using the adaptive or safety-level substrate;
//   - crossing a tree edge becomes FREH routing inside the exchanged-
//     hypercube pair subgraph G(p, q, k) when the direct link is broken
//     (Theorem 5).
//
// When a fault pattern exceeds the theorems' preconditions (for
// example, a C-category fault sitting exactly on a forced class-exit
// node), Route falls back — if enabled — to a BFS route over the
// healthy subgraph, and reports that it did so.
package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"

	"gaussiancube/internal/bitutil"
	"gaussiancube/internal/gc"
	"gaussiancube/internal/gtree"
	"gaussiancube/internal/trace"
)

// Substrate selects the fault-tolerant hypercube router used inside
// GEEC slices.
type Substrate int

// Substrate choices.
const (
	// SubstrateAdaptive is spare-masking adaptive routing (Lan [6] style).
	SubstrateAdaptive Substrate = iota
	// SubstrateSafety is Wu's safety-level routing [5].
	SubstrateSafety
	// SubstrateVector is safety-vector routing (the Wu & Jiang
	// refinement of the levels).
	SubstrateVector
)

// Router computes routes in a Gaussian Cube, optionally around a fault
// set. Its only mutable state is a pool of per-route scratch buffers,
// so a single instance may be used from multiple goroutines
// concurrently (provided the fault set is not mutated during routing).
type Router struct {
	cube *gc.Cube
	options
	// scratch pools routeScratch values; every Route/RouteInto call
	// checks one out for its lifetime, which is what keeps the
	// fault-free hot path allocation-free without a per-call lock.
	scratch sync.Pool
	// Re-rooting tables (reroot.go), built lazily on the first
	// NewSource probe of a faulted origin.
	rerootOnce   sync.Once
	bridgeBelow  []int32
	totalBridges int32
}

// NewRouter builds a router over cube c, configured by opts
// (options.go).
func NewRouter(c *gc.Cube, opts ...Option) *Router {
	return newRouter(c, buildOptions(opts))
}

// newRouter builds a router from filled options; the adaptive router
// builds its per-flight planners through it.
func newRouter(c *gc.Cube, o options) *Router {
	r := &Router{cube: c, options: o}
	r.scratch.New = func() any { return new(routeScratch) }
	return r
}

// Cube returns the cube this router operates on.
func (r *Router) Cube() *gc.Cube { return r.cube }

// Routing errors.
var (
	// ErrFaultyEndpoint mirrors simulation assumption 1.
	ErrFaultyEndpoint = errors.New("core: source or destination node is faulty")
	// ErrUnreachable is returned when no healthy route exists (or the
	// strategy failed and fallback is disabled).
	ErrUnreachable = errors.New("core: destination unreachable")
	// ErrPartitioned is returned when the tree-edge health map proves
	// the destination's class — or a class owning a pending high
	// dimension — is cut off from the source's class by severed tree
	// edges. It wraps ErrUnreachable, and because the proof is a graph
	// cut the BFS fallback is skipped: no route can exist.
	ErrPartitioned = fmt.Errorf("%w (proven partitioned by severed tree edges)", ErrUnreachable)
)

// Result is a computed route with its provenance.
type Result struct {
	Source, Dest gc.NodeID
	// Path is the full hop-by-hop walk, endpoints included.
	Path []gc.NodeID
	// TreeWalk is the ending-class walk the path follows.
	TreeWalk []gtree.Node
	// Optimal is the fault-free optimal length for this pair (also the
	// exact Gaussian Cube distance).
	Optimal int
	// UsedFallback reports that the strategy could not complete against
	// the fault pattern and a BFS fallback produced the path.
	UsedFallback bool
	// Tree is the multipath tree this route was planned for; -1 on a
	// single-tree router.
	Tree int
}

// Hops returns the path length in hops.
func (res *Result) Hops() int { return len(res.Path) - 1 }

// Extra returns the detour cost over the fault-free optimum.
func (res *Result) Extra() int { return res.Hops() - res.Optimal }

// Breakdown splits the path's hops into tree hops (dimensions below
// alpha, moving between ending classes) and cube hops (dimensions at or
// above alpha, inside a class) — the two phases of the divide-and-
// conquer strategy.
func (res *Result) Breakdown(c *gc.Cube) (treeHops, cubeHops int) {
	for i := 1; i < len(res.Path); i++ {
		dim := uint(bitutil.LowestBit(uint64(res.Path[i-1] ^ res.Path[i])))
		if dim < c.Alpha() {
			treeHops++
		} else {
			cubeHops++
		}
	}
	return treeHops, cubeHops
}

// Route computes a route from s to d.
func (r *Router) Route(s, d gc.NodeID) (*Result, error) {
	var walk []gtree.Node
	path, m, err := r.route(context.Background(), nil, &walk, s, d, r.tree, r.tracer)
	if err != nil {
		return nil, err
	}
	return &Result{
		Source:       s,
		Dest:         d,
		Path:         path,
		TreeWalk:     walk,
		Optimal:      m.Optimal,
		UsedFallback: m.Fallback,
		Tree:         m.Tree,
	}, nil
}

// RouteInto computes a route from s to d and appends its hop-by-hop
// path (endpoints included) onto dst, returning the extended slice. It
// is AppendRoute without the context and the report, on the router's
// own tree pin and tracer (WithTree, WithTracer).
func (r *Router) RouteInto(dst []gc.NodeID, s, d gc.NodeID) ([]gc.NodeID, error) {
	dst, _, err := r.AppendRoute(context.Background(), dst, s, d, r.tree, r.tracer)
	return dst, err
}

// AppendRoute computes a route from s to d under ctx and appends its
// hop-by-hop path (endpoints included) onto dst, returning the extended
// slice and what the planner knows of it beside the path: Route
// without the Result envelope. When the strategy fails against the
// fault pattern and the fallback is enabled, the BFS fallback path is
// appended instead. ctx is checked between hops of the class walk; a
// canceled route returns ctx's error. When dst has capacity, a
// warmed-up call under a context that allocates nothing on Err (such
// as context.Background) performs zero heap allocations, fault-free or
// through the adaptive GEEC substrate, FREH and the BFS fallback.
// RouteMeta.Report lifts the results onto the outcome ladder.
//
// tree and t are this route's own: the route is planned on the tree
// the router's tree set resolves tree to (mtree.TreeSet.Resolve: an
// index of the set pins it, TreeAuto stripes per flow; ignored on a
// single-tree router), and narrated into t (nil: untraced). The
// router's WithTree and WithTracer settings are only the defaults of
// Route, RouteInto and RouteContext, so one router serves every tree
// and every sampled request of a fault state.
func (r *Router) AppendRoute(ctx context.Context, dst []gc.NodeID, s, d gc.NodeID, tree int, t trace.Tracer) ([]gc.NodeID, RouteMeta, error) {
	return r.route(ctx, dst, nil, s, d, tree, t)
}

// RouteMeta is what the planner reports beside a path.
type RouteMeta struct {
	// Tree is the multipath tree the route was planned for; -1 on a
	// single-tree router.
	Tree int
	// Optimal is the fault-free optimum for the pair (0 when the request
	// was refused before planning).
	Optimal int
	// Fallback reports that the BFS last resort produced the path.
	Fallback bool
}

// Report lifts one AppendRoute call onto the outcome ladder: path is
// the route it appended and err its error. A non-nil error returned is
// a caller mistake (node out of range, faulty endpoint) and carries no
// report; every network verdict is a nil error with the verdict on the
// report's Outcome:
//
//	delivered on plan            -> OutcomeDelivered
//	delivered via BFS fallback   -> OutcomeDeliveredDegraded
//	no route around the faults   -> OutcomeUndeliverable
//	proven cut off (ErrPartitioned) -> OutcomeUndeliverablePartitioned
//	ctx canceled / deadline hit  -> OutcomeCanceled
//
// The report is returned by value and its Path aliases path, so a
// caller that plans into its own buffer builds it without allocating.
func (m RouteMeta) Report(path []gc.NodeID, err error) (RouteReport, error) {
	switch {
	case err == nil:
		rep := RouteReport{
			Outcome:      OutcomeDelivered,
			Path:         path,
			Hops:         len(path) - 1,
			DetourHops:   len(path) - 1 - m.Optimal,
			UsedFallback: m.Fallback,
			TreeID:       m.Tree,
		}
		if m.Fallback {
			rep.Outcome = OutcomeDeliveredDegraded
			rep.Reason = "BFS last resort"
		}
		return rep, nil
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		return RouteReport{Outcome: OutcomeCanceled, Reason: err.Error(), TreeID: m.Tree}, nil
	case errors.Is(err, ErrPartitioned):
		return RouteReport{
			Outcome: OutcomeUndeliverablePartitioned,
			Reason:  "destination class severed from source component",
			TreeID:  m.Tree,
		}, nil
	case errors.Is(err, ErrUnreachable):
		return RouteReport{
			Outcome: OutcomeUndeliverable,
			Reason:  "no route around faults",
			TreeID:  m.Tree,
		}, nil
	default:
		return RouteReport{}, err
	}
}

// route is the one planning ladder behind Route, AppendRoute and
// RouteContext: range check, faulty endpoint, plan, repair partition
// check, execute, BFS fallback, traced outcome. It appends the path
// (endpoints included) onto dst and returns dst unextended on error.
// walk, when non-nil, receives a copy of the planned class walk.
// Cancellation and deadline expiry are checked between hops of the
// class walk; a canceled route returns ctx's error and skips the BFS
// fallback — the caller has already lost interest. ctx must be
// non-nil; context.Background().Err() allocates nothing, so the
// warmed-up fault-free path stays allocation-free. tree and t are the
// route's tree pin and tracer (AppendRoute).
func (r *Router) route(ctx context.Context, dst []gc.NodeID, walk *[]gtree.Node, s, d gc.NodeID, tree int, t trace.Tracer) ([]gc.NodeID, RouteMeta, error) {
	m := RouteMeta{Tree: -1}
	if int(s) >= r.cube.Nodes() || int(d) >= r.cube.Nodes() {
		return dst, m, fmt.Errorf("core: node out of range for GC(%d,2^%d)", r.cube.N(), r.cube.Alpha())
	}
	if r.faults != nil && (r.faults.NodeFaulty(s) || r.faults.NodeFaulty(d)) {
		if t != nil {
			r.traceOutcome(t, trace.OutcomeError, "faulty-endpoint")
		}
		return dst, m, ErrFaultyEndpoint
	}
	sc := r.scratch.Get().(*routeScratch)
	defer r.scratch.Put(sc)
	sc.flow = flow{tree: r.trees.Resolve(tree, s, d), tracer: t}
	m.Tree = sc.tree
	r.planInto(&sc.plan, s, d)
	if r.repair != nil {
		if _, ok := r.repair.CheckWalk(s, d, sc.plan.classes); !ok {
			if t != nil {
				r.traceOutcome(t, trace.OutcomeError, "partitioned")
			}
			return dst, m, ErrPartitioned
		}
	}
	m.Optimal = sc.plan.optimal() // before execute consumes the masks
	if walk != nil {
		*walk = append(*walk, sc.plan.walk...)
	}
	path, err := r.execute(ctx, sc, sc.path[:0], s, d, 0)
	if err == nil {
		dst = append(dst, path...)
	}
	abandoned := len(path) - 1
	sc.path = path[:0] // retain the grown buffer for the next route
	if err == nil {
		if t != nil {
			r.traceOutcome(t, trace.OutcomeOK, "")
		}
		return dst, m, nil
	}
	if cerr := ctx.Err(); cerr != nil {
		if t != nil {
			r.traceAbandoned(t, abandoned)
			r.traceOutcome(t, trace.OutcomeError, "canceled")
		}
		return dst, m, cerr
	}
	start, found := len(dst), false
	if !r.noFallback {
		if dst, found = r.appendFallback(dst, sc, s, d); !found {
			err = ErrUnreachable
		}
	}
	if !found {
		if t != nil {
			r.traceAbandoned(t, abandoned)
			r.traceOutcome(t, trace.OutcomeError, "unreachable")
		}
		return dst, m, err
	}
	if t != nil {
		r.traceAbandoned(t, abandoned)
		r.traceFallbackPath(t, dst[start:])
		r.traceOutcome(t, trace.OutcomeOK, "bfs-fallback")
	}
	m.Fallback = true
	return dst, m, nil
}

// OptimalLength returns the fault-free length of the strategy's route,
// which equals the Gaussian Cube distance between s and d.
func (r *Router) OptimalLength(s, d gc.NodeID) int {
	sc := r.scratch.Get().(*routeScratch)
	r.planInto(&sc.plan, s, d)
	n := sc.plan.optimal()
	r.scratch.Put(sc)
	return n
}

// appendFallback is the BFS last resort: it appends a shortest path
// from s to d over the healthy subgraph onto dst and reports whether one
// exists. The path is exactly the one graph.ShortestPath finds over the
// healthy cube: a FIFO BFS that visits neighbours in ascending link
// dimension (the order of cube.LinkDims) returns the lexicographically
// smallest dimension sequence among the shortest healthy paths.
//
// The search meets in the middle. One frontier grows from s and one
// from d, the smaller of the two by a whole level at a time, until a
// level reaches a node the other side holds (distance L = ks + kd) or
// a frontier runs out (no path). The s-level-ks nodes the d side
// reached are the meeting layer; walking back from it level by level
// marks every s-side node on a shortest path. The path then starts at
// s and takes, at each step, the lowest-dimension healthy link to a
// marked node one s-level further, and past the meeting layer to a
// node one d-level closer to d — the greedy form of the smallest
// dimension sequence.
//
// Each pass is bounded by a distance D: the s side keeps a node w it
// reaches at level g only if g + h(w, d) <= D, and the d side only if
// g + h(s, w) <= D, where h is the fault-free Gaussian Cube distance
// (Router.distance). Faults only lengthen paths, so when D >= L every
// node on a shortest healthy path passes with its exact BFS level, the
// kept nodes' levels are BFS levels of the kept subgraph, and the sides
// meet at ks + kd = L with the same meeting layer and the same greedy
// candidates as an unbounded search: the path is unchanged. The first
// pass takes D = h(s, d). A meet at ks + kd > D is a real path but need
// not be shortest, so the search reruns at D = ks + kd, which is then
// at least L. A frontier that runs out proves the pair unreachable only
// if its side turned nothing away; otherwise L > D, and the search
// widens once to the smallest g + h its side turned away (at most L,
// since a shortest path leaves the side's kept nodes through such a
// probe) and after that runs unbounded. Past gtree.MaxCoverAlpha there
// is no closed-form h and every pass is unbounded.
//
// The state lives in sc: one seen byte per node (layout below), all
// zero between searches, plus each side's visit list with its level
// offsets. Only the visited nodes are cleared after each pass, and once
// the buffers have grown the search allocates nothing.
func (r *Router) appendFallback(dst []gc.NodeID, sc *routeScratch, s, d gc.NodeID) ([]gc.NodeID, bool) {
	return r.appendSearch(dst, sc, s, d, r.cube.Alpha() <= gtree.MaxCoverAlpha)
}

// appendSearch is appendFallback's search, its passes bounded by the
// rules above when bounded is set and all unbounded otherwise. It logs
// its passes in sc.fbLog.
func (r *Router) appendSearch(dst []gc.NodeID, sc *routeScratch, s, d gc.NodeID, bounded bool) ([]gc.NodeID, bool) {
	sc.fbLog = fallbackLog{}
	if s == d {
		return append(dst, s), true
	}
	n := r.cube.Nodes()
	if len(sc.seen) < n {
		sc.seen = make([]uint8, n)
	}
	seen := sc.seen[:n]
	from, to := &sc.from, &sc.to
	bound, h := unbounded, 0
	if bounded {
		h = r.distance(s, d)
		bound = h
	}
	for {
		sc.fbLog.passes++
		sc.fbLog.unbounded = bound == unbounded
		from.reset(seen, s, fromShift, h)
		to.reset(seen, d, toShift, h)
		met := false
		for !met && from.frontier() > 0 && to.frontier() > 0 {
			if from.frontier() <= to.frontier() {
				met = r.expand(seen, from, to, bound)
			} else {
				met = r.expand(seen, to, from, bound)
			}
		}
		emptied := from
		if from.frontier() > 0 {
			emptied = to
		}
		found := met && (bound == unbounded || from.depth()+to.depth() <= bound)
		if found {
			dst = r.appendMeetPath(dst, seen, from, to)
		}
		for _, v := range from.visit {
			seen[v] = 0
		}
		for _, v := range to.visit {
			seen[v] = 0
		}
		sc.fbLog.visits += len(from.visit) + len(to.visit)
		switch {
		case found:
			return dst, true
		case met: // overshoot: a real path, so its length bounds L
			bound, sc.fbLog.overshoot = from.depth()+to.depth(), true
		case emptied.pruned == 0: // the emptied side saw its whole component
			return dst, false
		case !sc.fbLog.widened:
			bound, sc.fbLog.widened = emptied.pruned, true
		default:
			bound = unbounded
		}
	}
}

// fallbackLog records what the last appendSearch did: its passes, the
// nodes they visited, and which rules ran after the first pass.
type fallbackLog struct {
	passes, visits int
	overshoot      bool // a pass met past its bound and the search reran
	widened        bool // a pass ran out after pruning and the bound widened
	unbounded      bool // the last pass was unbounded
}

// unbounded is the bound of a pass that prunes nothing.
const unbounded = -1

// distance returns the fault-free Gaussian Cube distance between u and
// v: the length of FFGCR's optimal route (routePlan.optimal) in closed
// form, in O(2^alpha). Each high dimension in which u and v differ
// costs one hop inside its owning class (dimension i belongs to class
// i mod 2^alpha), and the class walk is the shortest Gaussian-tree walk
// from EC(u) to EC(v) visiting every such class. The alpha must be at
// most gtree.MaxCoverAlpha.
func (r *Router) distance(u, v gc.NodeID) int {
	high := uint64(u^v) >> r.cube.Alpha() << r.cube.Alpha()
	return bitutil.OnesCount(high) + r.cube.Tree().CoverWalkLen(r.cube.EndingClass(u), r.cube.EndingClass(v), r.pendingClasses(u, v))
}

// pendingClasses returns the set of classes (bit k: class k) owning a
// high dimension in which u and v differ: the high bits of u^v folded
// by shifts of 2^alpha.
func (r *Router) pendingClasses(u, v gc.NodeID) uint64 {
	alpha := r.cube.Alpha()
	var classes uint64
	for y := uint64(u^v) >> alpha << alpha; y != 0; y >>= 1 << alpha {
		classes |= y
	}
	return classes & (uint64(1)<<(1<<alpha) - 1)
}

// A fallback seen byte holds, for each side of the search, the BFS
// level at which that side reached the node as level mod 3 + 1 (0: not
// reached), and the onPath mark. BFS neighbours differ by at most one
// level, so mod 3 tells a neighbour's level apart from one's own.
const (
	fromShift = 0      // the s side's level tag, bits 0-1
	toShift   = 2      // the d side's level tag, bits 2-3
	tagMask   = 3      // one side's level tag, before shifting
	onPath    = 1 << 4 // an s-side node on a shortest s-d path
)

// levelTag is the seen-byte tag of BFS level k.
func levelTag(k int) uint8 { return uint8(k%3 + 1) }

// fallbackSide is one side of appendFallback's search: every node it
// has reached, in visit order, with level k starting at visit[start[k]].
// The deepest level, the frontier, runs to the end of visit. In a
// bounded pass dist[i] is h from visit[i] to the other side's root.
// pruned is the smallest g + h among the nodes the pass's bound turned
// away, 0 when it turned none away.
type fallbackSide struct {
	visit  []gc.NodeID
	start  []int32
	dist   []int
	shift  uint // the side's level-tag position in a seen byte
	pruned int
}

// reset starts the side at root, BFS level 0, h away from the other
// side's root.
func (a *fallbackSide) reset(seen []uint8, root gc.NodeID, shift uint, h int) {
	a.visit = append(a.visit[:0], root)
	a.start = append(a.start[:0], 0)
	a.dist = append(a.dist[:0], h)
	a.shift = shift
	a.pruned = 0
	seen[root] |= levelTag(0) << shift
}

// level returns the nodes of BFS level k.
func (a *fallbackSide) level(k int) []gc.NodeID {
	if k+1 < len(a.start) {
		return a.visit[a.start[k]:a.start[k+1]]
	}
	return a.visit[a.start[k]:]
}

// depth returns the side's deepest BFS level.
func (a *fallbackSide) depth() int { return len(a.start) - 1 }

// frontier returns the size of the deepest level.
func (a *fallbackSide) frontier() int { return len(a.visit) - int(a.start[a.depth()]) }

// expand grows side a by one whole level over the healthy links and
// reports whether the new level holds a node that side b has reached.
// Unless bound is unbounded, a node w joins the level g only if
// g + h(w, t) <= bound, t being b's root; side a records the smallest
// g + h it turns away. Each probe derives h(w, t) from h(v, t) in O(1).
// A hop across a high dimension i changes h by exactly one: the link
// exists only inside class i mod 2^alpha, which is both endpoints'
// ending class and so already on the class walk, and only the count of
// differing high dimensions moves, down when v and t differ in bit i.
// A tree hop keeps the high bits and moves the walk's start along one
// tree edge (gtree.Tree.CoverWalkStep).
func (r *Router) expand(seen []uint8, a, b *fallbackSide, bound int) bool {
	k := a.depth()
	lo, hi := int(a.start[k]), len(a.visit)
	a.start = append(a.start, int32(hi))
	tag, met := levelTag(k+1)<<a.shift, false
	t, alpha, tree := b.visit[0], r.cube.Alpha(), r.cube.Tree()
	tc := r.cube.EndingClass(t)
	for i := lo; i < hi; i++ {
		v := a.visit[i]
		for _, dim := range r.cube.LinkDims(v) {
			w := v ^ (1 << dim)
			if seen[w]>>a.shift&tagMask != 0 || r.linkDown(v, dim) {
				continue
			}
			if bound != unbounded {
				h := a.dist[i] + 1 - 2*int((v^t)>>dim&1)
				if dim < alpha {
					h = a.dist[i] + tree.CoverWalkStep(r.cube.EndingClass(v), r.cube.EndingClass(w), tc, r.pendingClasses(v, t))
				}
				if f := k + 1 + h; f > bound {
					if a.pruned == 0 || f < a.pruned {
						a.pruned = f
					}
					continue
				}
				a.dist = append(a.dist, h)
			}
			seen[w] |= tag
			met = met || seen[w]>>b.shift&tagMask != 0
			a.visit = append(a.visit, w)
		}
	}
	return met
}

// appendMeetPath appends the smallest shortest path once the s side
// (from, at depth ks) and the d side (to, at depth kd) have met: it
// marks the s half, then steps greedily from s to d.
func (r *Router) appendMeetPath(dst []gc.NodeID, seen []uint8, from, to *fallbackSide) []gc.NodeID {
	ks, kd := from.depth(), to.depth()
	for _, v := range from.level(ks) {
		if seen[v]>>toShift&tagMask != 0 {
			seen[v] |= onPath
		}
	}
	for k := ks; k > 0; k-- {
		below := levelTag(k - 1)
		for _, v := range from.level(k) {
			if seen[v]&onPath == 0 {
				continue
			}
			for _, dim := range r.cube.LinkDims(v) {
				w := v ^ (1 << dim)
				if seen[w]&(tagMask<<fromShift|onPath) == below<<fromShift && !r.linkDown(v, dim) {
					seen[w] |= onPath
				}
			}
		}
	}
	dst = slices.Grow(dst, ks+kd+1)
	v := from.visit[0]
	dst = append(dst, v)
	for k := 1; k <= ks; k++ {
		v = r.fallbackStep(seen, v, tagMask<<fromShift|onPath, levelTag(k)<<fromShift|onPath)
		dst = append(dst, v)
	}
	for k := kd - 1; k >= 0; k-- {
		v = r.fallbackStep(seen, v, tagMask<<toShift, levelTag(k)<<toShift)
		dst = append(dst, v)
	}
	return dst
}

// fallbackStep returns the neighbour w of v across v's lowest-dimension
// healthy link with seen[w]&mask == want. One always exists while
// appendMeetPath walks a shortest path.
func (r *Router) fallbackStep(seen []uint8, v gc.NodeID, mask, want uint8) gc.NodeID {
	for _, dim := range r.cube.LinkDims(v) {
		w := v ^ (1 << dim)
		if seen[w]&mask == want && !r.linkDown(v, dim) {
			return w
		}
	}
	panic("core: fallback lost its shortest path")
}

// linkDown reports whether v's dimension-dim link is unusable under the
// router's fault set.
func (r *Router) linkDown(v gc.NodeID, dim uint) bool {
	return r.faults != nil && r.faults.LinkFaulty(v, dim)
}

// Tracing emission helpers. Each takes the route's tracer, and every
// call site is guarded by a nil check on it, so an untraced route pays
// one untaken branch per site and allocates nothing (the regression the
// alloc tests pin).

// hopEvent is the event of one committed hop; its kind splits at alpha
// — a tree hop between ending classes below it, a cube-dimension flip
// at or above it.
func hopEvent(alpha uint, from, to gc.NodeID, dim uint) trace.Event {
	k := trace.KindFlip
	if dim < alpha {
		k = trace.KindHop
	}
	return trace.Event{Kind: k, Dim: uint8(dim), From: uint32(from), To: uint32(to)}
}

// emitHop records one committed hop.
func (r *Router) emitHop(t trace.Tracer, from, to gc.NodeID, dim uint) {
	t.Emit(hopEvent(r.cube.Alpha(), from, to, dim))
}

// emitPathHops emits hop events for every transition of path.
func (r *Router) emitPathHops(t trace.Tracer, path []gc.NodeID) {
	for i := 1; i < len(path); i++ {
		r.emitHop(t, path[i-1], path[i], uint(bitutil.LowestBit(uint64(path[i-1]^path[i]))))
	}
}

// traceAbandoned rolls the trace back over the hops of an abandoned
// strategy attempt, keeping the stream replayable.
func (r *Router) traceAbandoned(t trace.Tracer, hops int) {
	if hops > 0 {
		t.Emit(trace.Event{Kind: trace.KindRollback, Arg: int32(hops)})
	}
}

// traceFallbackPath narrates the BFS last resort as a detour.
func (r *Router) traceFallbackPath(t trace.Tracer, fb []gc.NodeID) {
	t.Emit(trace.Event{Kind: trace.KindDetourEnter, Note: "bfs-fallback"})
	r.emitPathHops(t, fb)
	t.Emit(trace.Event{Kind: trace.KindDetourExit})
}

// traceOutcome terminates one route's narrative.
func (r *Router) traceOutcome(t trace.Tracer, arg int32, note string) {
	t.Emit(trace.Event{Kind: trace.KindOutcome, Arg: arg, Note: note})
}
