// Multipath tree steering: executing a route over one tree of an
// mtree.TreeSet.
//
// A tree of the set is the Gaussian Tree realized at a stripe of
// frames (internal/mtree): tree i's crossings are the class-edge links
// whose frame satisfies frame & (k-1) == i. A route planned for tree i
// steers each class crossing toward that stripe opportunistically — if
// the current frame is already owned by the tree, the crossing is the
// plain FFGCR move, byte for byte; otherwise the route walks the
// differing stripe bits its class has direct cube links for, crosses
// at the nearest reachable frame, and replans to the destination from
// the landing node. Any steering failure falls
// through to the single-tree ladder (direct crossing, FREH pair
// detour, repair, BFS), so a multipath router delivers exactly when
// the single-tree router does; steering only moves which physical
// links carry the traffic. That movement is the point: flows striped
// across trees contend on disjoint link sets, and a crossing faulted
// in one stripe is a different physical link in every sibling stripe.
package core

import (
	"context"

	"gaussiancube/internal/bitutil"
	"gaussiancube/internal/gc"
	"gaussiancube/internal/mtree"
	"gaussiancube/internal/trace"
)

// Trees returns the router's multipath tree set (nil when single-tree).
func (r *Router) Trees() *mtree.TreeSet { return r.trees }

// steerCrossing walks cur toward its tree's Hamming-nearest stripe
// member of the same class, crosses the tree edge as far into the
// stripe as it got, and completes the route to d from the landing
// node. The walk is greedy and direct: of the stripe bits that differ,
// it flips exactly those the current class has a fault-free cube link
// for (Theorem 1 gives each class one cube dim per 2^alpha, so most
// classes can flip at most one stripe bit). A nested route could
// always reach the stripe exactly, but its own class crossings would
// land back on the frame steering is trying to leave, adding the very
// contention striping exists to remove — so steering takes only the
// free hops and settles for the nearest reachable frame. The stripe is
// an attractor, not a guarantee: distinct trees still pull the same
// crossing toward distinct frames, which is what spreads the load.
// When no stripe bit is flippable the steer declines and the crossing
// stays on the single-tree ladder. On success the full remaining route
// is appended onto path (whose last element must be cur) and done is
// true; on failure path is returned unchanged. fl is the route's
// flow, steering toward fl.tree's stripe.
func (r *Router) steerCrossing(ctx context.Context, path []gc.NodeID, cur gc.NodeID, dim uint, d gc.NodeID, depth int, fl flow) ([]gc.NodeID, bool) {
	tree, t := fl.tree, fl.tracer
	home := r.trees.HomeNode(tree, cur)
	// Greedily select the flippable, fault-free stripe bits.
	w := cur
	for x := uint64(cur ^ home); x != 0; {
		fd := uint(bitutil.LowestBit(x))
		x &^= 1 << fd
		if !r.cube.HasLinkDim(w, fd) {
			continue
		}
		nxt := w ^ (1 << fd)
		if r.faults != nil && (r.faults.LinkFaulty(w, fd) || r.faults.NodeFaulty(nxt)) {
			continue
		}
		w = nxt
	}
	if w == cur {
		return path, false
	}
	land := w ^ (1 << dim)
	if r.faults != nil && (r.faults.LinkFaulty(w, dim) || r.faults.NodeFaulty(land)) {
		return path, false
	}
	mark := len(path)
	leg := path
	v := cur
	for x := uint64(cur ^ w); x != 0; {
		fd := uint(bitutil.LowestBit(x))
		x &^= 1 << fd
		nxt := v ^ (1 << fd)
		if t != nil {
			r.emitHop(t, v, nxt, fd)
		}
		leg = append(leg, nxt)
		v = nxt
	}
	// Cross inside the stripe. The steer event precedes its hop so the
	// narrative names the tree before the walk advances.
	if t != nil {
		t.Emit(trace.Event{
			Kind: trace.KindTreeSteer, Dim: uint8(dim),
			From: uint32(w), To: uint32(land), Arg: int32(tree),
		})
		r.emitHop(t, w, land, dim)
	}
	leg = append(leg, land)
	full, err := r.routeNested(ctx, leg, land, d, depth+1, fl)
	if err != nil {
		if t != nil {
			r.traceAbandoned(t, len(full)-mark)
		}
		return path[:mark], false
	}
	return full, true
}
