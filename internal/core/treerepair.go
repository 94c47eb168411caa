// Tree-repair detours: routing around dead realizations of a tree
// edge by crossing at a surviving one.
//
// A tree edge in dimension c < alpha exists physically once per frame
// (the 2^(n-alpha) nodes of a class). FFGCR crosses at the packet's
// current frame, and the FREH pair subgraph only helps while that
// local neighborhood satisfies Theorem 5's preconditions. B/C fault
// patterns that kill the crossing at the current frame leave the other
// frames' realizations untouched, so the repair move is: route to a
// class member whose crossing link still lives (the health map knows
// which, nearest first), cross there, and replan from the landing
// node. Reaching another frame means correcting high dimensions owned
// by other classes, so the detour is a full nested route, bounded by
// maxRepairDepth; candidates that fail are rolled back and the next
// one is tried. When the health map instead proves every realization
// dead, the edge is a graph cut and routing reports ErrPartitioned
// up front (see Router.Route) — the two verdicts of the repair
// subsystem.
package core

import (
	"context"

	"gaussiancube/internal/gc"
	"gaussiancube/internal/gtree"
	"gaussiancube/internal/trace"
)

const (
	// maxRepairDepth bounds nested detour routes: a detour's legs may
	// themselves hit dead crossings and detour again.
	maxRepairDepth = 3
	// maxDetourCandidates bounds how many surviving realizations a
	// single dead crossing tries, nearest (fewest high-dimension
	// corrections) first.
	maxDetourCandidates = 4
)

// repairDetour replaces a dead crossing from cur's class into class
// "to" (over dimension dim) by a detour through a surviving
// realization, then completes the route to d from the landing node.
// On success the full remaining route is appended onto path and done
// is true; on failure path is returned unchanged.
// On a route planned for a multipath tree (fl.tree >= 0) candidates
// inside the tree's own frame stripe are tried before sibling stripes
// — the middle rungs of the failover ladder.
func (r *Router) repairDetour(ctx context.Context, path []gc.NodeID, cur gc.NodeID, to gtree.Node, dim uint, d gc.NodeID, depth int, fl flow) ([]gc.NodeID, bool, error) {
	tree, t := fl.tree, fl.tracer
	if depth >= maxRepairDepth {
		return path, false, ErrUnreachable
	}
	var cands []gc.NodeID
	if tree >= 0 {
		cands = r.repair.SurvivingCrossingsPrefer(cur, to, maxDetourCandidates,
			func(f uint32) bool { return r.trees.OwnsFrame(tree, f) })
	} else {
		cands = r.repair.SurvivingCrossings(cur, to, maxDetourCandidates)
	}
	mark := len(path)
	for _, w := range cands {
		land := w ^ (1 << dim)
		// The map said this realization survives; distrust it against
		// the authoritative fault set anyway.
		if r.faults.LinkFaulty(w, dim) || r.faults.NodeFaulty(land) {
			continue
		}
		leg, err := r.routeNested(ctx, path, cur, w, depth+1, fl)
		if err != nil {
			if t != nil {
				r.traceAbandoned(t, len(leg)-mark)
			}
			path = path[:mark]
			continue
		}
		// Cross the severed tree edge at the surviving realization. The
		// crossing hop follows its annotation so the narrative names the
		// frame before the walk advances through it.
		if t != nil {
			cause := trace.CatB
			if r.faults.NodeFaulty(cur ^ (1 << dim)) {
				cause = trace.CatC
			}
			t.Emit(trace.Event{
				Kind: trace.KindRepairCrossing, Cat: cause,
				Dim: uint8(dim), From: uint32(w), To: uint32(land),
			})
			r.emitHop(t, w, land, dim)
		}
		leg = append(leg, land)
		full, err := r.routeNested(ctx, leg, land, d, depth+1, fl)
		if err != nil {
			if t != nil {
				r.traceAbandoned(t, len(full)-mark)
			}
			path = path[:mark]
			continue
		}
		return full, true, nil
	}
	return path[:mark], false, ErrUnreachable
}

// routeNested runs the full strategy from s to d as a spliced leg of a
// repair detour, appending the hops after s onto path (whose last
// element must be s). Nested legs get no BFS fallback — a failed leg
// is rolled back by the caller, which tries the next candidate — but
// they do get the partition pre-check and further detours (bounded by
// depth). The leg is planned for the parent route's flow, fl.
func (r *Router) routeNested(ctx context.Context, path []gc.NodeID, s, d gc.NodeID, depth int, fl flow) ([]gc.NodeID, error) {
	if s == d {
		return path, nil
	}
	sc := r.scratch.Get().(*routeScratch)
	defer r.scratch.Put(sc)
	sc.flow = fl
	r.planInto(&sc.plan, s, d)
	if r.repair != nil {
		if _, ok := r.repair.CheckWalk(s, d, sc.plan.classes); !ok {
			return path, ErrPartitioned
		}
	}
	// execute re-appends s, so hand it the path without its tail.
	return r.execute(ctx, sc, path[:len(path)-1], s, d, depth)
}
