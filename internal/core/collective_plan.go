package core

import (
	"fmt"

	"gaussiancube/internal/bitutil"
	"gaussiancube/internal/gc"
	"gaussiancube/internal/gtree"
	"gaussiancube/internal/trace"
)

// Served collective planning: the per-destination verdict envelope the
// serving layer ships for broadcast and multicast requests. Where
// Broadcast returns the raw spanning tree, BroadcastPlan returns a
// delivery claim per destination on the same Outcome ladder unicast
// uses — and it survives a dead root by re-rooting (reroot.go) instead
// of refusing with ErrFaultyEndpoint.

// DestStatus is one destination's verdict inside a CollectiveReport.
type DestStatus struct {
	Dest gc.NodeID
	// Outcome is the destination's rung on the unicast ladder:
	// Delivered on the planned tree, DeliveredDegraded below a
	// re-rooted root or re-rooted subtree, Undeliverable when the
	// destination itself is faulted, UndeliverablePartitioned when it
	// is healthy but provably cut from the (effective) root.
	Outcome Outcome
	// Hops is the delivery depth in the broadcast tree; -1 when the
	// destination was not reached.
	Hops int32
}

// CollectiveReport is the verdict envelope of one collective: the
// effective tree plus one DestStatus per requested destination.
type CollectiveReport struct {
	// Origin is the requested root.
	Origin gc.NodeID
	// Root is the effective source: Origin when healthy, the
	// NewSource re-injection point when Origin is faulted.
	Root gc.NodeID
	// ReRooted reports that Root != Origin: every delivery is then
	// degraded, because no path matches the requested plan.
	ReRooted bool
	// ReRootedClasses lists the class-subtree roots whose entering
	// Gaussian-tree edge had dead-but-not-severed realizations: the
	// walk into each listed subtree re-rooted onto a surviving
	// crossing, so deliveries below it are degraded.
	ReRootedClasses []gtree.Node
	// Tree is the delivery tree from Root; nil only when re-rooting
	// was proven impossible (Origin and all its neighbors faulted).
	Tree *BroadcastTree
	// Dests holds one verdict per destination: every node but Origin
	// for a broadcast, the request list verbatim for a multicast.
	Dests []DestStatus
	// Ladder tallies over Dests.
	Delivered, Degraded, Unreached int
}

// BroadcastPlan plans a one-to-all broadcast from origin: one
// DestStatus for every node but origin, in ascending node order.
// Unlike Broadcast, a faulty origin is not an error — the plan
// re-roots via the closed-form NewSource rule and stamps every
// delivery degraded. The only error is an out-of-range origin.
func (r *Router) BroadcastPlan(origin gc.NodeID) (*CollectiveReport, error) {
	if int(origin) >= r.cube.Nodes() {
		return nil, fmt.Errorf("core: root %d out of range", origin)
	}
	n := r.cube.Nodes()
	dests := make([]gc.NodeID, 0, n-1)
	for v := 0; v < n; v++ {
		if gc.NodeID(v) != origin {
			dests = append(dests, gc.NodeID(v))
		}
	}
	return r.planCollective(origin, dests)
}

// MulticastPlan plans a one-to-many multicast from origin: one
// DestStatus per requested destination, in request order (duplicates
// answered consistently; the underlying delivery happens once). A
// faulty origin re-roots exactly like BroadcastPlan.
func (r *Router) MulticastPlan(origin gc.NodeID, dests []gc.NodeID) (*CollectiveReport, error) {
	if int(origin) >= r.cube.Nodes() {
		return nil, fmt.Errorf("core: root %d out of range", origin)
	}
	for _, d := range dests {
		if int(d) >= r.cube.Nodes() {
			return nil, fmt.Errorf("core: destination %d out of range", d)
		}
	}
	return r.planCollective(origin, dests)
}

func (r *Router) planCollective(origin gc.NodeID, dests []gc.NodeID) (*CollectiveReport, error) {
	rep := &CollectiveReport{Origin: origin}
	effRoot, ok := r.NewSource(origin)
	if !ok {
		// Re-rooting proven impossible: origin and every neighbor
		// faulted, so no node could hold a copy to re-inject. Nothing
		// is deliverable.
		rep.Root = origin
		rep.Dests = make([]DestStatus, len(dests))
		for i, d := range dests {
			rep.Dests[i] = DestStatus{Dest: d, Outcome: OutcomeUndeliverable, Hops: -1}
		}
		rep.Unreached = len(dests)
		return rep, nil
	}
	rep.Root = effRoot
	rep.ReRooted = effRoot != origin

	bt, err := r.Broadcast(effRoot)
	if err != nil {
		return nil, err
	}
	rep.Tree = bt
	marks, reRooted := r.classAnalysis(r.cube.EndingClass(effRoot))
	rep.ReRootedClasses = reRooted

	rep.Dests = make([]DestStatus, len(dests))
	for i, d := range dests {
		st := DestStatus{Dest: d, Hops: -1}
		switch {
		case d == origin:
			// A multicast listing its own origin: delivered in place —
			// unless the origin itself is the fault that forced the
			// re-root, in which case nothing can land there.
			if r.faults != nil && r.faults.NodeFaulty(origin) {
				st.Outcome = OutcomeUndeliverable
			} else {
				st.Outcome = OutcomeDelivered
				st.Hops = 0
			}
		case bt.Parent[d] != -1:
			st.Hops = bt.Depth[d]
			if rep.ReRooted || marks[r.cube.EndingClass(d)]&classDegraded != 0 {
				st.Outcome = OutcomeDeliveredDegraded
			} else {
				st.Outcome = OutcomeDelivered
			}
		case r.faults != nil && r.faults.NodeFaulty(d):
			st.Outcome = OutcomeUndeliverable
		default:
			// The BFS tree is exhaustive over the healthy cube: a
			// healthy unreached destination is proven cut from Root.
			st.Outcome = OutcomeUndeliverablePartitioned
		}
		switch st.Outcome {
		case OutcomeDelivered:
			rep.Delivered++
		case OutcomeDeliveredDegraded:
			rep.Degraded++
		default:
			rep.Unreached++
		}
		rep.Dests[i] = st
	}
	rep.Trace(r.cube, r.tracer)
	return rep, nil
}

// Trace narrates the collective into t: every tree delivery as a hop
// event (parent before child, so the stream replays into the exact
// delivery paths), terminated by one outcome event carrying the
// delivered count. c is the cube the collective was planned over. A
// finished report is all it reads, so a collective is planned on an
// untraced router and narrated after the plan when it is sampled. A
// nil or disabled tracer costs nothing; a report without a tree (root
// and every neighbour faulted) emits nothing.
func (rep *CollectiveReport) Trace(c *gc.Cube, t trace.Tracer) {
	if t == nil || !t.Enabled() || rep.Tree == nil {
		return
	}
	bt := rep.Tree
	stack := []gc.NodeID{bt.Root}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, w := range bt.Children(v) {
			t.Emit(hopEvent(c.Alpha(), v, w, uint(bitutil.LowestBit(uint64(v^w)))))
			stack = append(stack, w)
		}
	}
	t.Emit(trace.Event{Kind: trace.KindOutcome, Arg: int32(rep.Delivered + rep.Degraded), Note: "collective"})
}
