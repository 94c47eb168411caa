// Adaptive per-hop routing: the dynamic-fault counterpart of Route.
//
// Route plans a whole path against one omniscient fault set. Under the
// paper's own locality premise (Section 6, assumption 4 — nodes know
// their own link status and class-local fault state) a packet in a
// failing, healing network cannot do that: it discovers faults one hop
// at a time. AdaptiveRouter models exactly that discovery process. A
// Flight carries a per-packet blacklist of the faults it has bumped
// into; every hop is decided from the current node using only locally
// observable state (the node's incident link status and its neighbors'
// liveness), and the FFGCR planner is re-run over the blacklist when a
// new fault is discovered.
//
// Replanning applies the paper's category-specific detours:
//
//	A-category (blocked link in a dimension >= alpha): the remaining
//	  high-dimension corrections re-enter the GEEC slice through the
//	  fault-tolerant substrate, which picks an alternate preferred
//	  dimension around the fault (Theorem 3);
//	B-category (blocked tree-edge link below alpha): the class walk is
//	  re-derived, crossing via the exchanged-hypercube pair subgraph
//	  (FREH, Theorem 5) or a CT-style excursion through another class;
//	C-category (dead node breaking both sides): both of the above.
//
// Transient faults — ones the oracle expects to heal — are not
// detoured immediately: the flight waits with exponential backoff and
// bounded retries, which converts a repair arriving mid-flight into a
// delivery instead of a drop. The degradation ladder of terminal
// outcomes is Delivered (followed the original plan undisturbed),
// DeliveredDegraded (delivered after retries, detours, or the BFS
// last resort), and Undeliverable (with a reason). BFS over the
// blacklist-healthy view remains the documented last resort, exactly
// as in Route.
package core

import (
	"context"
	"errors"
	"fmt"

	"gaussiancube/internal/bitutil"
	"gaussiancube/internal/fault"
	"gaussiancube/internal/gc"
	"gaussiancube/internal/trace"
)

// Oracle is the ground-truth network status. An AdaptiveRouter only
// ever consults it locally: for the current node, its incident links,
// and its immediate neighbors.
type Oracle interface {
	NodeFaulty(v gc.NodeID) bool
	LinkFaulty(v gc.NodeID, dim uint) bool
}

// TransientOracle additionally distinguishes faults that are expected
// to heal (fault.Dynamic implements it). Without it every fault is
// treated as permanent.
type TransientOracle interface {
	Oracle
	// TransientAt reports that link (v, dim) is blocked and every
	// component blocking it is transient.
	TransientAt(v gc.NodeID, dim uint) bool
	// TransientNode reports that v is faulty and expected to heal.
	TransientNode(v gc.NodeID) bool
}

// Outcome is the terminal classification of a Flight.
type Outcome int

// The degradation ladder.
const (
	// OutcomePending: the flight is still in progress.
	OutcomePending Outcome = iota
	// OutcomeDelivered: reached the destination on the original plan,
	// undisturbed.
	OutcomeDelivered
	// OutcomeDeliveredDegraded: reached the destination, but only after
	// transient-fault retries, category detours, or the BFS last resort.
	OutcomeDeliveredDegraded
	// OutcomeUndeliverable: terminally failed; see the Reason.
	OutcomeUndeliverable
	// OutcomeUndeliverablePartitioned: terminally failed with a proof —
	// the tree-edge health map showed the destination's class (or a
	// class owning a pending high dimension) severed from the source's
	// component, so no route exists at all. Only emitted when the router
	// was built WithRepair.
	OutcomeUndeliverablePartitioned
	// OutcomeCanceled: the caller's context was canceled or its deadline
	// expired before delivery (Routing.RouteContext). The network may
	// well have a route — the packet was abandoned, not defeated, so
	// Undeliverable reports false.
	OutcomeCanceled
)

// Undeliverable reports whether o is a terminal failure rung.
func (o Outcome) Undeliverable() bool {
	return o == OutcomeUndeliverable || o == OutcomeUndeliverablePartitioned
}

// String implements fmt.Stringer.
func (o Outcome) String() string {
	switch o {
	case OutcomePending:
		return "pending"
	case OutcomeDelivered:
		return "delivered"
	case OutcomeDeliveredDegraded:
		return "delivered-degraded"
	case OutcomeUndeliverable:
		return "undeliverable"
	case OutcomeUndeliverablePartitioned:
		return "undeliverable-partitioned"
	case OutcomeCanceled:
		return "canceled"
	default:
		return fmt.Sprintf("Outcome(%d)", int(o))
	}
}

// Flight tuning. A flight waits out a transient blockage with
// exponential backoff — backoffBase cycles, doubling per consecutive
// retry at one blockage up to maxBackoff — for at most maxRetries waits
// in total, after which transient faults are treated as permanent. The
// livelock guard fires when one node is revisited more than maxVisits
// times; the TTL bounds total hops at 8*(n+1) (AdaptiveRouter.ttl).
const (
	maxRetries  = 8
	backoffBase = 1
	maxBackoff  = 64
	maxVisits   = 4
)

// AdaptiveRouter steps packets through a network whose ground truth is
// an Oracle, one hop at a time, using only local knowledge. It is
// stateless across flights and safe for concurrent use as long as the
// oracle is (fault.Dynamic and a frozen fault.Set both are).
type AdaptiveRouter struct {
	cube      *gc.Cube
	oracle    Oracle
	transient TransientOracle // nil when the oracle has no transience
	opts      options
	ttl       int // hop budget per flight
}

// NewAdaptiveRouter builds an adaptive router over cube c with ground
// truth oracle, configured by opts (options.go). A nil oracle means a
// fault-free network. Replans run the planner with the router's
// substrate, repair map, fallback switch and tree set; the tracer
// receives every flight's narrative. WithFaults is ignored — the oracle
// is the ground truth.
func NewAdaptiveRouter(c *gc.Cube, oracle Oracle, opts ...Option) *AdaptiveRouter {
	r := &AdaptiveRouter{cube: c, oracle: oracle, opts: buildOptions(opts), ttl: 8 * (int(c.N()) + 1)}
	if t, ok := oracle.(TransientOracle); ok {
		r.transient = t
	}
	return r
}

// Cube returns the cube this router operates on.
func (r *AdaptiveRouter) Cube() *gc.Cube { return r.cube }

// StepKind is the action a Flight asks its carrier to perform.
type StepKind int

// Step kinds.
const (
	StepMove StepKind = iota // traverse the link to Step.To
	StepWait                 // hold the packet Step.Wait cycles, then Step again
	StepDone                 // delivered; Step.Outcome is terminal
	StepFail                 // undeliverable; see Step.Reason
)

// Step is one stepper decision.
type Step struct {
	Kind    StepKind
	To      gc.NodeID // valid for StepMove
	Wait    int       // valid for StepWait
	Outcome Outcome   // terminal classification for StepDone/StepFail
	Reason  string    // failure (or degradation) explanation
}

// DiscoveredFault is one fault a flight bumped into, with the paper's
// category that determined its detour.
type DiscoveredFault struct {
	Fault     fault.Fault
	Category  fault.Category
	Transient bool
}

// Flight is the per-packet adaptive routing state. It is not safe for
// concurrent use; a packet is in one place at a time.
type Flight struct {
	r         *AdaptiveRouter
	planner   *Router    // plans against the blacklist, not the oracle
	blacklist *fault.Set // faults this packet knows about
	cur, dst  gc.NodeID
	plan      []gc.NodeID // current planned path; plan[planIdx] == cur
	planIdx   int
	planned   bool // first plan computed (replan counting starts after)
	path      []gc.NodeID
	visits    map[gc.NodeID]int
	hops      int
	retries   int // transient wait-retries used
	attempt   int // consecutive waits at the current blockage
	replans   int
	waited    int
	degraded  bool
	fallback  bool
	found     []DiscoveredFault
	outcome   Outcome
	reason    string
	// openDetours counts traced discovery events awaiting the balancing
	// detour-exit a successful replan emits.
	openDetours int
	// tree is the multipath tree the flight currently plans over (-1
	// when the router has no tree set); treeSwitches counts sibling
	// failovers, bounded by K-1 so a flight visits each tree at most
	// once before the deeper rungs of the ladder take over.
	tree         int
	treeSwitches int
	// tracer receives this flight's event narrative; defaults to the
	// router's tracer, set per flight by StartTraced.
	tracer trace.Tracer
}

// Start begins a flight from s to d on the router's own tree pin and
// tracer (WithTree, WithTracer). It fails only on out-of-range nodes or
// a faulty source (assumption 1 — a node knows its own status); the
// destination's health is remote knowledge and is discovered en route.
func (r *AdaptiveRouter) Start(s, d gc.NodeID) (*Flight, error) {
	return r.start(s, d, nil)
}

// StartTraced is the per-flight form of Start: the flight plans on the
// tree the router's tree set resolves tree to (mtree.TreeSet.Resolve:
// an index of the set pins it, TreeAuto stripes per flow; ignored
// without a tree set) and narrates into t (nil: untraced), in place of
// the router's defaults. One router thus serves every tree pin and
// every sampled request of a fault state; carriers that interleave the
// steps of many flights (e.g. the simulator's event loop) hand each
// sampled flight its own ring, keeping every narrative contiguous.
func (r *AdaptiveRouter) StartTraced(s, d gc.NodeID, tree int, t trace.Tracer) (*Flight, error) {
	f, err := r.start(s, d, nil)
	if err != nil {
		return nil, err
	}
	f.tree, f.tracer = r.opts.trees.Resolve(tree, s, d), t
	return f, nil
}

// start begins a flight on the router's defaults whose blacklist is
// pre-populated with known faults (nil for none) — with known equal to
// the oracle's ground truth, the "full knowledge" end of the spectrum,
// the flight reproduces exactly the static fault-tolerant route (plans
// coincide; see the property test). known may be frozen; the flight
// works on a private copy.
func (r *AdaptiveRouter) start(s, d gc.NodeID, known *fault.Set) (*Flight, error) {
	if int(s) >= r.cube.Nodes() || int(d) >= r.cube.Nodes() {
		return nil, fmt.Errorf("core: node out of range for GC(%d,2^%d)", r.cube.N(), r.cube.Alpha())
	}
	if r.oracle != nil && r.oracle.NodeFaulty(s) {
		return nil, ErrFaultyEndpoint
	}
	bl := fault.NewSet(r.cube)
	if known != nil {
		bl = known.Clone()
	}
	// The planner takes the router's options with the blacklist as the
	// fault set; each replan passes it the flight's current tree and no
	// tracer (flights narrate themselves).
	o := r.opts
	o.faults = bl
	f := &Flight{
		r:         r,
		planner:   newRouter(r.cube, o),
		blacklist: bl,
		cur:       s,
		dst:       d,
		path:      []gc.NodeID{s},
		visits:    map[gc.NodeID]int{s: 1},
		tracer:    r.opts.tracer,
		tree:      r.opts.trees.Resolve(r.opts.tree, s, d),
	}
	return f, nil
}

// Step makes the next per-hop decision from the flight's current node.
// After StepMove the flight's position is already advanced to Step.To;
// the carrier is responsible for modeling the traversal (service time,
// link contention). After StepWait the carrier should re-Step once the
// wait has elapsed. StepDone/StepFail are terminal and repeatable.
func (f *Flight) Step() Step {
	if f.outcome != OutcomePending {
		return f.terminal()
	}
	for {
		if f.cur == f.dst {
			if f.degraded {
				return f.finish(OutcomeDeliveredDegraded, f.reason)
			}
			return f.finish(OutcomeDelivered, "")
		}
		if f.oracleNodeFaulty(f.cur) {
			// The node under the packet died; its buffers die with it.
			return f.finish(OutcomeUndeliverable, "current node failed under the packet")
		}
		if f.hops >= f.r.ttl {
			return f.finish(OutcomeUndeliverable, "TTL exhausted")
		}
		if f.planIdx+1 >= len(f.plan) {
			if st, ok := f.replan(); !ok {
				return st
			}
			continue
		}
		next := f.plan[f.planIdx+1]
		dim := uint(bitutil.LowestBit(uint64(f.cur ^ next)))
		if !f.oracleLinkFaulty(f.cur, dim) && !f.oracleNodeFaulty(next) {
			if t := f.tracer; t != nil {
				k := trace.KindFlip
				if dim < f.r.cube.Alpha() {
					k = trace.KindHop
				}
				t.Emit(trace.Event{Kind: k, Dim: uint8(dim), From: uint32(f.cur), To: uint32(next)})
			}
			f.cur = next
			f.planIdx++
			f.hops++
			f.attempt = 0
			f.path = append(f.path, next)
			f.visits[next]++
			if f.visits[next] > maxVisits {
				return f.finish(OutcomeUndeliverable, "livelock guard: node revisited too often")
			}
			return Step{Kind: StepMove, To: next}
		}
		// Blocked: a fault discovered locally.
		if f.transientBlockage(f.cur, dim) && f.retries < maxRetries {
			return f.backoff()
		}
		f.record(f.cur, dim, next)
		if f.tree >= 0 && dim < f.r.cube.Alpha() && f.treeSwitches < f.r.opts.trees.K()-1 {
			// A faulted tree-edge crossing on a multipath flight: fail
			// over to a sibling tree before the replan, so the new plan
			// steers its crossings through a stripe where this fault is,
			// by link-disjointness, a different physical link.
			f.failoverTree()
		}
		f.plan = f.plan[:0] // force a replan over the grown blacklist
		f.planIdx = 0
		f.attempt = 0
	}
}

// failoverTree rotates the flight to the next sibling tree; the next
// replan plans there. The blacklist carries over — failover adds
// knowledge, it never forgets any.
func (f *Flight) failoverTree() {
	f.treeSwitches++
	f.tree = (f.tree + 1) % f.r.opts.trees.K()
	f.degraded = true
	if t := f.tracer; t != nil {
		t.Emit(trace.Event{Kind: trace.KindTreeFailover, From: uint32(f.cur), Arg: int32(f.tree)})
	}
}

// replan recomputes the path from the current node against the
// blacklist. ok=false means the returned step must be surfaced (a
// terminal failure, or a wait while transient knowledge is flushed).
func (f *Flight) replan() (Step, bool) {
	path, m, err := f.planner.AppendRoute(context.Background(), f.plan[:0], f.cur, f.dst, f.tree, nil)
	if err == nil {
		if f.planned {
			f.replans++
			f.degraded = true
			if t := f.tracer; t != nil {
				t.Emit(trace.Event{Kind: trace.KindReplan, From: uint32(f.cur), Arg: int32(f.replans)})
				if f.openDetours > 0 {
					f.openDetours--
					t.Emit(trace.Event{Kind: trace.KindDetourExit})
				}
			}
		}
		f.planned = true
		if m.Fallback {
			f.fallback = true
			f.degraded = true
			f.reason = "BFS last resort"
		}
		f.plan = path
		f.planIdx = 0
		return Step{}, true
	}
	// No route against current knowledge. If some of that knowledge is
	// transient it may already be stale: wait, forget it, and rediscover
	// whatever is still broken.
	if f.retries < maxRetries && f.forgetTransient() {
		f.plan = f.plan[:0]
		f.planIdx = 0
		return f.backoff(), false
	}
	if err == ErrFaultyEndpoint {
		return f.finish(OutcomeUndeliverable, "destination faulty"), false
	}
	if errors.Is(err, ErrPartitioned) {
		return f.finish(OutcomeUndeliverablePartitioned, "destination class severed from source component"), false
	}
	return f.finish(OutcomeUndeliverable, "no route around discovered faults"), false
}

// backoff produces the next exponential wait.
func (f *Flight) backoff() Step {
	wait := backoffBase << f.attempt
	if wait > maxBackoff || wait <= 0 {
		wait = maxBackoff
	}
	f.attempt++
	f.retries++
	f.waited += wait
	f.degraded = true
	if t := f.tracer; t != nil {
		t.Emit(trace.Event{Kind: trace.KindBackoff, From: uint32(f.cur), Arg: int32(wait)})
	}
	return Step{Kind: StepWait, Wait: wait}
}

// record adds the locally observed blockage at (cur, dim) to the
// blacklist, categorized per Definitions 3–5.
func (f *Flight) record(cur gc.NodeID, dim uint, next gc.NodeID) {
	var df DiscoveredFault
	if f.oracleNodeFaulty(next) {
		df.Fault = fault.Fault{Kind: fault.KindNode, Node: next}
		if !f.blacklist.NodeFaulty(next) {
			f.blacklist.AddNode(next)
		}
		if f.r.transient != nil {
			df.Transient = f.r.transient.TransientNode(next)
		}
	} else {
		df.Fault = fault.Fault{Kind: fault.KindLink, Node: cur, Dim: dim}
		if !f.blacklist.LinkFaulty(cur, dim) {
			f.blacklist.AddLink(cur, dim)
		}
		if f.r.transient != nil {
			df.Transient = f.r.transient.TransientAt(cur, dim)
		}
	}
	df.Category = f.blacklist.Categorize(df.Fault)
	f.found = append(f.found, df)
	f.degraded = true
	if t := f.tracer; t != nil {
		t.Emit(trace.Event{
			Kind: trace.KindDetourEnter, Cat: traceCat(df.Category),
			Dim: uint8(dim), From: uint32(cur), To: uint32(next),
			Note: "discovered-fault",
		})
		f.openDetours++
	}
}

// traceCat maps the paper's fault category onto the trace taxonomy.
func traceCat(c fault.Category) trace.Cat {
	switch c {
	case fault.CategoryA:
		return trace.CatA
	case fault.CategoryB:
		return trace.CatB
	case fault.CategoryC:
		return trace.CatC
	default:
		return trace.CatNone
	}
}

// forgetTransient rebuilds the blacklist from its permanent discoveries
// only, reporting whether any transient knowledge was dropped.
func (f *Flight) forgetTransient() bool {
	dropped := false
	for _, df := range f.found {
		if df.Transient {
			dropped = true
			break
		}
	}
	if !dropped {
		return false
	}
	fresh := fault.NewSet(f.r.cube)
	kept := f.found[:0]
	for _, df := range f.found {
		if df.Transient {
			continue
		}
		kept = append(kept, df)
		if df.Fault.Kind == fault.KindNode {
			fresh.AddNode(df.Fault.Node)
		} else if !fresh.LinkFaulty(df.Fault.Node, df.Fault.Dim) {
			fresh.AddLink(df.Fault.Node, df.Fault.Dim)
		}
	}
	f.found = kept
	*f.blacklist = *fresh // planner holds the pointer; swap contents
	return true
}

// transientBlockage reports whether waiting the blockage out is
// expected to succeed.
func (f *Flight) transientBlockage(cur gc.NodeID, dim uint) bool {
	return f.r.transient != nil && f.r.transient.TransientAt(cur, dim)
}

func (f *Flight) oracleNodeFaulty(v gc.NodeID) bool {
	return f.r.oracle != nil && f.r.oracle.NodeFaulty(v)
}

func (f *Flight) oracleLinkFaulty(v gc.NodeID, dim uint) bool {
	return f.r.oracle != nil && f.r.oracle.LinkFaulty(v, dim)
}

func (f *Flight) finish(o Outcome, reason string) Step {
	f.outcome = o
	if reason != "" {
		f.reason = reason
	}
	if t := f.tracer; t != nil {
		t.Emit(trace.Event{
			Kind: trace.KindOutcome, From: uint32(f.cur),
			Arg: trace.OutcomeLadderBase + int32(o), Note: f.reason,
		})
	}
	return f.terminal()
}

func (f *Flight) terminal() Step {
	kind := StepDone
	if f.outcome.Undeliverable() {
		kind = StepFail
	}
	return Step{Kind: kind, Outcome: f.outcome, Reason: f.reason}
}

// Accessors for carriers and reporting.

// Cur returns the flight's current node.
func (f *Flight) Cur() gc.NodeID { return f.cur }

// Dst returns the destination.
func (f *Flight) Dst() gc.NodeID { return f.dst }

// Path returns the hop-by-hop walk taken so far (endpoints included).
// The slice is owned by the flight.
func (f *Flight) Path() []gc.NodeID { return f.path }

// Hops returns the hops taken so far.
func (f *Flight) Hops() int { return f.hops }

// Retries returns the transient wait-and-retry attempts used.
func (f *Flight) Retries() int { return f.retries }

// Replans returns how many times a discovered fault forced a new plan.
func (f *Flight) Replans() int { return f.replans }

// WaitCycles returns the total cycles spent backing off.
func (f *Flight) WaitCycles() int { return f.waited }

// Degraded reports whether the flight left the clean-delivery rung.
func (f *Flight) Degraded() bool { return f.degraded }

// UsedFallback reports whether a replan resorted to BFS.
func (f *Flight) UsedFallback() bool { return f.fallback }

// Outcome returns the terminal classification (OutcomePending while in
// flight).
func (f *Flight) Outcome() Outcome { return f.outcome }

// Reason returns the failure or degradation explanation.
func (f *Flight) Reason() string { return f.reason }

// Discovered returns the faults this flight bumped into, in discovery
// order (transient knowledge flushed by a backoff is dropped).
func (f *Flight) Discovered() []DiscoveredFault { return f.found }

// Tree returns the multipath tree the flight currently plans over (-1
// on a single-tree router).
func (f *Flight) Tree() int { return f.tree }

// TreeSwitches returns how many sibling-tree failovers the flight took.
func (f *Flight) TreeSwitches() int { return f.treeSwitches }

// DetourHops returns the hops taken beyond the fault-free optimum of
// the full source/destination pair.
func (f *Flight) DetourHops() int {
	if len(f.path) == 0 {
		return 0
	}
	return f.hops - f.r.cube.Distance(f.path[0], f.dst)
}

// Route drives a flight from s to d to completion without a carrier
// (Flight.Run). onWait, when non-nil, is invoked for every backoff with
// the wait length — the hook tests and offline drivers use to advance
// a fault.Dynamic clock so that transient faults actually heal. With a
// static oracle and nil onWait, waits burn the retry budget and the
// blockage is then handled as permanent.
func (r *AdaptiveRouter) Route(s, d gc.NodeID, onWait func(cycles int)) (*RouteReport, error) {
	f, err := r.Start(s, d)
	if err != nil {
		return nil, err
	}
	return f.Run(context.Background(), onWait), nil
}

// Run drives the flight to completion without a carrier and reports it:
// the one flight loop behind AdaptiveRouter.Route and RouteContext. ctx
// is checked before every step; a cancellation or deadline expiry
// finishes the flight (emitting the traced outcome, when tracing is on)
// with OutcomeCanceled and a report of the partial progress. onWait,
// when non-nil, receives every backoff's wait length; the wait itself
// is instantaneous (the retry budget still bounds it). Carriers that
// model time drive Step themselves.
func (f *Flight) Run(ctx context.Context, onWait func(cycles int)) *RouteReport {
	for {
		if cerr := ctx.Err(); cerr != nil {
			return f.report(f.finish(OutcomeCanceled, cerr.Error()))
		}
		st := f.Step()
		switch st.Kind {
		case StepWait:
			if onWait != nil {
				onWait(st.Wait)
			}
		case StepDone, StepFail:
			return f.report(st)
		}
	}
}
