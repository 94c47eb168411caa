// The unified routing entry point. The omniscient planner
// (Router.Route / RouteInto) and the per-hop discovery stepper
// (AdaptiveRouter.Start / StartTraced) each have their own drivers, but
// a caller that wants neither distinction holds "something that
// routes", hands it a context carrying the request deadline, and
// serializes one outcome ladder. Routing is that contract, satisfied by
// both routers; RouteReport is the shared envelope.
package core

import (
	"context"

	"gaussiancube/internal/gc"
)

// RouteReport is the unified envelope returned by Routing
// implementations and AdaptiveRouter.Route. A static planner route
// fills the plan-level fields (Outcome, Reason, Path, Hops, DetourHops,
// UsedFallback, TreeID) and leaves the discovery counters zero — a
// static route is a flight with no discoveries.
type RouteReport struct {
	Outcome      Outcome
	Reason       string
	Path         []gc.NodeID
	Hops         int
	Retries      int
	Replans      int
	WaitCycles   int
	DetourHops   int
	UsedFallback bool
	Discovered   []DiscoveredFault
	// TreeID is the multipath tree the route was (last) planned over;
	// -1 on a single-tree router.
	TreeID int
	// TreeSwitches counts sibling-tree failovers (adaptive flights).
	TreeSwitches int
}

// Routing is the context-aware entry point shared by Router (whole-
// path planning against a known fault set) and AdaptiveRouter (per-hop
// local discovery against an oracle).
//
// RouteContext separates caller mistakes from network verdicts: a
// non-nil error means the request itself was invalid (node out of
// range, faulty source endpoint) and carries no report; every network
// verdict — delivery, degradation, unreachability, a proven partition,
// or cancellation — is a nil error with the verdict on the report's
// Outcome ladder. Cancellation and deadline expiry are checked between
// hops and surface as OutcomeCanceled.
type Routing interface {
	// Cube returns the cube routes are computed over.
	Cube() *gc.Cube
	// RouteContext routes from s to d under ctx.
	RouteContext(ctx context.Context, s, d gc.NodeID) (*RouteReport, error)
}

// Both routers satisfy the contract.
var (
	_ Routing = (*Router)(nil)
	_ Routing = (*AdaptiveRouter)(nil)
)

// RouteContext implements Routing on the static planner: AppendRoute
// into a fresh path, lifted onto the outcome ladder by
// RouteMeta.Report. The plan is computed and executed under ctx
// (checked between hops of the class walk); routing failures land on
// the report's Outcome rather than in the error.
func (r *Router) RouteContext(ctx context.Context, s, d gc.NodeID) (*RouteReport, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	path, m, err := r.AppendRoute(ctx, nil, s, d, r.tree, r.tracer)
	rep, err := m.Report(path, err)
	if err != nil {
		return nil, err
	}
	return &rep, nil
}

// RouteContext implements Routing on the adaptive stepper: it drives a
// flight from s to d to completion under ctx (Flight.Run), with every
// StepWait backoff instantaneous. Carriers that model time should drive
// Flight.Step themselves (or use Route with an onWait hook).
func (r *AdaptiveRouter) RouteContext(ctx context.Context, s, d gc.NodeID) (*RouteReport, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	f, err := r.Start(s, d)
	if err != nil {
		return nil, err
	}
	return f.Run(ctx, nil), nil
}

// report snapshots the flight into the unified envelope after a
// terminal step.
func (f *Flight) report(st Step) *RouteReport {
	return &RouteReport{
		Outcome:      st.Outcome,
		Reason:       st.Reason,
		Path:         f.Path(),
		Hops:         f.Hops(),
		Retries:      f.Retries(),
		Replans:      f.Replans(),
		WaitCycles:   f.WaitCycles(),
		DetourHops:   f.DetourHops(),
		UsedFallback: f.UsedFallback(),
		Discovered:   f.Discovered(),
		TreeID:       f.Tree(),
		TreeSwitches: f.TreeSwitches(),
	}
}
