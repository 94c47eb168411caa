// The construction surface: one set of functional options read by both
// routers. NewRouter and NewAdaptiveRouter take the same seven options
// — faults, substrate, repair, fallback, tracer, and the multipath tree
// set with its pin — and unset options keep their zero-value defaults.
package core

import (
	"gaussiancube/internal/fault"
	"gaussiancube/internal/mtree"
	"gaussiancube/internal/repair"
	"gaussiancube/internal/trace"
)

// TreeAuto selects a multipath tree per flow (hashing source and
// destination, mtree.TreeSet.TreeForFlow) instead of pinning one tree
// for every route. It is only meaningful alongside WithTrees or
// WithTree.
const TreeAuto = -1

// options is the configuration the Option values fill, embedded in
// Router. Its zero value (with tree set to TreeAuto) is a fault-free,
// single-tree, untraced router with the BFS fallback enabled.
type options struct {
	faults     *fault.Set     // nil means fault-free
	substrate  Substrate      // intra-class fault-tolerant router
	repair     *repair.Health // nil means no tree-repair planning
	noFallback bool           // no BFS last resort
	// tracer, when non-nil, receives the structured event narrative of
	// every route planned on the router's defaults (Route, RouteInto,
	// RouteContext, Start, and the collective plans): hops, detours
	// with category causes, repair crossings, rollbacks and outcomes.
	// nil means tracing is off and costs nothing (the hot path's
	// zero-allocation property is enforced by the alloc regression
	// tests). AppendRoute and StartTraced take a tracer per call.
	tracer trace.Tracer
	// trees, when non-nil, activates multipath routing: each route is
	// planned for one tree of the set (trees.Resolve of its pin) and
	// steers its class crossings through that tree's frame stripe. nil
	// is the paper's single-tree router, bit for bit. tree is the
	// default pin; AppendRoute and StartTraced take a pin per call.
	trees *mtree.TreeSet
	tree  int
}

// Option configures either router's construction.
type Option func(*options)

// buildOptions applies opts over the defaults.
func buildOptions(opts []Option) options {
	o := options{tree: TreeAuto}
	for _, opt := range opts {
		opt(&o)
	}
	return o
}

// WithFaults supplies the fault set the planner must avoid; without it
// the planner is fault-free. The adaptive router ignores it: its ground
// truth is the oracle, and each flight discovers faults for itself.
func WithFaults(s *fault.Set) Option { return func(o *options) { o.faults = s } }

// WithSubstrate selects the intra-class fault-tolerant hypercube router.
func WithSubstrate(s Substrate) Option { return func(o *options) { o.substrate = s } }

// WithRepair supplies a tree-edge health map the router consults before
// committing to a tree edge: severed edges yield detour class-paths
// through surviving realizations, and a provably cut-off destination
// class returns ErrPartitioned (OutcomeUndeliverablePartitioned on the
// adaptive router) without burning a BFS. The map must describe the
// same fault state as WithFaults, or as the adaptive router's oracle
// (repair.Health.AttachDynamic keeps it in step) — the partition
// verdict is only as sound as that agreement.
func WithRepair(h *repair.Health) Option { return func(o *options) { o.repair = h } }

// WithoutFallback disables the BFS last resort, exposing the bare
// strategy.
func WithoutFallback() Option { return func(o *options) { o.noFallback = true } }

// WithTracer attaches the default trace sink: the tracer of every
// route that does not bring its own (AppendRoute and StartTraced take
// one per call). The planner emits one structured event per hop,
// detour, repair crossing, rollback and terminal outcome (the taxonomy
// of internal/trace); the event stream of a successful route replays
// to exactly the returned path — see trace.Replay. The
// adaptive router emits each flight's hops, fault discoveries with
// their category, backoffs, replans and its terminal outcome (encoded
// as trace.OutcomeLadderBase + Outcome). A nil tracer keeps tracing
// disabled at zero cost.
func WithTracer(t trace.Tracer) Option { return func(o *options) { o.tracer = t } }

// WithTrees activates multipath routing over ts, striping flows across
// its trees (TreeAuto). Routes steer their class crossings through
// their tree's frame stripe; adaptive flights additionally fail over to
// a sibling tree on discovering a faulted crossing. Combine with
// WithTree to pin one tree instead.
func WithTrees(ts *mtree.TreeSet) Option {
	return func(o *options) { o.trees = ts; o.tree = TreeAuto }
}

// WithTree activates multipath routing over ts with every route pinned
// to the given tree by default; an index outside [0, ts.K()) stripes
// per flow, as TreeAuto does (mtree.TreeSet.Resolve). AppendRoute and
// StartTraced take their pin per call.
func WithTree(ts *mtree.TreeSet, tree int) Option {
	return func(o *options) { o.trees = ts; o.tree = tree }
}
