package main

import (
	"errors"
	"time"

	"gaussiancube/internal/core"
	"gaussiancube/internal/fault"
	"gaussiancube/internal/gc"
)

// planGroup is a batch of a workload's own pairs with the frozen fault
// set they are served against.
type planGroup struct {
	cube   *gc.Cube
	faults *fault.Set // nil or empty for fault-free
	pairs  [][2]gc.NodeID
}

// planPass times the core planner alone (Router.RouteInto, the
// zero-allocation entry point) on the workload's own pairs and frozen
// faults, and measures route quality with Router.Route: the share of
// routes that detour, the share that need the BFS fallback, and the
// mean hops beyond the fault-free optimum. Pairs with a faulty
// endpoint are skipped, as the serving layer refuses them first.
func planPass(r *report, groups []planGroup, budget time.Duration) {
	var routes, detours, fallbacks, extra, planned float64
	var elapsed time.Duration
	var allocs float64
	per := budget / time.Duration(max(len(groups), 1))
	for _, g := range groups {
		var opts []core.Option
		if g.faults != nil && g.faults.Count() > 0 {
			opts = append(opts, core.WithFaults(g.faults))
		}
		rt := core.NewRouter(g.cube, opts...)
		pairs := g.pairs[:0:0]
		for _, p := range g.pairs {
			if g.faults == nil || (!g.faults.NodeFaulty(p[0]) && !g.faults.NodeFaulty(p[1])) {
				pairs = append(pairs, p)
			}
		}
		if len(pairs) == 0 {
			continue
		}
		for _, p := range pairs {
			res, err := rt.Route(p[0], p[1])
			if err != nil {
				if !errors.Is(err, core.ErrUnreachable) {
					r.wrongAnswer("core: " + err.Error())
				}
				continue
			}
			routes++
			if res.Extra() > 0 {
				detours++
				extra += float64(res.Extra())
			}
			if res.UsedFallback {
				fallbacks++
			}
		}
		// Warm the scratch pool and path buffer, then time whole sweeps
		// over the pairs until this group's share of the budget is spent.
		buf := make([]gc.NodeID, 0, 256)
		for _, p := range pairs {
			buf, _ = rt.RouteInto(buf[:0], p[0], p[1])
		}
		a0 := sampleValue(readMetrics(mAllocs)[0])
		start := time.Now()
		n := 0
		for n == 0 || time.Since(start) < per {
			for _, p := range pairs {
				buf, _ = rt.RouteInto(buf[:0], p[0], p[1])
			}
			n += len(pairs)
		}
		elapsed += time.Since(start)
		allocs += sampleValue(readMetrics(mAllocs)[0]) - a0
		planned += float64(n)
	}
	if planned == 0 || routes == 0 {
		return
	}
	r.set("core.plan_ns", float64(elapsed.Nanoseconds())/planned)
	r.set("core.plan_allocs", allocs/planned)
	r.set("core.detour_ratio", detours/routes)
	r.set("core.fallback_ratio", fallbacks/routes)
	r.set("core.extra_hops", extra/routes)
}
