package core

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"testing"

	"gaussiancube/internal/fault"
	"gaussiancube/internal/gc"
	"gaussiancube/internal/graph"
	"gaussiancube/internal/trace"
)

// FuzzRouteAgainstOracle differentially checks the full strategy
// against a plain BFS oracle over the same healthy subgraph, for
// arbitrary cube parameters, endpoints, and fault populations:
//
//  1. oracle reachable => the router must deliver, the path must be
//     valid and healthy, and it must never be shorter than the
//     oracle's shortest path;
//  2. oracle unreachable => the router must fail with a typed error
//     wrapping ErrUnreachable, never a panic or a bogus path;
//  3. the traced event stream must replay to exactly the returned
//     path (the observability layer may not lie about the route);
//  4. RouteInto and RouteContext on the same router agree with Route:
//     the same path, UsedFallback exactly when the report says
//     OutcomeDeliveredDegraded, and ErrUnreachable exactly when the
//     report says OutcomeUndeliverable.
func FuzzRouteAgainstOracle(f *testing.F) {
	f.Add(uint8(8), uint8(2), uint16(5), uint16(201), int64(42), uint8(3), uint8(2))
	f.Add(uint8(6), uint8(0), uint16(0), uint16(63), int64(7), uint8(0), uint8(0))
	f.Add(uint8(7), uint8(7), uint16(1), uint16(100), int64(1), uint8(10), uint8(6))
	f.Add(uint8(5), uint8(1), uint16(30), uint16(30), int64(9), uint8(4), uint8(0))
	f.Add(uint8(9), uint8(3), uint16(77), uint16(400), int64(1234), uint8(20), uint8(12))
	f.Fuzz(func(t *testing.T, nRaw, aRaw uint8, sRaw, dRaw uint16, seed int64, nodeFaults, linkFaults uint8) {
		n := uint(3 + nRaw%8)
		alpha := uint(aRaw) % (n + 1)
		cube := gc.New(n, alpha)
		mod := uint16(cube.Nodes())
		s := gc.NodeID(sRaw % mod)
		d := gc.NodeID(dRaw % mod)

		fs := fault.NewSet(cube)
		rng := rand.New(rand.NewSource(seed))
		fs.InjectRandomNodes(rng, int(nodeFaults)%(cube.Nodes()/2), s, d)
		for i := 0; i < int(linkFaults)%16; i++ {
			v := gc.NodeID(rng.Intn(cube.Nodes()))
			if dims := cube.LinkDims(v); len(dims) > 0 {
				fs.AddLink(v, dims[rng.Intn(len(dims))])
			}
		}

		oracle := graph.ShortestPath(healthyView{cube: cube, faults: fs}, s, d)

		ring := trace.NewRing(4096)
		r := NewRouter(cube, WithFaults(fs), WithTracer(ring))
		res, err := r.Route(s, d)
		events := ring.Events()
		checkEntryPointParity(t, r, s, d, res, err)

		if oracle == nil {
			if err == nil {
				t.Fatalf("oracle proves %d -> %d unreachable but router returned a %d-hop path",
					s, d, res.Hops())
			}
			if !errors.Is(err, ErrUnreachable) {
				t.Fatalf("unreachable pair must fail with ErrUnreachable, got: %v", err)
			}
			return
		}
		if err != nil {
			t.Fatalf("oracle found a %d-hop path for %d -> %d but router failed: %v",
				len(oracle)-1, s, d, err)
		}
		if verr := ValidatePath(cube, fs, res.Path, s, d); verr != nil {
			t.Fatal(verr)
		}
		if res.Hops() < len(oracle)-1 {
			t.Fatalf("router path (%d hops) beats the BFS oracle (%d hops): shortest-path violation",
				res.Hops(), len(oracle)-1)
		}

		walk, rerr := trace.Replay(uint32(s), events)
		if rerr != nil {
			t.Fatalf("trace does not replay: %v", rerr)
		}
		if len(walk) != len(res.Path) {
			t.Fatalf("trace replays to %d nodes, path has %d", len(walk), len(res.Path))
		}
		for i, v := range walk {
			if gc.NodeID(v) != res.Path[i] {
				t.Fatalf("trace diverges from path at hop %d: %d vs %d", i, v, res.Path[i])
			}
		}
	})
}

// checkEntryPointParity runs RouteInto and RouteContext on r and
// requires both to agree with Route's verdict (res, err) for s -> d.
func checkEntryPointParity(t *testing.T, r *Router, s, d gc.NodeID, res *Result, err error) {
	t.Helper()
	into, ierr := r.RouteInto(nil, s, d)
	rep, cerr := r.RouteContext(context.Background(), s, d)
	switch {
	case err == nil:
		if ierr != nil || cerr != nil {
			t.Fatalf("Route delivered but RouteInto err=%v, RouteContext err=%v", ierr, cerr)
		}
		if !slices.Equal(into, res.Path) || !slices.Equal(rep.Path, res.Path) {
			t.Fatalf("entry points disagree on %d -> %d:\nRoute        %v\nRouteInto    %v\nRouteContext %v",
				s, d, res.Path, into, rep.Path)
		}
		if rep.UsedFallback != res.UsedFallback || (rep.Outcome == OutcomeDeliveredDegraded) != res.UsedFallback {
			t.Fatalf("fallback verdicts disagree: Route UsedFallback=%v, report %v (UsedFallback=%v)",
				res.UsedFallback, rep.Outcome, rep.UsedFallback)
		}
		if rep.Outcome != OutcomeDelivered && rep.Outcome != OutcomeDeliveredDegraded {
			t.Fatalf("delivered route reported %v", rep.Outcome)
		}
		if rep.Hops != res.Hops() || rep.DetourHops != res.Extra() || rep.TreeID != res.Tree {
			t.Fatalf("report %+v disagrees with result hops=%d extra=%d tree=%d",
				rep, res.Hops(), res.Extra(), res.Tree)
		}
	case errors.Is(err, ErrUnreachable):
		if !errors.Is(ierr, ErrUnreachable) || len(into) != 0 {
			t.Fatalf("Route unreachable but RouteInto returned %v, %v", into, ierr)
		}
		want := OutcomeUndeliverable
		if errors.Is(err, ErrPartitioned) {
			want = OutcomeUndeliverablePartitioned
		}
		if cerr != nil || rep.Outcome != want {
			t.Fatalf("Route %v but RouteContext returned (%+v, %v), want outcome %v", err, rep, cerr, want)
		}
	default:
		if ierr == nil || cerr == nil || rep != nil {
			t.Fatalf("Route rejected the request (%v) but RouteInto err=%v, RouteContext=(%v, %v)",
				err, ierr, rep, cerr)
		}
	}
}
