package core

import (
	"context"
	"errors"
	"strings"
	"testing"

	"gaussiancube/internal/fault"
	"gaussiancube/internal/gc"
)

// TestRoutingParity: both routers satisfy Routing and, over the same
// static fault set (the adaptive side fully informed through zero
// discoveries on a fault-free net), deliver with consistent envelopes.
func TestRoutingParity(t *testing.T) {
	cube := gc.New(8, 2)
	var impls = []struct {
		name string
		r    Routing
	}{
		{"planner", NewRouter(cube)},
		{"adaptive", NewAdaptiveRouter(cube, nil)},
	}
	for _, im := range impls {
		for s := gc.NodeID(0); s < 40; s += 7 {
			d := gc.NodeID(cube.Nodes()-1) - s
			rep, err := im.r.RouteContext(context.Background(), s, d)
			if err != nil {
				t.Fatalf("%s: RouteContext(%d,%d): %v", im.name, s, d, err)
			}
			if rep.Outcome != OutcomeDelivered {
				t.Fatalf("%s: outcome %v, want delivered", im.name, rep.Outcome)
			}
			if len(rep.Path) != rep.Hops+1 || rep.Path[0] != s || rep.Path[rep.Hops] != d {
				t.Fatalf("%s: inconsistent path %v for hops=%d", im.name, rep.Path, rep.Hops)
			}
			if want := cube.Distance(s, d); rep.Hops != want {
				t.Fatalf("%s: %d hops fault-free, want distance %d", im.name, rep.Hops, want)
			}
		}
	}
}

// TestRouteContextCanceled: a canceled context surfaces as
// OutcomeCanceled on the report ladder (nil error) for both routers,
// and as the raw context error with the buffer unextended from the
// route core behind Route, RouteInto and RouteContext.
func TestRouteContextCanceled(t *testing.T) {
	cube := gc.New(8, 2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	r := NewRouter(cube)
	dst := make([]gc.NodeID, 1, 32)
	out, _, err := r.AppendRoute(ctx, dst, 1, 200, TreeAuto, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("route on canceled ctx: err=%v, want context.Canceled", err)
	}
	if len(out) != len(dst) {
		t.Fatalf("canceled route extended the buffer to %d nodes", len(out))
	}

	for _, impl := range []Routing{r, NewAdaptiveRouter(cube, nil)} {
		rep, err := impl.RouteContext(ctx, 1, 200)
		if err != nil {
			t.Fatalf("RouteContext on canceled ctx: err=%v, want nil (report ladder)", err)
		}
		if rep.Outcome != OutcomeCanceled {
			t.Fatalf("outcome %v, want canceled", rep.Outcome)
		}
		if rep.Outcome.Undeliverable() {
			t.Fatal("OutcomeCanceled must not read as undeliverable")
		}
		if !strings.Contains(rep.Reason, "context") {
			t.Fatalf("reason %q does not name the context error", rep.Reason)
		}
	}
}

// TestRouteContextDeadline: an already-expired deadline behaves like
// cancellation.
func TestRouteContextDeadline(t *testing.T) {
	cube := gc.New(8, 2)
	ctx, cancel := context.WithTimeout(context.Background(), -1)
	defer cancel()
	rep, err := NewRouter(cube).RouteContext(ctx, 3, 99)
	if err != nil || rep.Outcome != OutcomeCanceled {
		t.Fatalf("got (%v, %v), want canceled report", rep, err)
	}
}

// TestRouteContextLadder: network verdicts land on the ladder with a
// nil error; caller mistakes stay errors.
func TestRouteContextLadder(t *testing.T) {
	cube := gc.New(6, 2)
	fs := fault.NewSet(cube)
	dst := gc.NodeID(cube.Nodes() - 1)
	for _, w := range cube.Neighbors(dst) {
		fs.AddNode(w)
	}
	r := NewRouter(cube, WithFaults(fs.Freeze()))

	rep, err := r.RouteContext(context.Background(), 0, dst)
	if err != nil {
		t.Fatalf("isolated destination must be a ladder verdict, got err %v", err)
	}
	if rep.Outcome != OutcomeUndeliverable {
		t.Fatalf("outcome %v, want undeliverable", rep.Outcome)
	}

	// Faulty endpoint is the caller's mistake: error, no report.
	rep, err = r.RouteContext(context.Background(), 0, cube.Neighbors(dst)[0])
	if !errors.Is(err, ErrFaultyEndpoint) || rep != nil {
		t.Fatalf("got (%v, %v), want (nil, ErrFaultyEndpoint)", rep, err)
	}
	if _, err := r.RouteContext(context.Background(), 0, gc.NodeID(cube.Nodes())); err == nil {
		t.Fatal("out-of-range destination must error")
	}

	// Degraded delivery: a fault pattern the bare strategy cannot cross
	// falls back to BFS and reports DeliveredDegraded. Build it by
	// blocking the forced class-exit of a one-class route.
	fs2 := fault.NewSet(cube)
	s, d2 := gc.NodeID(0), gc.NodeID(0b110000)
	// d2 is s with two high dimensions flipped; kill d2's GEEC-internal
	// partner so the in-class correction must detour.
	fs2.AddNode(gc.NodeID(0b100000))
	fs2.AddNode(gc.NodeID(0b010000))
	rep, err = NewRouter(cube, WithFaults(fs2.Freeze())).RouteContext(context.Background(), s, d2)
	if err != nil {
		t.Fatalf("blocked class exits: %v", err)
	}
	if rep.Outcome != OutcomeDelivered && rep.Outcome != OutcomeDeliveredDegraded {
		t.Fatalf("outcome %v, want a delivered rung", rep.Outcome)
	}
	if rep.UsedFallback && rep.Outcome != OutcomeDeliveredDegraded {
		t.Fatal("fallback delivery must report degraded")
	}
}

// TestOutcomeCanceledString pins the new rung's name and its position
// after the pre-existing ladder (wire compatibility: earlier rungs
// keep their numeric values).
func TestOutcomeCanceledString(t *testing.T) {
	if OutcomeCanceled.String() != "canceled" {
		t.Fatalf("String() = %q", OutcomeCanceled.String())
	}
	if OutcomeCanceled != OutcomeUndeliverablePartitioned+1 {
		t.Fatal("OutcomeCanceled must extend the ladder, not renumber it")
	}
}
