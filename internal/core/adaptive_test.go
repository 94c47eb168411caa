package core

import (
	"math/rand"
	"sync"
	"testing"

	"gaussiancube/internal/fault"
	"gaussiancube/internal/gc"
)

func equalPaths(a, b []gc.NodeID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestAdaptiveFullKnowledgeEquivalence is the property test of the
// stepper's correctness anchor: a flight whose blacklist is
// pre-populated with the complete fault set must reproduce exactly the
// static FFGCR-with-faults path — full knowledge makes the plans
// coincide, and no en-route discovery ever perturbs them.
func TestAdaptiveFullKnowledgeEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, tc := range []struct {
		n, alpha uint
		faults   int
	}{
		{6, 0, 2}, {6, 1, 2}, {7, 1, 3}, {7, 2, 3}, {8, 1, 4}, {8, 2, 5},
	} {
		cube := gc.New(tc.n, tc.alpha)
		for trial := 0; trial < 25; trial++ {
			fs := fault.NewSet(cube)
			fs.InjectRandomNodes(rng, tc.faults)
			fs.Freeze()
			static := NewRouter(cube, WithFaults(fs))
			adaptive := NewAdaptiveRouter(cube, fs)
			for pair := 0; pair < 20; pair++ {
				s := gc.NodeID(rng.Intn(cube.Nodes()))
				d := gc.NodeID(rng.Intn(cube.Nodes()))
				if s == d || fs.NodeFaulty(s) || fs.NodeFaulty(d) {
					continue
				}
				want, err := static.Route(s, d)
				f, ferr := adaptive.start(s, d, fs)
				if ferr != nil {
					t.Fatalf("GC(%d,%d) start(%d,%d): %v", tc.n, tc.alpha, s, d, ferr)
				}
				var st Step
				for st = f.Step(); st.Kind == StepMove; st = f.Step() {
				}
				if err != nil {
					// Static routing failed entirely (disconnected pair);
					// the informed flight must fail too, not wander.
					if st.Kind != StepFail {
						t.Fatalf("GC(%d,%d) %d->%d: static unroutable but flight ended %v",
							tc.n, tc.alpha, s, d, st)
					}
					continue
				}
				if st.Kind != StepDone {
					t.Fatalf("GC(%d,%d) %d->%d: flight failed (%s) but static routed",
						tc.n, tc.alpha, s, d, st.Reason)
				}
				if !equalPaths(want.Path, f.Path()) {
					t.Fatalf("GC(%d,%d) %d->%d: paths diverge\nstatic:  %v\nadaptive: %v",
						tc.n, tc.alpha, s, d, want.Path, f.Path())
				}
				if f.Retries() != 0 || f.Replans() != 0 {
					t.Fatalf("full knowledge must never retry or replan: %d/%d",
						f.Retries(), f.Replans())
				}
				if want.UsedFallback != f.UsedFallback() {
					t.Fatalf("fallback provenance diverges: static=%v flight=%v",
						want.UsedFallback, f.UsedFallback())
				}
			}
		}
	}
}

// TestAdaptiveBlindDiscovery: with an empty blacklist the flight plans
// fault-free, bumps into the fault, detours, and still delivers a
// valid path over the healthy subgraph.
func TestAdaptiveBlindDiscovery(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	cube := gc.New(7, 1)
	for trial := 0; trial < 40; trial++ {
		fs := fault.NewSet(cube)
		fs.InjectRandomNodes(rng, 3)
		fs.Freeze()
		adaptive := NewAdaptiveRouter(cube, fs)
		for pair := 0; pair < 10; pair++ {
			s := gc.NodeID(rng.Intn(cube.Nodes()))
			d := gc.NodeID(rng.Intn(cube.Nodes()))
			if s == d || fs.NodeFaulty(s) || fs.NodeFaulty(d) {
				continue
			}
			res, err := adaptive.Route(s, d, nil)
			if err != nil {
				t.Fatal(err)
			}
			if res.Outcome == OutcomeUndeliverable {
				// Legitimate only if the healthy subgraph really cut the
				// pair off; the BFS last resort makes this near-impossible
				// at 3 faults in GC(7,2), so treat it as a failure.
				t.Fatalf("%d->%d undeliverable (%s) with 3 faults", s, d, res.Reason)
			}
			if err := ValidatePath(cube, fs, res.Path, s, d); err != nil {
				t.Fatalf("%d->%d invalid adaptive path: %v", s, d, err)
			}
			for _, df := range res.Discovered {
				if fs.Categorize(df.Fault) != df.Category {
					t.Fatalf("category mismatch on %+v", df)
				}
			}
		}
	}
}

// TestAdaptiveMidFlightRepair: a transient fault blocks the only
// planned hop at discovery time and is repaired k cycles later; the
// flight backs off, retries, and delivers once the network heals.
func TestAdaptiveMidFlightRepair(t *testing.T) {
	cube := gc.New(6, 1)
	s, d := gc.NodeID(0), gc.NodeID(1)
	// Kill the destination's whole neighborhood transiently: every link
	// into d is blocked until repair, so no detour can succeed and the
	// flight must wait.
	var events []fault.Event
	for _, dim := range cube.LinkDims(d) {
		f := fault.Fault{Kind: fault.KindLink, Node: d, Dim: dim}
		events = append(events,
			fault.Event{Time: 0, Op: fault.OpInject, Fault: f},
			fault.Event{Time: 12, Op: fault.OpRepair, Fault: f},
		)
	}
	dyn := fault.NewDynamic(cube, events)
	dyn.AdvanceTo(0)

	adaptive := NewAdaptiveRouter(cube, dyn)
	now := 0
	res, err := adaptive.Route(s, d, func(wait int) {
		now += wait
		dyn.AdvanceTo(now)
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != OutcomeDeliveredDegraded {
		t.Fatalf("outcome = %v (%s), want delivered-degraded", res.Outcome, res.Reason)
	}
	if res.Retries == 0 || res.WaitCycles == 0 {
		t.Fatalf("a transient blockage must be waited out: %+v", res)
	}
	if now < 12 {
		t.Fatalf("delivered at %d, before the repair at 12", now)
	}
	if res.Path[len(res.Path)-1] != d {
		t.Fatalf("path does not end at destination: %v", res.Path)
	}
}

// TestAdaptivePermanentDestinationDeath: a permanently dead destination
// is classified Undeliverable with the right reason, without waiting.
func TestAdaptivePermanentDestinationDeath(t *testing.T) {
	cube := gc.New(6, 1)
	dyn := fault.NewDynamic(cube, []fault.Event{
		{Time: 0, Op: fault.OpInject, Fault: fault.Fault{Kind: fault.KindNode, Node: 9}},
	})
	dyn.AdvanceTo(0)
	adaptive := NewAdaptiveRouter(cube, dyn)
	res, err := adaptive.Route(0, 9, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != OutcomeUndeliverable || res.Reason != "destination faulty" {
		t.Fatalf("want undeliverable/destination faulty, got %v (%q)", res.Outcome, res.Reason)
	}
	if res.Retries != 0 {
		t.Fatalf("permanent faults must not be waited on: %+v", res)
	}
}

// TestAdaptiveFaultySourceRejected mirrors assumption 1 locally.
func TestAdaptiveFaultySourceRejected(t *testing.T) {
	cube := gc.New(6, 1)
	fs := fault.NewSet(cube)
	fs.AddNode(4)
	fs.Freeze()
	adaptive := NewAdaptiveRouter(cube, fs)
	if _, err := adaptive.Start(4, 0); err != ErrFaultyEndpoint {
		t.Fatalf("err = %v, want ErrFaultyEndpoint", err)
	}
}

// TestAdaptiveTTLGuard: an absurdly small TTL terminates the flight
// with the TTL reason instead of looping.
func TestAdaptiveTTLGuard(t *testing.T) {
	cube := gc.New(8, 1)
	adaptive := NewAdaptiveRouter(cube, nil)
	adaptive.ttl = 2
	res, err := adaptive.Route(0, 255, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != OutcomeUndeliverable || res.Reason != "TTL exhausted" {
		t.Fatalf("want TTL exhaustion, got %v (%q)", res.Outcome, res.Reason)
	}
}

// TestAdaptiveFaultFree: with no oracle the stepper walks the optimal
// FFGCR path cleanly.
func TestAdaptiveFaultFree(t *testing.T) {
	cube := gc.New(7, 1)
	static := NewRouter(cube)
	adaptive := NewAdaptiveRouter(cube, nil)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 50; i++ {
		s := gc.NodeID(rng.Intn(cube.Nodes()))
		d := gc.NodeID(rng.Intn(cube.Nodes()))
		if s == d {
			continue
		}
		res, err := adaptive.Route(s, d, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.Outcome != OutcomeDelivered {
			t.Fatalf("%d->%d: %v (%s)", s, d, res.Outcome, res.Reason)
		}
		want, _ := static.Route(s, d)
		if !equalPaths(want.Path, res.Path) {
			t.Fatalf("fault-free paths diverge: %v vs %v", want.Path, res.Path)
		}
		if res.DetourHops != 0 {
			t.Fatalf("fault-free detour hops = %d", res.DetourHops)
		}
	}
}

// TestFrozenSetSharedAcrossRouters is the -race regression for the
// Set read-only-after-handoff contract: one frozen Set hammered by
// parallel static routers and adaptive flights must be race-free.
func TestFrozenSetSharedAcrossRouters(t *testing.T) {
	cube := gc.New(8, 1)
	fs := fault.NewSet(cube)
	fs.InjectRandomNodes(rand.New(rand.NewSource(9)), 4)
	fs.Freeze()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			static := NewRouter(cube, WithFaults(fs))
			adaptive := NewAdaptiveRouter(cube, fs)
			for i := 0; i < 200; i++ {
				s := gc.NodeID(rng.Intn(cube.Nodes()))
				d := gc.NodeID(rng.Intn(cube.Nodes()))
				if s == d || fs.NodeFaulty(s) || fs.NodeFaulty(d) {
					continue
				}
				if _, err := static.Route(s, d); err != nil {
					t.Errorf("static %d->%d: %v", s, d, err)
					return
				}
				if _, err := adaptive.Route(s, d, nil); err != nil {
					t.Errorf("adaptive %d->%d: %v", s, d, err)
					return
				}
			}
		}(int64(w) + 100)
	}
	wg.Wait()
}
