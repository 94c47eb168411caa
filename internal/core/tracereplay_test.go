package core

import (
	"math/rand"
	"testing"

	"gaussiancube/internal/fault"
	"gaussiancube/internal/gc"
	"gaussiancube/internal/repair"
	"gaussiancube/internal/trace"
)

// The replay property: a traced route's event stream, replayed hop by
// hop (with rollbacks undoing abandoned repair-detour candidates),
// reconstructs exactly the path the router returned. This is the
// contract that makes the gcroute -trace narrative trustworthy — the
// events are not a parallel account that can drift from the route, they
// ARE the route.

func assertReplayMatches(t *testing.T, src gc.NodeID, events []trace.Event, path []gc.NodeID) {
	t.Helper()
	walk, err := trace.Replay(uint32(src), events)
	if err != nil {
		t.Fatalf("replay failed: %v\nevents: %+v", err, events)
	}
	if len(walk) != len(path) {
		t.Fatalf("replayed walk has %d nodes, path has %d\nwalk: %v\npath: %v", len(walk), len(path), walk, path)
	}
	for i := range walk {
		if walk[i] != uint32(path[i]) {
			t.Fatalf("replayed walk diverges at %d: %d vs %d\nwalk: %v\npath: %v", i, walk[i], path[i], walk, path)
		}
	}
}

// outcomeEvents returns the KindOutcome events of the stream.
func outcomeEvents(events []trace.Event) []trace.Event {
	var out []trace.Event
	for _, e := range events {
		if e.Kind == trace.KindOutcome {
			out = append(out, e)
		}
	}
	return out
}

func TestTraceReplayFaultFree(t *testing.T) {
	cube := gc.New(10, 2)
	ring := trace.NewRing(4096)
	r := NewRouter(cube, WithTracer(ring))
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 200; i++ {
		s := gc.NodeID(rng.Intn(cube.Nodes()))
		d := gc.NodeID(rng.Intn(cube.Nodes()))
		ring.Reset()
		res, err := r.Route(s, d)
		if err != nil {
			t.Fatal(err)
		}
		events := ring.Events()
		assertReplayMatches(t, s, events, res.Path)
		// Exactly one terminal event, and it reports success.
		outs := outcomeEvents(events)
		if len(outs) != 1 || outs[0].Arg != trace.OutcomeOK {
			t.Fatalf("want exactly one OK outcome event, got %+v", outs)
		}
		// Each hop of the path is one hop/flip event, split at alpha.
		byKind := trace.CountByKind(events)
		if byKind[trace.KindHop]+byKind[trace.KindFlip] != res.Hops() {
			t.Fatalf("hop events %d+%d, path hops %d",
				byKind[trace.KindHop], byKind[trace.KindFlip], res.Hops())
		}
		treeHops, cubeHops := res.Breakdown(cube)
		if byKind[trace.KindHop] != treeHops || byKind[trace.KindFlip] != cubeHops {
			t.Fatalf("hop/flip split %d/%d, breakdown %d/%d",
				byKind[trace.KindHop], byKind[trace.KindFlip], treeHops, cubeHops)
		}
		// A fault-free route never detours.
		if byKind[trace.KindDetourEnter] != 0 || byKind[trace.KindRollback] != 0 {
			t.Fatalf("fault-free route emitted detour/rollback events: %v", byKind)
		}
	}
}

func TestTraceReplayUnderFaults(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	sawFallback, sawDetour := false, false
	for _, tc := range []struct{ n, alpha uint }{{7, 1}, {8, 2}, {8, 3}} {
		cube := gc.New(tc.n, tc.alpha)
		ring := trace.NewRing(1 << 14)
		for trial := 0; trial < 25; trial++ {
			fs := fault.NewSet(cube)
			fs.InjectRandomNodes(rng, 1+rng.Intn(4))
			fs.InjectRandomLinks(rng, rng.Intn(4))
			r := NewRouter(cube, WithFaults(fs), WithTracer(ring))
			for pair := 0; pair < 20; pair++ {
				s := gc.NodeID(rng.Intn(cube.Nodes()))
				d := gc.NodeID(rng.Intn(cube.Nodes()))
				if fs.NodeFaulty(s) || fs.NodeFaulty(d) {
					continue
				}
				ring.Reset()
				res, err := r.Route(s, d)
				if err != nil {
					continue // unreachable is legitimate; replay only covers returned paths
				}
				events := ring.Events()
				assertReplayMatches(t, s, events, res.Path)
				byKind := trace.CountByKind(events)
				if res.UsedFallback {
					sawFallback = true
					// The fallback narrative must roll back any strategy
					// hops and re-route inside a bfs-fallback detour.
					found := false
					for _, e := range events {
						if e.Kind == trace.KindDetourEnter && e.Note == "bfs-fallback" {
							found = true
						}
					}
					if !found {
						t.Fatalf("fallback route lacks bfs-fallback detour event: %v", events)
					}
				}
				if byKind[trace.KindDetourEnter] > 0 {
					sawDetour = true
					if byKind[trace.KindDetourEnter] != byKind[trace.KindDetourExit] {
						t.Fatalf("unbalanced detour events: %v", byKind)
					}
				}
			}
		}
	}
	if !sawDetour {
		t.Fatal("no trial exercised a detour; the scenario generator regressed")
	}
	if !sawFallback {
		t.Fatal("no trial exercised the BFS fallback; the scenario generator regressed")
	}
}

func TestTraceReplayWithRepairDetours(t *testing.T) {
	rng := rand.New(rand.NewSource(909))
	crossings := 0
	for _, tc := range []struct{ n, alpha uint }{{6, 1}, {7, 2}, {8, 2}} {
		cube := gc.New(tc.n, tc.alpha)
		ring := trace.NewRing(1 << 14)
		for trial := 0; trial < 25; trial++ {
			fs := fault.NewSet(cube)
			injectBC(rng, cube, fs)
			health := repair.NewHealth(cube)
			health.Rebuild(fs)
			r := NewRouter(cube, WithFaults(fs), WithRepair(health), WithoutFallback(), WithTracer(ring))
			for pair := 0; pair < 20; pair++ {
				s := gc.NodeID(rng.Intn(cube.Nodes()))
				d := gc.NodeID(rng.Intn(cube.Nodes()))
				if fs.NodeFaulty(s) || fs.NodeFaulty(d) {
					continue
				}
				ring.Reset()
				res, err := r.Route(s, d)
				if err != nil {
					continue
				}
				events := ring.Events()
				assertReplayMatches(t, s, events, res.Path)
				for _, e := range events {
					if e.Kind == trace.KindRepairCrossing {
						crossings++
						if e.Cat != trace.CatB && e.Cat != trace.CatC {
							t.Fatalf("repair crossing with cause %v, want B or C", e.Cat)
						}
					}
				}
			}
		}
	}
	if crossings == 0 {
		t.Fatal("no trial exercised a repair crossing; the scenario generator regressed")
	}
}

func TestTraceReplayAdaptiveFlight(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	discoveries := 0
	for trial := 0; trial < 40; trial++ {
		cube := gc.New(8, 2)
		fs := fault.NewSet(cube)
		fs.InjectRandomNodes(rng, 1+rng.Intn(4))
		fs.Freeze()
		ring := trace.NewRing(1 << 14)
		ar := NewAdaptiveRouter(cube, fs, WithTracer(ring))
		for pair := 0; pair < 10; pair++ {
			s := gc.NodeID(rng.Intn(cube.Nodes()))
			d := gc.NodeID(rng.Intn(cube.Nodes()))
			if fs.NodeFaulty(s) || fs.NodeFaulty(d) || s == d {
				continue
			}
			ring.Reset()
			res, err := ar.Route(s, d, nil)
			if err != nil {
				t.Fatal(err)
			}
			events := ring.Events()
			// Adaptive flights never roll back: the walk taken is the
			// walk recorded, whatever the outcome.
			assertReplayMatches(t, s, events, res.Path)
			outs := outcomeEvents(events)
			if len(outs) != 1 {
				t.Fatalf("want one outcome event, got %d", len(outs))
			}
			if want := trace.OutcomeLadderBase + int32(res.Outcome); outs[0].Arg != want {
				t.Fatalf("outcome event Arg %d, want %d (%s)", outs[0].Arg, want, res.Outcome)
			}
			for _, e := range events {
				if e.Kind == trace.KindDetourEnter {
					discoveries++
				}
			}
		}
	}
	if discoveries == 0 {
		t.Fatal("no flight discovered a fault; the scenario generator regressed")
	}
}
