package core

import (
	"errors"
	"math/rand"
	"testing"

	"gaussiancube/internal/fault"
	"gaussiancube/internal/gc"
	"gaussiancube/internal/graph"
	"gaussiancube/internal/repair"
)

// injectBC fills fs with a random B/C-category scenario: some tree
// edges fully severed, some class-crossing links eroded, plus a pinch
// of node faults to exercise the node-cause accounting.
func injectBC(rng *rand.Rand, cube *gc.Cube, fs *fault.Set) {
	edges := cube.Tree().Edges()
	if len(edges) > 0 && rng.Intn(2) == 0 {
		e := edges[rng.Intn(len(edges))]
		u, v := e.Ends()
		fs.InjectSeveringFaults(u, v)
	}
	erode := rng.Intn(8)
	if avail := fs.HealthyTreeLinks(); erode > avail {
		erode = avail
	}
	fs.InjectRandomLinksBelowAlpha(rng, erode)
	fs.InjectRandomNodes(rng, rng.Intn(3))
}

// TestRepairSoundAndDominant is the acceptance property of the repair
// subsystem, checked on random B/C scenarios against a BFS oracle over
// the healthy subgraph:
//
//  1. zero false unreachables — every ErrPartitioned verdict is
//     confirmed unreachable by the oracle (the verdict is a proof,
//     so this must hold exactly, not statistically);
//  2. repair dominates the baseline pair-by-pair — whenever static
//     FFCGR-without-fallback delivers, the repair-enabled router
//     delivers too;
//  3. every delivered path is valid over the faulty cube.
//
// It also requires the detour to actually fire somewhere: across the
// whole run, repair must rescue at least one pair the baseline lost.
func TestRepairSoundAndDominant(t *testing.T) {
	rng := rand.New(rand.NewSource(606))
	rescued, verdicts := 0, 0
	for _, tc := range []struct{ n, alpha uint }{{6, 1}, {7, 2}, {8, 2}, {8, 3}} {
		cube := gc.New(tc.n, tc.alpha)
		for trial := 0; trial < 20; trial++ {
			fs := fault.NewSet(cube)
			injectBC(rng, cube, fs)
			health := repair.NewHealth(cube)
			health.Rebuild(fs)
			baseline := NewRouter(cube, WithFaults(fs), WithoutFallback())
			repaired := NewRouter(cube, WithFaults(fs), WithRepair(health), WithoutFallback())
			hv := healthyView{cube: cube, faults: fs}
			for pair := 0; pair < 30; pair++ {
				s := gc.NodeID(rng.Intn(cube.Nodes()))
				d := gc.NodeID(rng.Intn(cube.Nodes()))
				if s == d || fs.NodeFaulty(s) || fs.NodeFaulty(d) {
					continue
				}
				reachable := graph.ShortestPath(hv, s, d) != nil
				_, berr := baseline.Route(s, d)
				res, rerr := repaired.Route(s, d)
				if errors.Is(rerr, ErrPartitioned) {
					verdicts++
					if reachable {
						t.Fatalf("GC(%d,2^%d) trial %d: FALSE UNREACHABLE %d->%d: partition verdict but BFS finds a path",
							tc.n, tc.alpha, trial, s, d)
					}
				}
				if berr == nil && rerr != nil {
					t.Fatalf("GC(%d,2^%d) trial %d: repair lost pair %d->%d the baseline delivers: %v",
						tc.n, tc.alpha, trial, s, d, rerr)
				}
				if rerr == nil {
					if err := ValidatePath(cube, fs, res.Path, s, d); err != nil {
						t.Fatalf("GC(%d,2^%d) trial %d %d->%d: %v", tc.n, tc.alpha, trial, s, d, err)
					}
					if berr != nil {
						rescued++
					}
				}
			}
		}
	}
	if rescued == 0 {
		t.Fatal("no pair was ever rescued by a repair detour — the subsystem never engaged")
	}
	if verdicts == 0 {
		t.Fatal("no partition verdict was ever issued — the severance arm never engaged")
	}
	t.Logf("repair rescued %d pairs; %d partition verdicts, all confirmed by the oracle", rescued, verdicts)
}

// TestPartitionVerdictOnSeveredEdge pins the deterministic end: fully
// severing a tree edge must produce ErrPartitioned (wrapping
// ErrUnreachable) for straddling pairs, with or without fallback,
// while same-side pairs still deliver.
func TestPartitionVerdictOnSeveredEdge(t *testing.T) {
	cube := gc.New(7, 2)
	fs := fault.NewSet(cube)
	fs.InjectSeveringFaults(1, 3) // components {0,1} and {2,3}
	health := repair.NewHealth(cube)
	health.Rebuild(fs)
	for _, r := range []*Router{
		NewRouter(cube, WithFaults(fs), WithRepair(health), WithoutFallback()),
		NewRouter(cube, WithFaults(fs), WithRepair(health)),
	} {
		s := gc.NodeID(0) // class 0
		d := gc.NodeID(3) // class 3
		_, err := r.Route(s, d)
		if !errors.Is(err, ErrPartitioned) {
			t.Fatalf("straddling pair: err = %v, want ErrPartitioned", err)
		}
		if !errors.Is(err, ErrUnreachable) {
			t.Fatal("ErrPartitioned must wrap ErrUnreachable")
		}
		res, err := r.Route(0, 1) // same side
		if err != nil {
			t.Fatalf("same-side pair: %v", err)
		}
		if err := ValidatePath(cube, fs, res.Path, 0, 1); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRepairDetourThroughSurvivingFrame kills every class-crossing
// realization of edge {0,1} except one far frame in GC(6, 2): crossing
// pairs must be routed through the survivor and validate.
func TestRepairDetourThroughSurvivingFrame(t *testing.T) {
	cube := gc.New(6, 2)
	alpha := cube.Alpha()
	frames := cube.Nodes() >> alpha
	fs := fault.NewSet(cube)
	survivor := frames - 1
	for h := 0; h < frames; h++ {
		if h != survivor {
			fs.AddLink(gc.NodeID(h)<<alpha|0, 0) // realization of edge {0,1}
		}
	}
	health := repair.NewHealth(cube)
	health.Rebuild(fs)
	if got := health.EdgeState(0, 1); got != repair.EdgeDegraded {
		t.Fatalf("edge {0,1} state = %v, want degraded", got)
	}
	r := NewRouter(cube, WithFaults(fs), WithRepair(health), WithoutFallback())
	hv := healthyView{cube: cube, faults: fs}
	delivered := 0
	for s := gc.NodeID(0); int(s) < cube.Nodes(); s++ {
		d := s ^ 1 // the class-0/class-1 partner in the same frame
		if cube.EndingClass(s) != 0 {
			continue
		}
		res, err := r.Route(s, d)
		if err != nil {
			// Only acceptable if the healthy subgraph really is cut.
			if graph.ShortestPath(hv, s, d) != nil {
				t.Fatalf("%d->%d failed (%v) though reachable", s, d, err)
			}
			continue
		}
		if err := ValidatePath(cube, fs, res.Path, s, d); err != nil {
			t.Fatalf("%d->%d: %v", s, d, err)
		}
		delivered++
	}
	if delivered == 0 {
		t.Fatal("no crossing pair delivered through the surviving frame")
	}
}

// TestAdaptivePartitionedOutcome: an adaptive flight across a severed
// tree edge must terminate with OutcomeUndeliverablePartitioned, and
// the outcome must classify as undeliverable.
func TestAdaptivePartitionedOutcome(t *testing.T) {
	cube := gc.New(7, 2)
	fs := fault.NewSet(cube)
	fs.InjectSeveringFaults(1, 3)
	fs.Freeze()
	health := repair.NewHealth(cube)
	health.Rebuild(fs)
	ar := NewAdaptiveRouter(cube, fs, WithRepair(health))
	f, err := ar.start(0, 3, fs)
	if err != nil {
		t.Fatal(err)
	}
	var st Step
	for st = f.Step(); st.Kind == StepMove; st = f.Step() {
	}
	if st.Kind != StepFail || st.Outcome != OutcomeUndeliverablePartitioned {
		t.Fatalf("flight ended (%v, %v), want StepFail/undeliverable-partitioned", st.Kind, st.Outcome)
	}
	if !st.Outcome.Undeliverable() {
		t.Fatal("partitioned outcome must classify as undeliverable")
	}
	if st.Outcome.String() != "undeliverable-partitioned" {
		t.Fatalf("String() = %q", st.Outcome.String())
	}

	// A same-side flight under the same configuration still delivers.
	g, err := ar.start(0, 1, fs)
	if err != nil {
		t.Fatal(err)
	}
	for st = g.Step(); st.Kind == StepMove; st = g.Step() {
	}
	if st.Kind != StepDone {
		t.Fatalf("same-side flight ended %v (%s)", st.Kind, st.Reason)
	}
}
