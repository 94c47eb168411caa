package experiments

import (
	"testing"

	"gaussiancube/internal/fault"
	"gaussiancube/internal/gc"
)

// seriesY returns the Y values of f's series called name.
func seriesY(t *testing.T, f Figure, name string) []float64 {
	t.Helper()
	for _, s := range f.Series {
		if s.Name == name {
			ys := make([]float64, len(s.Points))
			for i, p := range s.Points {
				ys[i] = p.Y
			}
			return ys
		}
	}
	t.Fatalf("%s: no series %q", f.ID, name)
	return nil
}

func TestResilienceBasics(t *testing.T) {
	figs := Resilience(7, []int{0, 1, 4}, 8, 10, 1)
	if len(figs) != 3 {
		t.Fatalf("got %d figures, want one per modulus", len(figs))
	}
	for _, f := range figs {
		conn := seriesY(t, f, "connectivity")
		deliv := seriesY(t, f, "delivery")
		bare := seriesY(t, f, "bare strategy")
		if len(conn) != 3 || len(deliv) != 3 || len(bare) != 3 {
			t.Fatalf("%s: curve shape wrong: %+v", f.ID, f.Series)
		}
		// Zero faults: everything perfect.
		if conn[0] != 1 || deliv[0] != 1 || bare[0] != 1 {
			t.Errorf("%s: fault-free point must be 1/1/1: %+v", f.ID, f.Series)
		}
		for i := range conn {
			// Delivery with fallback can never be below the bare strategy.
			if deliv[i] < bare[i] {
				t.Errorf("%s point %d: fallback delivery %g below strategy %g", f.ID, i, deliv[i], bare[i])
			}
			if conn[i] < 0 || conn[i] > 1 {
				t.Errorf("%s point %d: connectivity out of range: %g", f.ID, i, conn[i])
			}
		}
	}
}

// TestDeliveryBoundsConnectivity: whenever the healthy subgraph stays
// connected, the fallback router delivers everything, so delivery >=
// connectivity across the curve (fault placements that disconnect the
// graph may still deliver most pairs).
func TestDeliveryBoundsConnectivity(t *testing.T) {
	for _, f := range Resilience(6, []int{2, 6}, 12, 12, 3) {
		conn := seriesY(t, f, "connectivity")
		deliv := seriesY(t, f, "delivery")
		for i := range conn {
			if deliv[i]+1e-9 < conn[i] {
				t.Errorf("%s point %d: delivery %g below connectivity %g", f.ID, i, deliv[i], conn[i])
			}
		}
	}
}

// TestConnectivityDecays: more faults can only hurt connectivity
// (statistical, generous tolerance).
func TestConnectivityDecays(t *testing.T) {
	for _, f := range Resilience(6, []int{0, 8, 24}, 16, 8, 5) {
		if conn := seriesY(t, f, "connectivity"); conn[2] > conn[0] {
			t.Errorf("%s: connectivity rose with faults: %v", f.ID, conn)
		}
	}
}

func TestHealthyConnectedHelpers(t *testing.T) {
	cube := gc.New(4, 1)
	fs := fault.NewSet(cube)
	if !healthyConnected(cube, fs) {
		t.Error("fault-free cube is connected")
	}
	// Isolate node 0.
	for _, w := range cube.Neighbors(0) {
		fs.AddNode(w)
	}
	if healthyConnected(cube, fs) {
		t.Error("isolating a node must break connectivity")
	}
}

// TestSeveranceProperties runs a small B/C campaign and checks the
// acceptance properties of the repair subsystem at the campaign level:
// not a single partition verdict is contradicted by the BFS oracle
// (Severance would return an error), repair-enabled delivery dominates
// the baseline at every grid point, and no delivery curve exceeds the
// oracle bound.
func TestSeveranceProperties(t *testing.T) {
	linkFaults := []int{0, 2, 8, 1 << 7} // last point over-asks; clamped to total severance
	if _, err := Severance(7, linkFaults, 1, 6, 12, 42); err != nil {
		t.Fatalf("partition verdicts must be proofs: %v", err)
	}
	for _, alpha := range []uint{1, 2} {
		f, severed, err := severance(gc.New(7, alpha), linkFaults, 1, 6, 12, 42)
		if err != nil {
			t.Fatalf("alpha=%d: %v", alpha, err)
		}
		oracle := seriesY(t, f, "reachable (BFS oracle bound)")
		baseline := seriesY(t, f, "FFGCR baseline")
		repaired := seriesY(t, f, "FFGCR + tree repair")
		fallback := seriesY(t, f, "BFS last resort")
		for i, lf := range linkFaults {
			if repaired[i] < baseline[i] {
				t.Errorf("alpha=%d faults=%d: repair delivery %.3f < baseline %.3f",
					alpha, lf, repaired[i], baseline[i])
			}
			for name, y := range map[string]float64{
				"baseline": baseline[i],
				"repair":   repaired[i],
				"fallback": fallback[i],
			} {
				if y < 0 || y > 1 {
					t.Errorf("alpha=%d faults=%d: %s delivery %.3f out of range", alpha, lf, name, y)
				}
				if y > oracle[i]+1e-9 {
					t.Errorf("alpha=%d faults=%d: %s delivery %.3f exceeds oracle bound %.3f",
						alpha, lf, name, y, oracle[i])
				}
			}
			if severed[i] < 1 {
				t.Errorf("alpha=%d faults=%d: mean severed edges %.2f < the 1 guaranteed by severEdges",
					alpha, lf, severed[i])
			}
		}
		// The final grid point clamps to total severance: every tree
		// edge dead, so only same-class pairs remain deliverable and the
		// severed-edge mean hits the maximum.
		last := len(linkFaults) - 1
		maxEdges := float64(int(1)<<alpha - 1)
		if severed[last] != maxEdges {
			t.Errorf("alpha=%d: total-severance point severed %.2f edges, want %.0f",
				alpha, severed[last], maxEdges)
		}
	}
}
