package experiments

import "testing"

// Golden values for the extension experiments (Resilience, Severance,
// Churn) at small configurations: every series value is pinned
// exactly, so any change to their random draws, their tallies or the
// figures built from them shows up here.

type goldenSeries struct {
	name string
	ys   []float64
}

type goldenFigure struct {
	id     string
	series []goldenSeries
}

// checkGolden compares figs with want figure by figure and series by
// series, in order; every series is sampled at the X grid xs.
func checkGolden(t *testing.T, figs []Figure, xs []float64, want []goldenFigure) {
	t.Helper()
	if len(figs) != len(want) {
		t.Fatalf("got %d figures, want %d", len(figs), len(want))
	}
	for i, f := range figs {
		w := want[i]
		if f.ID != w.id || len(f.Series) != len(w.series) {
			t.Fatalf("figure %d: %s with %d series, want %s with %d",
				i, f.ID, len(f.Series), w.id, len(w.series))
		}
		for j, s := range f.Series {
			ws := w.series[j]
			if s.Name != ws.name || len(s.Points) != len(xs) || len(ws.ys) != len(xs) {
				t.Fatalf("%s series %d: %q with %d points, want %q with %d",
					f.ID, j, s.Name, len(s.Points), ws.name, len(xs))
			}
			for k, p := range s.Points {
				if p.X != xs[k] || p.Y != ws.ys[k] {
					t.Errorf("%s/%s point %d = (%v, %v), want (%v, %v)",
						f.ID, s.Name, k, p.X, p.Y, xs[k], ws.ys[k])
				}
			}
		}
	}
}

func TestGoldenResilience(t *testing.T) {
	figs := Resilience(6, []int{0, 2, 8, 24}, 8, 10, 1)
	checkGolden(t, figs, []float64{0, 2, 8, 24}, []goldenFigure{
		{"resilience-M1", []goldenSeries{
			{"connectivity", []float64{1, 1, 1, 0.875}},
			{"delivery", []float64{1, 1, 1, 0.975}},
			{"bare strategy", []float64{1, 1, 1, 0.975}},
		}},
		{"resilience-M2", []goldenSeries{
			{"connectivity", []float64{1, 1, 1, 0.125}},
			{"delivery", []float64{1, 1, 1, 0.925}},
			{"bare strategy", []float64{1, 0.925, 0.725, 0.375}},
		}},
		{"resilience-M4", []goldenSeries{
			{"connectivity", []float64{1, 1, 0.5, 0}},
			{"delivery", []float64{1, 1, 0.975, 0.2875}},
			{"bare strategy", []float64{1, 0.875, 0.55, 0.175}},
		}},
	})
}

func TestGoldenSeverance(t *testing.T) {
	// Erosion only: no edge is severed up front.
	figs, err := Severance(7, []int{0, 8, 24, 1 << 7}, 0, 6, 12, 42)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, figs, []float64{0, 8, 24, 1 << 7}, []goldenFigure{
		{"severance-M2", []goldenSeries{
			{"reachable (BFS oracle bound)", []float64{1, 1, 1, 0.05555555555555555}},
			{"FFGCR baseline", []float64{1, 1, 1, 0.05555555555555555}},
			{"FFGCR + tree repair", []float64{1, 1, 1, 0.05555555555555555}},
			{"BFS last resort", []float64{1, 1, 1, 0.05555555555555555}},
		}},
		{"severance-M4", []goldenSeries{
			{"reachable (BFS oracle bound)", []float64{1, 1, 0.9583333333333334, 0}},
			{"FFGCR baseline", []float64{1, 0.9444444444444444, 0.4861111111111111, 0}},
			{"FFGCR + tree repair", []float64{1, 1, 0.9166666666666666, 0}},
			{"BFS last resort", []float64{1, 1, 0.9583333333333334, 0}},
		}},
	})

	// One tree edge severed per trial on top of the erosion (the
	// shuffle draws come first).
	if figs, err = Severance(6, []int{0, 4, 12, 1 << 6}, 1, 6, 12, 42); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, figs, []float64{0, 4, 12, 1 << 6}, []goldenFigure{
		{"severance-M2", []goldenSeries{
			{"reachable (BFS oracle bound)", []float64{0.09722222222222222, 0.09722222222222222, 0.041666666666666664, 0.1388888888888889}},
			{"FFGCR baseline", []float64{0.09722222222222222, 0.09722222222222222, 0.041666666666666664, 0.1388888888888889}},
			{"FFGCR + tree repair", []float64{0.09722222222222222, 0.09722222222222222, 0.041666666666666664, 0.1388888888888889}},
			{"BFS last resort", []float64{0.09722222222222222, 0.09722222222222222, 0.041666666666666664, 0.1388888888888889}},
		}},
		{"severance-M4", []goldenSeries{
			{"reachable (BFS oracle bound)", []float64{0.20833333333333334, 0.2361111111111111, 0.25, 0.013888888888888888}},
			{"FFGCR baseline", []float64{0.20833333333333334, 0.2361111111111111, 0.16666666666666666, 0.013888888888888888}},
			{"FFGCR + tree repair", []float64{0.20833333333333334, 0.2361111111111111, 0.25, 0.013888888888888888}},
			{"BFS last resort", []float64{0.20833333333333334, 0.2361111111111111, 0.25, 0.013888888888888888}},
		}},
	})
}

func TestGoldenChurn(t *testing.T) {
	figs, err := Churn(6, []float64{25, 8}, 12, 60, 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, figs, []float64{25, 8}, []goldenFigure{
		{"churn-M1", []goldenSeries{
			{"static source routing", []float64{0.9980347199475925, 0.9881695695037792}},
			{"adaptive per-hop", []float64{0.9990173599737963, 0.9940847847518895}},
		}},
		{"churn-M2", []goldenSeries{
			{"static source routing", []float64{0.9977071732721913, 0.984554715741045}},
			{"adaptive per-hop", []float64{0.9993449066491975, 0.9937561616825501}},
		}},
		{"churn-M4", []goldenSeries{
			{"static source routing", []float64{0.996069439895185, 0.9727242852448242}},
			{"adaptive per-hop", []float64{0.9993449066491975, 0.9917844232665133}},
		}},
	})
}
