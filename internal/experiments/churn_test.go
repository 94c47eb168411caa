package experiments

import (
	"strings"
	"testing"
)

func TestChurnFigures(t *testing.T) {
	figs, err := Churn(6, []float64{20, 10}, 12, 40, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(figs) != 3 {
		t.Fatalf("got %d figures, want one per modulus", len(figs))
	}
	for _, f := range figs {
		if !strings.HasPrefix(f.ID, "churn-M") {
			t.Fatalf("bad figure ID %q", f.ID)
		}
		if len(f.Series) != 2 {
			t.Fatalf("%s: %d series, want static+adaptive", f.ID, len(f.Series))
		}
		for _, s := range f.Series {
			if len(s.Points) != 2 {
				t.Fatalf("%s/%s: %d points, want 2", f.ID, s.Name, len(s.Points))
			}
			for _, p := range s.Points {
				if p.Y < 0 || p.Y > 1 {
					t.Fatalf("%s/%s: delivery %v out of [0,1]", f.ID, s.Name, p.Y)
				}
			}
		}
		// The Figure plumbing (markdown/CSV/chart) must accept the new
		// figures unchanged.
		if f.Markdown() == "" || f.CSV() == "" {
			t.Fatalf("%s: empty rendering", f.ID)
		}
	}
}

// TestChurnShape: on aggregate the adaptive engine never does worse
// than static routing (it subsumes static planning and adds waiting).
// The retries, waits, epochs and cache invalidations behind that are
// asserted on simnet itself (TestAdaptiveBeatsStaticUnderChurn,
// TestTimelineCacheCoherence, TestTimelineEpochAccounting).
func TestChurnShape(t *testing.T) {
	figs, err := Churn(6, []float64{25, 8}, 12, 60, 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range figs {
		static := seriesY(t, f, "static source routing")
		adaptive := seriesY(t, f, "adaptive per-hop")
		for i := range static {
			if adaptive[i] < static[i] {
				t.Errorf("%s point %d: adaptive %v below static %v", f.ID, i, adaptive[i], static[i])
			}
		}
	}
}

// TestChurnDeterministic: the parallel trial runner must not make the
// figures depend on scheduling.
func TestChurnDeterministic(t *testing.T) {
	a, err := churn(6, []float64{10}, 10, 40, 6, 9, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := churn(6, []float64{10}, 10, 40, 6, 9, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("figure counts %d vs %d", len(a), len(b))
	}
	for i := range a {
		compareFigures(t, a[i], b[i])
	}
}

func TestChurnValidation(t *testing.T) {
	if _, err := Churn(6, []float64{5}, 10, 0, 4, 1); err == nil {
		t.Fatal("zero horizon must be rejected")
	}
	if _, err := Churn(6, []float64{5}, 10, 40, 0, 1); err == nil {
		t.Fatal("zero trials must be rejected")
	}
}
