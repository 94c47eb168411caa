package gtree

import (
	"math/rand"
	"testing"

	"gaussiancube/internal/bitutil"
	"gaussiancube/internal/graph"
)

// TestTheorem2IsTree verifies Theorem 2: G_{2^alpha} is a tree, via the
// paper's Lemma 1 (connected with 2^alpha - 1 edges).
func TestTheorem2IsTree(t *testing.T) {
	for alpha := uint(1); alpha <= 10; alpha++ {
		tr := New(alpha)
		if !graph.IsTree(tr) {
			t.Errorf("T_{2^%d} is not a tree", alpha)
		}
		if got, want := graph.EdgeCount(tr), (1<<alpha)-1; got != want {
			t.Errorf("T_{2^%d} edges = %d, want %d", alpha, got, want)
		}
	}
}

// TestEdgeCountPerDimension verifies the per-dimension edge counts from
// the proof of Theorem 2: E(0) = 2^{alpha-1} and E(i) = 2^{alpha-1-i}.
func TestEdgeCountPerDimension(t *testing.T) {
	for alpha := uint(1); alpha <= 8; alpha++ {
		tr := New(alpha)
		counts := make([]int, alpha)
		for v := Node(0); v < Node(tr.Nodes()); v++ {
			for c := uint(0); c < alpha; c++ {
				if tr.HasEdgeDim(v, c) && v < v^(1<<c) {
					counts[c]++
				}
			}
		}
		if counts[0] != 1<<(alpha-1) {
			t.Errorf("alpha=%d: E(0) = %d, want %d", alpha, counts[0], 1<<(alpha-1))
		}
		for c := uint(1); c < alpha; c++ {
			want := 1 << (alpha - 1 - c)
			if counts[c] != want {
				t.Errorf("alpha=%d: E(%d) = %d, want %d", alpha, c, counts[c], want)
			}
		}
	}
}

// TestFigure1Topologies pins the explicit edge sets of the paper's
// Figure 1 graphs G_2 (alpha=1), G_4 (alpha=2) and G_8 (alpha=3).
func TestFigure1Topologies(t *testing.T) {
	check := func(alpha uint, want [][2]Node) {
		tr := New(alpha)
		edges := graph.Edges(tr)
		if len(edges) != len(want) {
			t.Fatalf("alpha=%d: %d edges, want %d (%v)", alpha, len(edges), len(want), edges)
		}
		set := make(map[graph.Edge]bool)
		for _, e := range edges {
			set[e] = true
		}
		for _, w := range want {
			if !set[graph.Edge{U: w[0], V: w[1]}.Normalize()] {
				t.Errorf("alpha=%d: missing edge %v", alpha, w)
			}
		}
	}
	check(1, [][2]Node{{0, 1}})
	check(2, [][2]Node{{0, 1}, {2, 3}, {1, 3}})
	check(3, [][2]Node{
		{0, 1}, {2, 3}, {4, 5}, {6, 7}, // dimension 0
		{1, 3}, {5, 7}, // dimension 1 (odd low bit)
		{2, 6}, // dimension 2 (low two bits = 10)
	})
}

// TestRecursiveStructure verifies that T_{2^alpha} is two copies of
// T_{2^(alpha-1)} joined by the single dimension-(alpha-1) edge between
// vertex (alpha-1) and vertex (alpha-1) + 2^(alpha-1).
func TestRecursiveStructure(t *testing.T) {
	for alpha := uint(2); alpha <= 9; alpha++ {
		tr := New(alpha)
		half := Node(1) << (alpha - 1)
		bridge := 0
		for v := Node(0); v < Node(tr.Nodes()); v++ {
			for _, w := range tr.Neighbors(v) {
				if v < w && (v < half) != (w < half) {
					bridge++
					if v != Node(alpha-1) || w != Node(alpha-1)+half {
						t.Errorf("alpha=%d: unexpected bridge %d--%d", alpha, v, w)
					}
				}
			}
		}
		if bridge != 1 {
			t.Errorf("alpha=%d: %d bridges, want 1", alpha, bridge)
		}
	}
}

func TestParentDepthRoot(t *testing.T) {
	tr := New(4)
	if _, ok := tr.Parent(0); ok {
		t.Error("root must have no parent")
	}
	if tr.Depth(0) != 0 {
		t.Error("root depth must be 0")
	}
	for v := Node(1); v < 16; v++ {
		p, ok := tr.Parent(v)
		if !ok {
			t.Fatalf("non-root %d has no parent", v)
		}
		if !graph.Adjacent(tr, v, p) {
			t.Fatalf("parent of %d is not adjacent", v)
		}
		if tr.Depth(v) != tr.Depth(p)+1 {
			t.Fatalf("depth of %d inconsistent", v)
		}
	}
}

func TestLCADist(t *testing.T) {
	for _, alpha := range []uint{2, 3, 4, 5, 6} {
		tr := New(alpha)
		n := Node(tr.Nodes())
		// Cross-check distances against BFS on a sample.
		for u := Node(0); u < n; u += 3 {
			dist := graph.BFS(tr, u)
			for v := Node(0); v < n; v++ {
				if tr.Dist(u, v) != dist[v] {
					t.Fatalf("alpha=%d: Dist(%d,%d) = %d, BFS %d",
						alpha, u, v, tr.Dist(u, v), dist[v])
				}
			}
		}
	}
}

func TestLCAProperties(t *testing.T) {
	tr := New(5)
	n := Node(tr.Nodes())
	for u := Node(0); u < n; u += 5 {
		for v := Node(0); v < n; v += 3 {
			l := tr.LCA(u, v)
			if tr.LCA(v, u) != l {
				t.Fatalf("LCA not symmetric for %d,%d", u, v)
			}
			if tr.LCA(u, u) != u {
				t.Fatalf("LCA(u,u) != u")
			}
			// The LCA lies on the path.
			onPath := false
			for _, w := range tr.Path(u, v) {
				if w == l {
					onPath = true
				}
			}
			if !onPath {
				t.Fatalf("LCA(%d,%d)=%d not on path", u, v, l)
			}
		}
	}
}

func TestEdgeDim(t *testing.T) {
	tr := New(3)
	if tr.EdgeDim(0, 1) != 0 {
		t.Error("EdgeDim(0,1) != 0")
	}
	if tr.EdgeDim(1, 3) != 1 {
		t.Error("EdgeDim(1,3) != 1")
	}
	if tr.EdgeDim(2, 6) != 2 {
		t.Error("EdgeDim(2,6) != 2")
	}
	defer func() {
		if recover() == nil {
			t.Error("EdgeDim on non-edge must panic")
		}
	}()
	tr.EdgeDim(0, 2)
}

func TestNewPanicsOnBadAlpha(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New(23) must panic")
		}
	}()
	New(23)
}

func TestTrivialTreeAlphaZero(t *testing.T) {
	tr := New(0)
	if tr.Nodes() != 1 {
		t.Fatalf("T_1 nodes = %d", tr.Nodes())
	}
	if len(tr.Neighbors(0)) != 0 {
		t.Error("T_1 must have no edges")
	}
	if p := tr.PC(0, 0); len(p) != 1 || p[0] != 0 {
		t.Errorf("PC in T_1 = %v", p)
	}
	if w := tr.CT(0, nil); len(w) != 1 {
		t.Errorf("CT in T_1 = %v", w)
	}
	if tr.Diameter() != 0 {
		t.Error("diam(T_1) != 0")
	}
	if !graph.IsTree(tr) {
		t.Error("T_1 is a tree")
	}
}

// TestFigure2Diameter pins the diameter series behind Figure 2; the
// values are exact, computed by double BFS and cross-checked against the
// all-pairs diameter for small alpha.
func TestFigure2Diameter(t *testing.T) {
	want := map[uint]int{1: 1, 2: 3, 3: 7, 4: 11}
	for alpha, w := range want {
		tr := New(alpha)
		if got := tr.Diameter(); got != w {
			t.Errorf("diam(T_{2^%d}) = %d, want %d", alpha, got, w)
		}
		if got := graph.Diameter(tr); got != w {
			t.Errorf("all-pairs diam(T_{2^%d}) = %d, want %d", alpha, got, w)
		}
	}
	// Larger trees: double-BFS must agree with all-pairs BFS.
	for alpha := uint(5); alpha <= 8; alpha++ {
		tr := New(alpha)
		if tr.Diameter() != graph.Diameter(tr) {
			t.Errorf("alpha=%d: diameter methods disagree", alpha)
		}
	}
}

// TestDiameterRecursion validates the recursive structure insight: the
// diameter of T_{2^alpha} is either inherited from the half-size tree
// or realized by a path through the single bridge edge, whose endpoints
// are vertex alpha-1 in each copy:
// D_alpha = max(D_{alpha-1}, 2*ecc_{T_{2^(alpha-1)}}(alpha-1) + 1).
func TestDiameterRecursion(t *testing.T) {
	for alpha := uint(2); alpha <= 10; alpha++ {
		small := New(alpha - 1)
		big := New(alpha)
		ecc := graph.Eccentricity(small, Node(alpha-1))
		want := small.Diameter()
		if through := 2*ecc + 1; through > want {
			want = through
		}
		if got := big.Diameter(); got != want {
			t.Errorf("alpha=%d: diameter %d, recursion predicts %d", alpha, got, want)
		}
	}
}

func TestDegreeBounds(t *testing.T) {
	// Every vertex has the dimension-0 edge, so degree >= 1; a vertex
	// can have at most one edge per dimension, so degree <= alpha.
	tr := New(6)
	for v := Node(0); v < Node(tr.Nodes()); v++ {
		deg := tr.Degree(v)
		if deg < 1 || deg > 6 {
			t.Fatalf("degree of %d = %d", v, deg)
		}
	}
}

// TestCoverWalkLen checks the subtree-mask closed form against the
// length of AppendWalkVisiting's walk, and CoverWalkStep against the
// difference of two lengths across each tree edge, for every pair of
// endpoints: over every vertex set for alpha <= 3, and seeded random
// sets up to MaxCoverAlpha.
func TestCoverWalkLen(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for alpha := uint(0); alpha <= MaxCoverAlpha; alpha++ {
		tr := New(alpha)
		m := tr.Nodes()
		var sets []uint64
		if alpha <= 3 {
			for x := uint64(0); x < 1<<m; x++ {
				sets = append(sets, x)
			}
		} else {
			for i := 0; i < 24; i++ {
				sets = append(sets, rng.Uint64()&rng.Uint64()&(uint64(1)<<m-1))
			}
		}
		var visit []Node
		for a := Node(0); int(a) < m; a++ {
			for b := Node(0); int(b) < m; b++ {
				for _, x := range sets {
					visit = visit[:0]
					for y := x; y != 0; y &= y - 1 {
						visit = append(visit, Node(bitutil.LowestBit(y)))
					}
					want := len(tr.AppendWalkVisiting(nil, a, b, visit)) - 1
					if got := tr.CoverWalkLen(a, b, x); got != want {
						t.Fatalf("alpha=%d %d->%d visiting %#x: CoverWalkLen %d, walk %d", alpha, a, b, x, got, want)
					}
					for _, a2 := range tr.AppendNeighbors(nil, a) {
						if got, want := tr.CoverWalkStep(a, a2, b, x), tr.CoverWalkLen(a2, b, x)-tr.CoverWalkLen(a, b, x); got != want {
							t.Fatalf("alpha=%d %d->%d visiting %#x: CoverWalkStep to %d is %d, want %d", alpha, a, b, x, a2, got, want)
						}
					}
				}
			}
		}
	}
}
