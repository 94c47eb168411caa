package fault

import (
	"math/rand"
	"testing"

	"gaussiancube/internal/gc"
	"gaussiancube/internal/hypercube"
)

func TestGEECFaultCount(t *testing.T) {
	c := gc.New(8, 2)
	s := NewSet(c)
	g := c.GEEC(3, 0) // Dim(3) = {3, 7}: a Q2 slice
	if g.Dim() != 2 {
		t.Fatalf("Dim(3) = %d, want 2", g.Dim())
	}
	if s.GEECFaultCount(g) != 0 {
		t.Error("clean slice must count 0")
	}
	s.AddNode(g.ToGC(0))
	if s.GEECFaultCount(g) != 1 {
		t.Errorf("count = %d, want 1", s.GEECFaultCount(g))
	}
	// A link between two healthy members adds one.
	s.AddLink(g.ToGC(2), g.Dims()[0])
	if s.GEECFaultCount(g) != 2 {
		t.Errorf("count = %d, want 2", s.GEECFaultCount(g))
	}
	// Links incident to the faulty node are subsumed.
	s2 := NewSet(c)
	s2.AddNode(g.ToGC(0))
	s2.AddLink(g.ToGC(0), g.Dims()[0])
	if s2.GEECFaultCount(g) != 1 {
		t.Errorf("count = %d, want 1 (subsumed)", s2.GEECFaultCount(g))
	}
}

func TestTheorem3Holds(t *testing.T) {
	c := gc.New(10, 1)
	s := NewSet(c)
	if !s.Theorem3Holds() {
		t.Error("empty set must satisfy Theorem 3")
	}
	// One A-category link fault in a large slice: still fine.
	// Class 1 in GC(10,2) has Dim(1) = {1,3,5,7,9} minus {1}: dims
	// {3,5,7,9} plus... dimension 1 is < alpha? alpha=1 so dims >= 1:
	// {1,3,5,7,9}; all are A-dimensions.
	g := c.GEEC(1, 0)
	s.AddLink(g.ToGC(0), g.Dims()[0])
	if !s.Theorem3Holds() {
		t.Error("one A fault in a big slice must satisfy Theorem 3")
	}
	// A B-category fault (dimension-0 link) breaks the "only A" clause.
	s2 := NewSet(c)
	s2.AddLink(0, 0)
	if s2.Theorem3Holds() {
		t.Error("B-category fault must violate Theorem 3")
	}
	// Saturating one slice breaks the count clause.
	s3 := NewSet(c)
	dim := g.Dim()
	for i := uint(0); i < dim; i++ {
		s3.AddLink(g.ToGC(0), g.Dims()[i])
	}
	if s3.Theorem3Holds() {
		t.Error("slice with faults == dimension must violate Theorem 3")
	}
}

func TestPairCensus(t *testing.T) {
	c := gc.New(8, 2)
	// Tree T_4 path: 0-1-3-2. Pair (3,2): Dim(3)={3,7}, Dim(2)={2,6}.
	g, err := c.Pair(3, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSet(c)
	census := s.PairCensus(g)
	if census.Fs != 0 || census.Ft != 0 || census.F0 != 0 {
		t.Errorf("clean census = %+v", census)
	}
	// A faulty node on the 0-ending (class-3) side.
	eh := g.EH()
	s.AddNode(g.ToGC(eh.Compose(1, 0, 0)))
	// A faulty tree-edge (dimension-0) link between healthy endpoints.
	v := eh.Compose(0, 1, 0)
	s.AddLink(g.ToGC(v), g.GCDimOf(0))
	census = s.PairCensus(g)
	if census.Fs != 1 || census.F0 != 1 || census.Ft != 0 {
		t.Errorf("census = %+v, want Fs=1 F0=1 Ft=0", census)
	}
}

func TestTheorem5Holds(t *testing.T) {
	c := gc.New(8, 2)
	s := NewSet(c)
	if !s.Theorem5Holds() {
		t.Error("empty set must satisfy Theorem 5")
	}
	// One B-category link fault on the (3,2) edge: es/et/e0 bounds are
	// |Dim(3)|=2, |Dim(2)|=2, so a single e0 fault is tolerable.
	g, err := c.Pair(3, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	s.AddLink(g.ToGC(g.EH().Compose(0, 0, 0)), g.GCDimOf(0))
	if !s.Theorem5Holds() {
		t.Error("single e0 fault within bounds must satisfy Theorem 5")
	}
	// Overload the same pair subgraph beyond the bound.
	s.AddLink(g.ToGC(g.EH().Compose(0, 1, 0)), g.GCDimOf(0))
	if s.Theorem5Holds() {
		t.Error("e0 = 2 must violate es + e0 < 2")
	}
}

func TestTheorem5DegenerateEdge(t *testing.T) {
	// GC(9, 8): class 1 has Dim(1) = {} so edge (0,1) is degenerate.
	c := gc.New(9, 3)
	s := NewSet(c)
	if !s.Theorem5Holds() {
		t.Error("empty set must satisfy Theorem 5 even with degenerate edges")
	}
	// Any fault touching class 1 must be rejected.
	s.AddNode(1) // node 1 is in class 1
	if s.Theorem5Holds() {
		t.Error("fault on a degenerate-edge class must violate Theorem 5")
	}
}

// TestTheorem3RandomPreconditionedSets: sets built to respect the bound
// must pass; verified against an independent recount.
func TestTheorem3RandomPreconditionedSets(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	c := gc.New(9, 2)
	for trial := 0; trial < 30; trial++ {
		s := NewSet(c)
		// Insert A-category link faults one at a time, keeping the
		// precondition.
		for i := 0; i < 6; i++ {
			k := gc.NodeID(rng.Intn(int(c.M())))
			if c.DimCount(k) == 0 {
				continue
			}
			tv := uint64(rng.Intn(c.FrameCount(k)))
			g := c.GEEC(k, tv)
			d := g.Dims()[rng.Intn(len(g.Dims()))]
			member := g.ToGC(hypercube.Node(rng.Intn(1 << g.Dim())))
			trialSet := s.Clone()
			trialSet.AddLink(member, d)
			if trialSet.Theorem3Holds() {
				s = trialSet
			}
		}
		if !s.Theorem3Holds() {
			t.Fatal("incrementally constructed set must satisfy Theorem 3")
		}
		for _, f := range s.Faults() {
			if s.Categorize(f) != CategoryA {
				t.Fatal("generator produced a non-A fault")
			}
		}
	}
}
