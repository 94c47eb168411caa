package fault

import (
	"gaussiancube/internal/exchanged"
	"gaussiancube/internal/gc"
	"gaussiancube/internal/gtree"
)

// GEECFaultCount counts the faulty components inside GEEC(k, t): faulty
// member nodes plus faulty links between members (links in Dim(k)
// dimensions) not incident to a faulty member.
func (s *Set) GEECFaultCount(g *gc.GEEC) int {
	count := 0
	for _, p := range g.Members() {
		if s.NodeFaulty(p) {
			count++
			continue
		}
		for _, d := range g.Dims() {
			q := p ^ (1 << d)
			if p < q && !s.NodeFaulty(q) && s.LinkFaulty(p, d) {
				count++
			}
		}
	}
	return count
}

// Theorem3Holds reports the paper's Theorem 3 precondition: only
// A-category faults exist, and every GEEC(k, t) hypercube contains
// strictly fewer faults than its dimension N(k) = |Dim(k)|.
func (s *Set) Theorem3Holds() bool {
	for _, f := range s.Faults() {
		if s.Categorize(f) != CategoryA {
			return false
		}
	}
	return s.geecBoundsHold()
}

// geecBoundsHold checks fault count < N(k) for every GEEC slice.
func (s *Set) geecBoundsHold() bool {
	c := s.cube
	for k := gc.NodeID(0); k < gc.NodeID(c.M()); k++ {
		bound := c.DimCount(k)
		for t := uint64(0); t < uint64(c.FrameCount(k)); t++ {
			g := c.GEEC(k, t)
			if s.GEECFaultCount(g) >= bound {
				return false
			}
		}
	}
	return true
}

// PairCensus counts the Theorem 5 fault categories inside G(p, q, k):
// es faults on the class-p side (nodes and Dim(p) links), et on the
// class-q side, e0 faulty tree-edge links between healthy endpoints.
func (s *Set) PairCensus(g *gc.Pair) exchanged.Census {
	var census exchanged.Census
	eh := g.EH()
	for v := exchanged.Node(0); v < exchanged.Node(eh.Nodes()); v++ {
		p := g.ToGC(v)
		if s.NodeFaulty(p) {
			if eh.C(v) == 0 {
				census.Fs++
			} else {
				census.Ft++
			}
			continue
		}
		// Count each healthy-endpoint link fault once, from the lower
		// EH label.
		for dim := uint(0); dim <= eh.S()+eh.T(); dim++ {
			if !eh.HasLinkDim(v, dim) {
				continue
			}
			w := v ^ (1 << dim)
			if v > w || s.NodeFaulty(g.ToGC(w)) {
				continue
			}
			if s.LinkFaulty(p, g.GCDimOf(dim)) {
				switch {
				case dim == 0:
					census.F0++
				case dim <= eh.T():
					census.Ft++
				default:
					census.Fs++
				}
			}
		}
	}
	return census
}

// Theorem5Holds reports the paper's Theorem 5 precondition: for every
// Gaussian Tree edge (p, q) and every frame value k, the fault census of
// G(p, q, k) satisfies es + e0 < |Dim(p)| and et + e0 < |Dim(q)|.
// Tree edges incident to a class with an empty Dim set cannot satisfy
// the bound if they carry any fault at all; fault-free subgraphs of such
// edges are accepted.
func (s *Set) Theorem5Holds() bool {
	c := s.cube
	tr := c.Tree()
	for p := gtree.Node(0); p < gtree.Node(tr.Nodes()); p++ {
		for _, q := range tr.Neighbors(p) {
			if p > q {
				continue
			}
			if !s.pairEdgeHolds(p, q) {
				return false
			}
		}
	}
	return true
}

func (s *Set) pairEdgeHolds(p, q gtree.Node) bool {
	c := s.cube
	if c.DimCount(p) == 0 || c.DimCount(q) == 0 {
		// Degenerate exchanged cube: accept only if no fault touches
		// the classes of this edge.
		for _, f := range s.Faults() {
			k := c.EndingClass(f.Node)
			k2 := c.EndingClass(f.Node ^ (1 << f.Dim))
			if f.Kind == KindNode {
				k2 = k
			}
			if k == p || k == q || k2 == p || k2 == q {
				return false
			}
		}
		return true
	}
	for k := uint64(0); k < uint64(c.PairFrameCount(p, q)); k++ {
		g, err := c.Pair(p, q, k)
		if err != nil {
			return false
		}
		if !g.EH().PreconditionHolds(s.PairCensus(g)) {
			return false
		}
	}
	return true
}
