package gc

import (
	"fmt"

	"gaussiancube/internal/bitutil"
	"gaussiancube/internal/exchanged"
	"gaussiancube/internal/gtree"
)

// Pair is the paper's G(p, q, k) (Section 5, before Theorem 5): for a
// Gaussian Tree edge {p, q} and a frame value k, the subgraph of
// GC(n, 2^alpha) induced by the nodes whose ending class is p or q and
// whose bits in the dimensions outside Dim(p) ∪ Dim(q) ∪ [0, alpha-1]
// encode k. Viewing the low alpha bits as a single coordinate that takes
// only the two values p and q, the paper shows G(p, q, k) is isomorphic
// to the Exchanged Hypercube EH(|Dim(p)|, |Dim(q)|): class-p nodes are
// the 0-ending side (a-part = bits in Dim(p)), class-q nodes the
// 1-ending side (b-part = bits in Dim(q)), and the tree-edge links in
// dimension EdgeDim(p, q) are the dimension-0 links.
type Pair struct {
	cube    *Cube
	p, q    gtree.Node // tree edge endpoints; p is the 0-ending side
	edgeDim uint       // the GC dimension of the tree edge (below alpha)
	dimsP   []uint     // Dim(p): the EH a-part dimensions
	dimsQ   []uint     // Dim(q): the EH b-part dimensions
	frame   uint64     // mask of the dimensions fixed by k
	k       uint64     // frame value
	base    NodeID     // class-p node with all dimsP/dimsQ bits zero
	eh      *exchanged.EH
}

// Pair constructs G(p, q, k). p and q must be adjacent in the Gaussian
// Tree, both |Dim(p)| and |Dim(q)| must be at least 1 (so the exchanged
// hypercube is well formed), and k must fit in the frame width: bit i
// of k is the i-th lowest frame dimension.
func (c *Cube) Pair(p, q gtree.Node, k uint64) (*Pair, error) {
	tr := c.Tree()
	x := uint64(p ^ q)
	if bitutil.OnesCount(x) != 1 || !tr.HasEdgeDim(p, uint(bitutil.LowestBit(x))) {
		return nil, fmt.Errorf("gc: classes %d and %d are not Gaussian Tree neighbors", p, q)
	}
	dimsP, dimsQ := c.Dim(p), c.Dim(q)
	if len(dimsP) == 0 || len(dimsQ) == 0 {
		return nil, fmt.Errorf("gc: pair (%d,%d) has an empty Dim set (|Dim(p)|=%d, |Dim(q)|=%d)",
			p, q, len(dimsP), len(dimsQ))
	}
	frame := bitutil.Mask(c.n) &^ bitutil.Mask(c.alpha) &^ c.DimMask(p) &^ c.DimMask(q)
	if width := bitutil.OnesCount(frame); k >= 1<<uint(width) {
		return nil, fmt.Errorf("gc: frame value %d out of range for %d frame dims", k, width)
	}
	base := uint64(p)
	for i, m := uint(0), frame; m != 0; i, m = i+1, m&(m-1) {
		if bitutil.HasBit(k, i) {
			base |= m & -m
		}
	}
	return &Pair{
		cube:    c,
		p:       p,
		q:       q,
		edgeDim: uint(bitutil.LowestBit(x)),
		dimsP:   dimsP,
		dimsQ:   dimsQ,
		frame:   frame,
		k:       k,
		base:    NodeID(base),
		eh:      exchanged.New(uint(len(dimsP)), uint(len(dimsQ))),
	}, nil
}

// EH returns the exchanged hypercube this pair subgraph is isomorphic
// to: EH(|Dim(p)|, |Dim(q)|).
func (g *Pair) EH() *exchanged.EH { return g.eh }

// P returns the 0-ending-side class, Q the 1-ending-side class.
func (g *Pair) P() gtree.Node { return g.p }

// Q returns the 1-ending-side class.
func (g *Pair) Q() gtree.Node { return g.q }

// EdgeDim returns the GC dimension of the tree edge: the dimension the
// EH dimension-0 links map to.
func (g *Pair) EdgeDim() uint { return g.edgeDim }

// PairFrameCount returns the number of distinct frame values k for the
// tree edge (p, q).
func (c *Cube) PairFrameCount(p, q gtree.Node) int {
	width := int(c.n-c.alpha) - c.DimCount(p) - c.DimCount(q)
	if width < 0 {
		return 0
	}
	return 1 << width
}

// ToGC maps an EH label to the GC node it represents.
func (g *Pair) ToGC(v exchanged.Node) NodeID {
	e := g.eh
	out := uint64(g.base)
	if e.C(v) == 1 {
		// Switch the ending class from p to q by flipping the tree-edge
		// bit (p and q differ exactly there).
		out = bitutil.Flip(out, g.edgeDim)
	}
	a, b := e.A(v), e.B(v)
	for i, d := range g.dimsP {
		if bitutil.HasBit(uint64(a), uint(i)) {
			out = bitutil.Set(out, d)
		}
	}
	for i, d := range g.dimsQ {
		if bitutil.HasBit(uint64(b), uint(i)) {
			out = bitutil.Set(out, d)
		}
	}
	return NodeID(out)
}

// FromGC maps a GC node of this pair subgraph to its EH label. It
// panics if the node does not belong to the subgraph.
func (g *Pair) FromGC(n NodeID) exchanged.Node {
	if !g.Contains(n) {
		panic(fmt.Sprintf("gc: node %d not in Pair(%d,%d,k=%d)", n, g.p, g.q, g.k))
	}
	var a, b uint32
	for i, d := range g.dimsP {
		if bitutil.HasBit(uint64(n), d) {
			a |= 1 << uint(i)
		}
	}
	for i, d := range g.dimsQ {
		if bitutil.HasBit(uint64(n), d) {
			b |= 1 << uint(i)
		}
	}
	var c uint32
	if g.cube.EndingClass(n) == g.q {
		c = 1
	}
	return g.eh.Compose(a, b, c)
}

// Contains reports whether GC node n lies in this pair subgraph.
func (g *Pair) Contains(n NodeID) bool {
	cls := g.cube.EndingClass(n)
	if cls != g.p && cls != g.q {
		return false
	}
	return uint64(n^g.base)&g.frame == 0
}

// Members enumerates the GC labels of the subgraph, in EH label order.
func (g *Pair) Members() []NodeID {
	out := make([]NodeID, g.eh.Nodes())
	for v := range out {
		out[v] = g.ToGC(exchanged.Node(v))
	}
	return out
}

// GCDimOf translates an EH label dimension to the GC dimension it
// corresponds to: dimension 0 is the tree edge; b-dimensions map into
// Dim(q); a-dimensions map into Dim(p).
func (g *Pair) GCDimOf(ehDim uint) uint {
	t := uint(len(g.dimsQ))
	switch {
	case ehDim == 0:
		return g.edgeDim
	case ehDim <= t:
		return g.dimsQ[ehDim-1]
	default:
		return g.dimsP[ehDim-1-t]
	}
}
