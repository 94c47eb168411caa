// Package exchanged implements the Exchanged Hypercube EH(s, t) of the
// paper's Definition 7 and the fault-tolerant routing algorithm FREH
// (Algorithm 4, Theorem 4).
//
// EH(s, t) has 2^(s+t+1) nodes labelled a_{s-1}..a_0 b_{t-1}..b_0 c.
// Bit 0 is c; bits [t:1] are the b-part; bits [s+t:t+1] are the a-part.
// Links:
//
//	E1: v and v XOR 1 (the dimension-0 link, at every node);
//	E2: 1-ending nodes differing in exactly one b-bit;
//	E3: 0-ending nodes differing in exactly one a-bit.
//
// The 0-ending nodes form 2^t s-dimensional cubes (one per b value,
// written B_s(b)); the 1-ending nodes form 2^s t-dimensional cubes (one
// per a value, B_t(a)).
//
// Theorem 5 of the paper shows each Gaussian Tree edge (p, q) induces
// subgraphs of the Gaussian Cube isomorphic to EH(|Dim(p)|, |Dim(q)|),
// which is how FREH extends the GC routing strategy to B- and C-category
// faults. FREH and the closed-form distance work on an Embedding: the
// dimension of the crossing links and the masks of the a- and b-part
// dimensions in a wider label space. A pair subgraph routes on Gaussian
// Cube labels with EdgeDim(p, q), DimMask(p) and DimMask(q); EH(s, t)
// is the special case with dimension 0, bits t+1..s+t and bits 1..t.
package exchanged

import (
	"fmt"

	"gaussiancube/internal/bitutil"
	"gaussiancube/internal/graph"
)

// Node is an EH(s, t) vertex label on s+t+1 bits.
type Node = graph.NodeID

// EH is the Exchanged Hypercube EH(s, t).
type EH struct {
	s, t uint
}

// shared holds the canonical EH value for every admissible (s, t). EH
// is immutable, so New hands out one pointer per shape instead of
// allocating, and the pair subgraphs of the Gaussian Cube, built per
// blocked crossing, cost nothing for it.
var shared = func() (es [25][25]EH) {
	for s := range es {
		for t := range es[s] {
			es[s][t] = EH{s: uint(s), t: uint(t)}
		}
	}
	return es
}()

// New returns EH(s, t); s and t must be at least 1 and s+t+1 at most
// 26. The returned value is a shared immutable instance.
func New(s, t uint) *EH {
	if s < 1 || t < 1 {
		panic(fmt.Sprintf("exchanged: EH(%d,%d) requires s,t >= 1", s, t))
	}
	if s+t+1 > 26 {
		panic(fmt.Sprintf("exchanged: EH(%d,%d) too large", s, t))
	}
	return &shared[s][t]
}

// S returns the s parameter (dimension of the 0-side cubes).
func (e *EH) S() uint { return e.s }

// T returns the t parameter (dimension of the 1-side cubes).
func (e *EH) T() uint { return e.t }

// Bits returns the label width s+t+1.
func (e *EH) Bits() uint { return e.s + e.t + 1 }

// Nodes implements graph.Topology.
func (e *EH) Nodes() int { return 1 << e.Bits() }

// C returns the c bit of v (bit 0).
func (e *EH) C(v Node) uint32 { return uint32(v & 1) }

// B returns the b-part of v (bits [t:1]).
func (e *EH) B(v Node) uint32 { return uint32(bitutil.Field(uint64(v), e.t, 1)) }

// A returns the a-part of v (bits [s+t:t+1]).
func (e *EH) A(v Node) uint32 {
	return uint32(bitutil.Field(uint64(v), e.s+e.t, e.t+1))
}

// Compose builds the node label from parts.
func (e *EH) Compose(a, b, c uint32) Node {
	return Node(uint32(a)<<(e.t+1) | uint32(b)<<1 | (c & 1))
}

// HasLinkDim reports whether v has a link in (label) dimension dim:
// dimension 0 always (E1); a b-dimension only on 1-ending nodes (E2);
// an a-dimension only on 0-ending nodes (E3).
func (e *EH) HasLinkDim(v Node, dim uint) bool {
	switch {
	case dim == 0:
		return true
	case dim <= e.t:
		return v&1 == 1
	case dim <= e.s+e.t:
		return v&1 == 0
	default:
		return false
	}
}

// Neighbors implements graph.Topology.
func (e *EH) Neighbors(v Node) []Node {
	var out []Node
	for d := uint(0); d <= e.s+e.t; d++ {
		if e.HasLinkDim(v, d) {
			out = append(out, v^(1<<d))
		}
	}
	return out
}

// Degree returns the number of links at v: s+1 for 0-ending, t+1 for
// 1-ending.
func (e *EH) Degree(v Node) int {
	if v&1 == 0 {
		return int(e.s) + 1
	}
	return int(e.t) + 1
}

// Distance returns the graph distance between u and v in closed form
// (see Embedding.Distance).
func (e *EH) Distance(u, v Node) int { return e.embedding().Distance(u, v) }

// embedding returns EH(s, t) as an Embedding of itself: dimension 0 is
// the crossing, bits [t:1] the b-part and bits [s+t:t+1] the a-part.
func (e *EH) embedding() Embedding {
	return Embedding{ADims: bitutil.Mask(e.s) << (e.t + 1), BDims: bitutil.Mask(e.t) << 1}
}

// Embedding places an exchanged hypercube in a wider label space whose
// links each flip one label bit: the crossing (EH dimension 0) flips
// label dimension Edge, and the a- and b-parts are the label dimensions
// in ADims and BDims, each in ascending order. A node is on the a-side
// (0-ending) when its bit Edge equals ASide (0 or 1<<Edge); its links
// are then Edge and ADims, and on the b-side Edge and BDims. With Edge
// below every bit of ADims and BDims, as in the Gaussian Cube (EdgeDim
// < alpha <= every high dimension), label order is EH's own order.
type Embedding struct {
	Edge         uint
	ASide        uint64
	ADims, BDims uint64
}

// links returns the mask of label dimensions of v's links.
func (m Embedding) links(v Node) uint64 {
	if uint64(v)&(1<<m.Edge) == m.ASide {
		return 1<<m.Edge | m.ADims
	}
	return 1<<m.Edge | m.BDims
}

// Distance returns the graph distance between embedded nodes u and v
// in closed form: with da, db the Hamming distances of the a- and
// b-parts,
//
//	same side, other part equal:    da+db        (one subcube)
//	same side, other part differs:  da+db+2      (two crossings)
//	different sides:                da+db+1      (one crossing)
func (m Embedding) Distance(u, v Node) int {
	x := uint64(u ^ v)
	da := bitutil.OnesCount(x & m.ADims)
	db := bitutil.OnesCount(x & m.BDims)
	switch {
	case x&(1<<m.Edge) != 0:
		return da + db + 1
	case uint64(u)&(1<<m.Edge) == m.ASide: // both a-side: a-bits fixable in place
		if db == 0 {
			return da
		}
	case da == 0: // both b-side: b-bits fixable in place
		return db
	}
	return da + db + 2
}
