// Package gtree implements the Gaussian Tree of the paper (Section 3).
//
// The Gaussian Graph G_m on m = 2^alpha vertices connects x and
// x XOR 2^c when c = 0, or when c in [1, alpha-1] and the low c bits of
// x equal the value c. Theorem 2 proves G_m is a tree (denoted T_m, the
// Gaussian Tree): it is connected via the PC algorithm and has exactly
// 2^alpha - 1 edges.
//
// The tree is the quotient of the Gaussian Cube GC(n, 2^alpha) by the
// "k-ending class" relation: vertices of the cube with the same low
// alpha bits collapse to one tree vertex, and the cube's links in
// dimensions below alpha project exactly onto the tree's edges. Routing
// between ending classes therefore becomes routing in this tree, "which
// is found to be more definite and predictable".
//
// The package provides the paper's three tree algorithms:
//
//   - PC (Algorithm 1): recursive path construction;
//   - FindBP: branch-point location for multi-destination traversal;
//   - CT (Algorithm 2): closed traversal visiting a destination set and
//     returning to the start, optimal over the induced Steiner subtree.
package gtree

import (
	"fmt"
	"sync"

	"gaussiancube/internal/bitutil"
	"gaussiancube/internal/graph"
)

// Node is a Gaussian Tree vertex: an alpha-bit ending-class label.
type Node = graph.NodeID

// Tree is the Gaussian Tree T_{2^alpha}.
type Tree struct {
	alpha  uint
	parent []int32 // rooted at 0; parent[0] == -1
	depth  []int32

	// dimMask[v] is the bitmask of edge dimensions at v (Definition 1),
	// precomputed so Neighbors/Degree need no per-call rule evaluation.
	dimMask []uint32
	// children adjacency in CSR form: the children of v under the
	// rooting at 0 are childList[childStart[v]:childStart[v+1]],
	// ascending. Together with parent this serves adjacency queries
	// without per-call Neighbors allocations.
	childStart []int32
	childList  []Node
	// subSize[v] is the size of v's subtree under the rooting at 0.
	subSize []int32
	// subMask[v] is the vertex set of v's subtree under the rooting at
	// 0, bit u for vertex u (CoverWalkLen); nil past MaxCoverAlpha.
	subMask []uint64

	// trav pools the scratch used by the allocation-light walk
	// algorithms (AppendPC composition inside AppendCT).
	trav sync.Pool
}

// New constructs T_{2^alpha}. alpha must be in [0, 22] (the tree has
// 2^alpha vertices and is materialized for parent/depth queries).
// T_1 (alpha = 0) is the single-vertex tree of GC(n, 1), the plain
// binary hypercube, whose nodes all share the empty ending class.
func New(alpha uint) *Tree {
	if alpha > 22 {
		panic(fmt.Sprintf("gtree: alpha %d out of range [0,22]", alpha))
	}
	t := &Tree{alpha: alpha}
	t.buildRooting()
	t.trav.New = func() any { return &traverser{mark: make([]uint32, t.Nodes())} }
	return t
}

// Alpha returns the tree parameter alpha; the tree has 2^alpha vertices.
func (t *Tree) Alpha() uint { return t.alpha }

// Nodes implements graph.Topology.
func (t *Tree) Nodes() int { return 1 << t.alpha }

// HasEdgeDim reports whether vertex k has a tree edge in dimension c
// (to k XOR 2^c): dimension 0 always; dimension c in [1, alpha-1] iff
// the low c bits of k equal c. This is the definition of E_n in
// Definition 1, and equals the Gaussian Cube's Theorem 1 rule restricted
// to dimensions below alpha.
func (t *Tree) HasEdgeDim(k Node, c uint) bool {
	if c >= t.alpha {
		return false // covers alpha = 0: the single-vertex tree
	}
	if c == 0 {
		return true
	}
	return bitutil.Low(uint64(k), c) == uint64(c)
}

// Neighbors implements graph.Topology.
func (t *Tree) Neighbors(v Node) []Node {
	mask := t.dimMask[v]
	out := make([]Node, 0, bitutil.OnesCount(uint64(mask)))
	for m := mask; m != 0; m &= m - 1 {
		out = append(out, v^Node(m&-m))
	}
	return out
}

// AppendNeighbors appends the neighbors of v (ascending dimension) onto
// dst and returns the extended slice, allocating only when dst lacks
// capacity.
func (t *Tree) AppendNeighbors(dst []Node, v Node) []Node {
	for m := t.dimMask[v]; m != 0; m &= m - 1 {
		dst = append(dst, v^Node(m&-m))
	}
	return dst
}

// Degree returns the number of tree edges at v.
func (t *Tree) Degree(v Node) int { return bitutil.OnesCount(uint64(t.dimMask[v])) }

// Children returns the children of v under the rooting at 0, ascending.
// The returned slice is a shared precomputed table entry; callers must
// not modify it.
func (t *Tree) Children(v Node) []Node {
	return t.childList[t.childStart[v]:t.childStart[v+1]]
}

// EdgeDim returns the dimension of the tree edge {u, v}. It panics if
// {u, v} is not an edge of the tree.
func (t *Tree) EdgeDim(u, v Node) uint {
	x := uint64(u ^ v)
	if bitutil.OnesCount(x) == 1 {
		c := uint(bitutil.LowestBit(x))
		if t.HasEdgeDim(u, c) {
			return c
		}
	}
	panic(fmt.Sprintf("gtree: %d--%d is not a tree edge", u, v))
}

// buildRooting precomputes the per-vertex edge-dimension masks, roots
// the tree at vertex 0 with a BFS filling parent and depth (used by
// Parent, Depth, Dist and Path), and derives the children adjacency
// table from the parent array.
func (t *Tree) buildRooting() {
	n := t.Nodes()
	t.dimMask = make([]uint32, n)
	for v := 0; v < n; v++ {
		var mask uint32
		for c := uint(0); c < t.alpha; c++ {
			if t.HasEdgeDim(Node(v), c) {
				mask |= 1 << c
			}
		}
		t.dimMask[v] = mask
	}
	t.parent = make([]int32, n)
	t.depth = make([]int32, n)
	for i := range t.parent {
		t.parent[i] = -2 // unvisited
	}
	t.parent[0] = -1
	queue := make([]Node, 1, n)
	queue[0] = 0
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		for m := t.dimMask[v]; m != 0; m &= m - 1 {
			w := v ^ Node(m&-m)
			if t.parent[w] == -2 {
				t.parent[w] = int32(v)
				t.depth[w] = t.depth[v] + 1
				queue = append(queue, w)
			}
		}
	}
	// Children CSR: count, prefix-sum, fill in label order so each
	// vertex's children come out ascending.
	t.childStart = make([]int32, n+1)
	for v := 1; v < n; v++ {
		t.childStart[t.parent[v]+1]++
	}
	for v := 0; v < n; v++ {
		t.childStart[v+1] += t.childStart[v]
	}
	t.childList = make([]Node, n-1)
	fill := make([]int32, n)
	for v := 1; v < n; v++ {
		p := t.parent[v]
		t.childList[t.childStart[p]+fill[p]] = Node(v)
		fill[p]++
	}
	// Subtree sizes, accumulated leaves-first along the reversed BFS
	// order (every vertex appears after its parent in queue).
	t.subSize = make([]int32, n)
	for i := range t.subSize {
		t.subSize[i] = 1
	}
	for head := len(queue) - 1; head > 0; head-- {
		v := queue[head]
		t.subSize[t.parent[v]] += t.subSize[v]
	}
	if t.alpha <= MaxCoverAlpha {
		t.subMask = make([]uint64, n)
		for v := range t.subMask {
			t.subMask[v] = 1 << v
		}
		for head := len(queue) - 1; head > 0; head-- {
			v := queue[head]
			t.subMask[t.parent[v]] |= t.subMask[v]
		}
	}
}

// MaxCoverAlpha is the largest alpha whose vertex sets fit the 64-bit
// masks CoverWalkLen takes.
const MaxCoverAlpha = 6

// CoverWalkLen returns the length of the shortest walk from a to b that
// visits every vertex of the set x (bit u for vertex u). Such a walk
// crosses each edge of the smallest subtree spanning x, a and b twice,
// except the edges of the a-b path, which it crosses once. The edge
// from v to its parent lies in the smallest subtree spanning a set iff
// the set has vertices both inside and outside v's subtree, so one pass
// over the precomputed subtree masks counts both edge sets: O(2^alpha)
// with no allocation. It equals the length of AppendWalkVisiting's walk
// and panics when alpha exceeds MaxCoverAlpha.
func (t *Tree) CoverWalkLen(a, b Node, x uint64) int {
	if t.subMask == nil {
		panic(fmt.Sprintf("gtree: CoverWalkLen needs alpha <= %d, have %d", MaxCoverAlpha, t.alpha))
	}
	ab := uint64(1)<<a | uint64(1)<<b
	x |= ab
	n := 0
	for _, sub := range t.subMask[1:] {
		if x&sub != 0 && x&^sub != 0 {
			n += 2
		}
		if ab&sub != 0 && ab&^sub != 0 {
			n--
		}
	}
	return n
}

// CoverWalkStep returns CoverWalkLen(a2, b, x) - CoverWalkLen(a, b, x)
// for the tree edge {a, a2}, which is -1 or +1, in O(1). Cut the edge
// and call a2's side far. Stepping toward b shortens the walk unless x
// keeps a vertex on a's side, which the walk must come back for.
// Stepping away from b shortens it only if x has a vertex on the far
// side, which the walk must reach anyway. The alpha must be at most
// MaxCoverAlpha.
func (t *Tree) CoverWalkStep(a, a2, b Node, x uint64) int {
	far := t.subMask[a2]
	if Node(t.parent[a2]) != a {
		far = ^t.subMask[a]
	}
	if far>>b&1 != 0 {
		if x&^far != 0 {
			return 1
		}
		return -1
	}
	if x&far != 0 {
		return -1
	}
	return 1
}

// ComponentAcross returns the number of vertices on w's side when the
// tree edge {v, w} is cut: w's subtree when w is v's child, everything
// above otherwise. It is the coverage bound re-rooting onto w can
// achieve after v dies in a single-frame cube, in O(1).
func (t *Tree) ComponentAcross(v, w Node) int {
	if Node(t.parent[w]) == v && w != 0 {
		return int(t.subSize[w])
	}
	return t.Nodes() - int(t.subSize[v])
}

// Parent returns the parent of v in the tree rooted at 0, and false for
// the root itself.
func (t *Tree) Parent(v Node) (Node, bool) {
	p := t.parent[v]
	if p < 0 {
		return 0, false
	}
	return Node(p), true
}

// Depth returns the depth of v in the tree rooted at 0.
func (t *Tree) Depth(v Node) int { return int(t.depth[v]) }

// LCA returns the lowest common ancestor of u and v under the rooting
// at 0.
func (t *Tree) LCA(u, v Node) Node {
	for t.depth[u] > t.depth[v] {
		u = Node(t.parent[u])
	}
	for t.depth[v] > t.depth[u] {
		v = Node(t.parent[v])
	}
	for u != v {
		u = Node(t.parent[u])
		v = Node(t.parent[v])
	}
	return u
}

// Dist returns the tree distance between u and v.
func (t *Tree) Dist(u, v Node) int {
	l := t.LCA(u, v)
	return int(t.depth[u] + t.depth[v] - 2*t.depth[l])
}

// Path returns the unique simple path from s to d computed from the
// rooting (via the LCA). It serves as the reference implementation the
// paper's PC algorithm is tested against.
func (t *Tree) Path(s, d Node) []Node {
	l := t.LCA(s, d)
	var up []Node
	for v := s; v != l; v = Node(t.parent[v]) {
		up = append(up, v)
	}
	up = append(up, l)
	var down []Node
	for v := d; v != l; v = Node(t.parent[v]) {
		down = append(down, v)
	}
	for i := len(down) - 1; i >= 0; i-- {
		up = append(up, down[i])
	}
	return up
}

// Diameter returns the exact diameter of the tree (the data behind the
// paper's Figure 2), computed with a double BFS in O(2^alpha).
func (t *Tree) Diameter() int { return graph.TreeDiameter(t) }
