package gtree

import (
	"fmt"

	"gaussiancube/internal/bitutil"
)

// Edge identifies one Gaussian Tree edge {V, V XOR 2^Dim} in normalized
// form: bit Dim of V is clear. Both endpoints of a dimension-c edge
// share their low c bits (flipping bit c does not change them), so the
// normalization is canonical.
type Edge struct {
	V   Node
	Dim uint
}

// NormalizeEdge returns the canonical Edge for the tree edge {u, v}. It
// panics if {u, v} is not an edge of the tree.
func (t *Tree) NormalizeEdge(u, v Node) Edge {
	c := t.EdgeDim(u, v)
	return Edge{V: u &^ (1 << c), Dim: c}
}

// Ends returns the two endpoints of the edge.
func (e Edge) Ends() (Node, Node) { return e.V, e.V ^ Node(1)<<e.Dim }

// Edges enumerates every edge of the tree in normalized form, ascending
// by dimension and then by vertex — 2^alpha - 1 edges.
func (t *Tree) Edges() []Edge {
	out := make([]Edge, 0, t.Nodes()-1)
	for c := uint(0); c < t.alpha; c++ {
		// Dimension-c edges sit at vertices whose low c bits equal c; the
		// normalized endpoint additionally has bit c clear, so it runs
		// through c + j*2^(c+1).
		for v := Node(c); int(v) < t.Nodes(); v += Node(1) << (c + 1) {
			out = append(out, Edge{V: v, Dim: c})
		}
	}
	return out
}

// Forest is the repair planner's class-level view of a Gaussian Tree
// some of whose edges have been severed: it maintains the connected
// components of T minus the severed edges, locates each component's
// root (the re-rooting of Albader-style recovery: the surviving vertex
// closest to the original root 0), and computes class walks that
// provably avoid severed edges — or returns a partition verdict when no
// such walk exists.
//
// The structural fact the planner rests on: within one component the
// unique tree path between two vertices is the original path (a tree
// path uses edge e if and only if its endpoints lie in different
// components of T minus e), so walks whose endpoints, excursion targets
// and branch points all share a component never touch a severed edge.
//
// Forest is not safe for concurrent use; repair.Health wraps one behind
// its lock.
type Forest struct {
	t       *Tree
	severed map[Edge]bool
	comp    []int32 // component label per vertex
	root    []Node  // per-vertex component root (minimum-depth vertex)
	ncomp   int
}

// NewForest returns a Forest over t with every edge intact.
func NewForest(t *Tree) *Forest {
	f := &Forest{t: t, severed: make(map[Edge]bool)}
	f.rebuild()
	return f
}

// Tree returns the underlying intact tree.
func (f *Forest) Tree() *Tree { return f.t }

// Sever marks the edge {u, v} severed and reports whether the forest
// changed. It panics if {u, v} is not a tree edge.
func (f *Forest) Sever(u, v Node) bool {
	e := f.t.NormalizeEdge(u, v)
	if f.severed[e] {
		return false
	}
	f.severed[e] = true
	f.rebuild()
	return true
}

// Restore heals the severed edge {u, v} and reports whether the forest
// changed.
func (f *Forest) Restore(u, v Node) bool {
	e := f.t.NormalizeEdge(u, v)
	if !f.severed[e] {
		return false
	}
	delete(f.severed, e)
	f.rebuild()
	return true
}

// Severed reports whether the edge {u, v} is severed.
func (f *Forest) Severed(u, v Node) bool {
	return f.severed[f.t.NormalizeEdge(u, v)]
}

// SeveredEdges returns the severed edges in unspecified order.
func (f *Forest) SeveredEdges() []Edge {
	out := make([]Edge, 0, len(f.severed))
	for e := range f.severed {
		out = append(out, e)
	}
	return out
}

// Components returns the number of connected components.
func (f *Forest) Components() int { return f.ncomp }

// SameComponent reports whether u and v are connected around the
// severed edges.
func (f *Forest) SameComponent(u, v Node) bool { return f.comp[u] == f.comp[v] }

// ComponentRoot returns the root of v's component: its unique vertex of
// minimum depth under the original rooting at 0. A broadcast or closed
// traversal confined to a severed-off subtree re-roots there.
func (f *Forest) ComponentRoot(v Node) Node { return f.root[v] }

// rebuild recomputes component labels and roots: a BFS over the tree
// skipping severed edges. Components are discovered in ascending vertex
// order, so the BFS seed of each component is its minimum-depth vertex
// only by accident; the true root is tracked explicitly.
func (f *Forest) rebuild() {
	n := f.t.Nodes()
	if f.comp == nil {
		f.comp = make([]int32, n)
		f.root = make([]Node, n)
	}
	for i := range f.comp {
		f.comp[i] = -1
	}
	f.ncomp = 0
	queue := make([]Node, 0, n)
	for s := 0; s < n; s++ {
		if f.comp[s] >= 0 {
			continue
		}
		label := int32(f.ncomp)
		f.ncomp++
		root := Node(s)
		queue = append(queue[:0], Node(s))
		f.comp[s] = label
		for head := 0; head < len(queue); head++ {
			v := queue[head]
			if f.t.Depth(v) < f.t.Depth(root) {
				root = v
			}
			for m := f.t.dimMask[v]; m != 0; m &= m - 1 {
				d := Node(m & -m)
				w := v ^ d
				if f.comp[w] >= 0 || f.severed[Edge{V: v &^ d, Dim: uint(bitutil.LowestBit(uint64(d)))}] {
					continue
				}
				f.comp[w] = label
				queue = append(queue, w)
			}
		}
		for _, v := range queue {
			f.root[v] = root
		}
	}
}

// AppendWalkVisiting appends the minimal walk from s to d visiting
// every vertex of visit that provably avoids the severed edges, and
// returns the extended slice. When d or some visit vertex lies in a
// different component than s, no such walk exists — the tree minus the
// severed edge set is a forest, and every walk between components would
// have to cross a severed edge — so the original dst is returned along
// with the first unreachable vertex and ok == false: a partition
// verdict, not a routing failure.
func (f *Forest) AppendWalkVisiting(dst []Node, s, d Node, visit []Node) (walk []Node, blocked Node, ok bool) {
	c := f.comp[s]
	if f.comp[d] != c {
		return dst, d, false
	}
	for _, k := range visit {
		if f.comp[k] != c {
			return dst, k, false
		}
	}
	// All targets share s's component: the intact tree's walk is the
	// repaired walk (in-component tree paths never use a severed edge).
	return f.t.AppendWalkVisiting(dst, s, d, visit), 0, true
}

// String summarizes the forest for diagnostics.
func (f *Forest) String() string {
	return fmt.Sprintf("gtree.Forest{alpha=%d severed=%d components=%d}",
		f.t.alpha, len(f.severed), f.ncomp)
}
