// Package mtree constructs multipath tree sets for the Gaussian Cube:
// k pairwise link-disjoint realizations of the Gaussian Tree, obtained
// by striping the tree-edge realization multigraph across frames.
//
// The ending-class quotient graph of GC(n, 2^alpha) IS the Gaussian
// Tree (DESIGN.md §3), so literal edge-disjoint spanning trees over
// the class graph cannot exist for alpha >= 1: a tree is its own only
// spanning tree, and every class pair has edge connectivity exactly 1.
// The disjointness the cube does admit lives one level down. Each tree
// edge {u, v} with dim c = EdgeDim(u, v) is realized by 2^(n-alpha)
// physical links, one per frame h (the high n-alpha address bits):
//
//	(h<<alpha | u) -- (h<<alpha | v)
//
// Striping those realizations — tree i owns the frames h with
// h & (k-1) == i — yields k trees that each span the class graph while
// sharing no physical link. That is what multipath routing needs:
// traffic striped across trees contends on disjoint link sets, and a
// crossing faulted in one tree's stripe is, by construction, a
// different physical link in every sibling stripe, so failover to a
// sibling tree never re-tries the dead link.
//
// Verify checks every claim mechanically against internal/graph
// instead of trusting the construction, and reports whether the
// stronger "completely independent spanning trees" property is
// admissible at the class level — it never is for alpha >= 1 and
// k > 1, which the report proves via MinEdgeCut rather than asserts.
package mtree

import (
	"fmt"

	"gaussiancube/internal/gc"
	"gaussiancube/internal/graph"
	"gaussiancube/internal/gtree"
)

// TreeSet is a set of k frame-striped Gaussian Trees over one cube.
// The zero tree set is invalid; use New. A TreeSet is immutable and
// safe for concurrent use.
type TreeSet struct {
	cube   *gc.Cube
	k      int
	alpha  uint
	frames uint32 // 2^(n-alpha)
	cmask  gc.NodeID
}

// New builds a set of k trees over c. k must be a power of two in
// [1, 2^(n-alpha)]: the stripe "frame & (k-1) == i" then selects, for
// any frame, the Hamming-nearest member of every stripe by flipping
// only the low log2(k) frame bits. k == 1 is the single-tree identity:
// one stripe owning every frame, behaviorally the paper's FFGCR.
func New(c *gc.Cube, k int) (*TreeSet, error) {
	frames := 1 << (c.N() - c.Alpha())
	if k < 1 || k > frames {
		return nil, fmt.Errorf("mtree: k=%d out of range [1, %d] for GC(%d, %d)", k, frames, c.N(), 1<<c.Alpha())
	}
	if k&(k-1) != 0 {
		return nil, fmt.Errorf("mtree: k=%d is not a power of two", k)
	}
	return &TreeSet{
		cube:   c,
		k:      k,
		alpha:  c.Alpha(),
		frames: uint32(frames),
		cmask:  gc.NodeID(1)<<c.Alpha() - 1,
	}, nil
}

// K returns the number of trees in the set.
func (ts *TreeSet) K() int { return ts.k }

// Cube returns the cube the set was built over.
func (ts *TreeSet) Cube() *gc.Cube { return ts.cube }

// Frames returns the number of frames, 2^(n-alpha).
func (ts *TreeSet) Frames() int { return int(ts.frames) }

// FrameOf returns the frame (high n-alpha bits) of node v.
func (ts *TreeSet) FrameOf(v gc.NodeID) uint32 { return uint32(v) >> ts.alpha }

// TreeOf returns the tree owning frame: the stripe index frame&(k-1).
func (ts *TreeSet) TreeOf(frame uint32) int { return int(frame) & (ts.k - 1) }

// OwnsFrame reports whether tree owns frame.
func (ts *TreeSet) OwnsFrame(tree int, frame uint32) bool {
	return int(frame)&(ts.k-1) == tree
}

// HomeFrame returns the Hamming-nearest frame of tree's stripe to
// frame: only the low log2(k) frame bits change.
func (ts *TreeSet) HomeFrame(tree int, frame uint32) uint32 {
	return frame&^uint32(ts.k-1) | uint32(tree)
}

// HomeNode returns the node in v's ending class whose frame is the
// Hamming-nearest member of tree's stripe to v's frame.
func (ts *TreeSet) HomeNode(tree int, v gc.NodeID) gc.NodeID {
	return gc.NodeID(ts.HomeFrame(tree, ts.FrameOf(v)))<<ts.alpha | v&ts.cmask
}

// TreeForFlow stripes a flow (src, dst) onto a tree: a cheap mixed
// hash so concurrent flows spread across the set deterministically.
// The multipliers match the RouteCache shard hash so a flow's cache
// entries and its tree assignment derive from the same mix.
func (ts *TreeSet) TreeForFlow(src, dst gc.NodeID) int {
	h := uint32(src)*0x9e3779b1 ^ uint32(dst)*0x85ebca77
	return int(h>>16^h) & (ts.k - 1)
}

// Resolve picks the tree a route from s to d is planned on: pin when it
// indexes a tree of the set, the flow stripe (TreeForFlow) otherwise.
// A nil set resolves every route to -1, the single-tree route. Every
// layer that plans, keys a cache or reports a tree resolves through
// here, so they agree by construction; a resolved tree resolves to
// itself.
func (ts *TreeSet) Resolve(pin int, s, d gc.NodeID) int {
	if ts == nil {
		return -1
	}
	if pin >= 0 && pin < ts.k {
		return pin
	}
	return ts.TreeForFlow(s, d)
}

// Links returns every physical link tree owns: for each of the
// 2^alpha - 1 class-tree edges, the realizations at the stripe's
// frames, normalized. The slice is freshly allocated.
func (ts *TreeSet) Links(tree int) []graph.Edge {
	classEdges := graph.Edges(ts.cube.Tree())
	out := make([]graph.Edge, 0, len(classEdges)*int(ts.frames)/ts.k)
	for h := uint32(tree); h < ts.frames; h += uint32(ts.k) {
		for _, e := range classEdges {
			out = append(out, graph.Edge{
				U: graph.NodeID(h)<<ts.alpha | e.U,
				V: graph.NodeID(h)<<ts.alpha | e.V,
			}.Normalize())
		}
	}
	return out
}

// Report is the mechanical verification verdict for one TreeSet.
type Report struct {
	K      int // trees in the set
	Frames int // frames per class edge, 2^(n-alpha)

	ClassEdges   int   // Gaussian Tree edges, 2^alpha - 1
	LinksPerTree []int // physical links owned by each tree

	// LinkDisjoint: no physical link appears in two trees' stripes.
	LinkDisjoint bool
	// Covered: the stripes partition the realization multigraph — every
	// realization of every class edge is owned by exactly one tree.
	Covered bool
	// Spanning: each tree's class projection is exactly the Gaussian
	// Tree (connected, 2^alpha - 1 edges: graph.IsTree).
	Spanning bool

	// ClassEdgeCut is the minimum edge cut between any two ending
	// classes, computed by graph.MinEdgeCut over the class graph. It is
	// 1 whenever the cube has at least two classes — the proof that
	// class-level edge-disjoint (and a fortiori completely independent)
	// spanning trees do not exist.
	ClassEdgeCut int
	// CISTAdmissible: whether k completely independent spanning trees
	// are admissible at the class level (k <= ClassEdgeCut, trivially
	// true for k == 1 or a single class).
	CISTAdmissible bool
}

// Verify mechanically checks the construction against internal/graph:
// every owned link is a real cube link, the stripes partition the
// realization multigraph, each tree's class projection is the Gaussian
// Tree, and the class-level edge connectivity bounds what stronger
// independence properties are admissible. It returns a non-nil error
// describing the first violation; the report is returned either way.
func (ts *TreeSet) Verify() (*Report, error) {
	tr := ts.cube.Tree()
	classEdges := graph.Edges(tr)
	rep := &Report{
		K:            ts.k,
		Frames:       int(ts.frames),
		ClassEdges:   len(classEdges),
		LinksPerTree: make([]int, ts.k),
		LinkDisjoint: true,
		Covered:      true,
		Spanning:     true,
	}

	owner := make(map[graph.Edge]int, len(classEdges)*int(ts.frames))
	for i := 0; i < ts.k; i++ {
		links := ts.Links(i)
		rep.LinksPerTree[i] = len(links)
		seenClass := make(map[graph.Edge]bool, len(classEdges))
		for _, l := range links {
			if !graph.Adjacent(ts.cube, l.U, l.V) {
				return rep, fmt.Errorf("mtree: tree %d claims non-link %d--%d", i, l.U, l.V)
			}
			if prev, dup := owner[l]; dup {
				rep.LinkDisjoint = false
				return rep, fmt.Errorf("mtree: link %d--%d owned by trees %d and %d", l.U, l.V, prev, i)
			}
			owner[l] = i
			seenClass[graph.Edge{
				U: graph.NodeID(ts.cube.EndingClass(gc.NodeID(l.U))),
				V: graph.NodeID(ts.cube.EndingClass(gc.NodeID(l.V))),
			}.Normalize()] = true
		}
		// The class projection must be exactly the Gaussian Tree: every
		// class edge present (spanning) and nothing else (projected
		// edges of a realization are class edges by construction).
		if len(seenClass) != len(classEdges) {
			rep.Spanning = false
			return rep, fmt.Errorf("mtree: tree %d projects onto %d of %d class edges", i, len(seenClass), len(classEdges))
		}
		proj := projection{tr: tr, edges: seenClass}
		if len(classEdges) > 0 && !graph.IsTree(proj) {
			rep.Spanning = false
			return rep, fmt.Errorf("mtree: tree %d class projection is not a tree", i)
		}
	}
	// Partition: every realization of every class edge owned exactly
	// once. Disjointness above proved "at most once"; the count proves
	// "at least once".
	if want := len(classEdges) * int(ts.frames); len(owner) != want {
		rep.Covered = false
		return rep, fmt.Errorf("mtree: stripes own %d links, realization multigraph has %d", len(owner), want)
	}

	// Class-level edge connectivity, mechanically: the minimum over
	// class pairs of MinEdgeCut. For a tree this is 1 — which is the
	// proof that class-level edge-disjoint spanning trees (and CISTs)
	// are not admissible for k > 1.
	m := tr.Nodes()
	if m > 1 {
		rep.ClassEdgeCut = m // upper bound; shrinks below
		for u := graph.NodeID(0); int(u) < m; u++ {
			for v := u + 1; int(v) < m; v++ {
				if cut := graph.MinEdgeCut(tr, u, v); cut < rep.ClassEdgeCut {
					rep.ClassEdgeCut = cut
				}
			}
			if m > 64 {
				// Large class graphs: the single-source sweep already
				// includes a leaf, whose degree-1 cut is the minimum.
				break
			}
		}
	}
	rep.CISTAdmissible = ts.k == 1 || m == 1 || ts.k <= rep.ClassEdgeCut
	if ts.k > 1 && m > 1 && rep.CISTAdmissible {
		return rep, fmt.Errorf("mtree: class graph claims edge cut %d >= k=%d on a tree", rep.ClassEdgeCut, ts.k)
	}
	return rep, nil
}

// projection exposes one tree's class-edge projection as a
// graph.Topology over the class labels.
type projection struct {
	tr    *gtree.Tree
	edges map[graph.Edge]bool
}

func (p projection) Nodes() int { return p.tr.Nodes() }

func (p projection) Neighbors(v graph.NodeID) []graph.NodeID {
	var out []graph.NodeID
	for _, w := range p.tr.Neighbors(v) {
		if p.edges[(graph.Edge{U: v, V: w}).Normalize()] {
			out = append(out, w)
		}
	}
	return out
}
