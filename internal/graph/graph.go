// Package graph provides a generic undirected-graph substrate used to
// cross-validate every closed-form topological claim in the paper:
// connectivity, tree-ness, diameters, shortest paths, and isomorphism of
// the decomposition subgraphs (GEEC vs hypercube, G(p,q,k) vs EH(s,t)).
//
// Topologies expose themselves through the Topology interface; the
// algorithms here work on any of them. Node identifiers are dense labels
// in [0, Nodes()), which matches the bit-string labelling used throughout
// the repository.
package graph

// NodeID identifies a vertex. All topologies in this repository use dense
// labels in [0, Nodes()).
type NodeID uint32

// Topology is the minimal interface every interconnection network in this
// repository implements.
type Topology interface {
	// Nodes returns the number of vertices. Labels are [0, Nodes()).
	Nodes() int
	// Neighbors returns the neighbors of v in a deterministic order.
	Neighbors(v NodeID) []NodeID
}

// Edge is an undirected edge; by convention U <= V in normalized form.
type Edge struct {
	U, V NodeID
}

// Normalize returns the edge with endpoints ordered U <= V.
func (e Edge) Normalize() Edge {
	if e.U > e.V {
		return Edge{e.V, e.U}
	}
	return e
}

// Edges enumerates every undirected edge of t exactly once, normalized.
func Edges(t Topology) []Edge {
	var out []Edge
	n := NodeID(t.Nodes())
	for v := NodeID(0); v < n; v++ {
		for _, w := range t.Neighbors(v) {
			if v < w {
				out = append(out, Edge{v, w})
			}
		}
	}
	return out
}

// EdgeCount returns the number of undirected edges of t.
func EdgeCount(t Topology) int {
	total := 0
	n := NodeID(t.Nodes())
	for v := NodeID(0); v < n; v++ {
		total += len(t.Neighbors(v))
	}
	return total / 2
}

// BFS computes single-source shortest-path distances from src.
// Unreachable vertices get distance -1.
func BFS(t Topology, src NodeID) []int {
	dist := make([]int, t.Nodes())
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := []NodeID{src}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, w := range t.Neighbors(v) {
			if dist[w] == -1 {
				dist[w] = dist[v] + 1
				queue = append(queue, w)
			}
		}
	}
	return dist
}

// ShortestPath returns one shortest path from src to dst as a vertex
// sequence including both endpoints, or nil if dst is unreachable.
func ShortestPath(t Topology, src, dst NodeID) []NodeID {
	if src == dst {
		return []NodeID{src}
	}
	prev := make([]int32, t.Nodes())
	for i := range prev {
		prev[i] = -1
	}
	prev[src] = int32(src)
	queue := []NodeID{src}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, w := range t.Neighbors(v) {
			if prev[w] == -1 {
				prev[w] = int32(v)
				if w == dst {
					return tracePath(prev, src, dst)
				}
				queue = append(queue, w)
			}
		}
	}
	return nil
}

func tracePath(prev []int32, src, dst NodeID) []NodeID {
	var rev []NodeID
	for v := dst; ; v = NodeID(prev[v]) {
		rev = append(rev, v)
		if v == src {
			break
		}
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// Distance returns the shortest-path distance between u and v, or -1 if
// disconnected.
func Distance(t Topology, u, v NodeID) int {
	return BFS(t, u)[v]
}

// Connected reports whether t is connected (true for the empty and
// single-vertex graph).
func Connected(t Topology) bool {
	if t.Nodes() <= 1 {
		return true
	}
	dist := BFS(t, 0)
	for _, d := range dist {
		if d == -1 {
			return false
		}
	}
	return true
}

// Components returns the vertex sets of the connected components of t,
// each sorted ascending, ordered by smallest member.
func Components(t Topology) [][]NodeID {
	n := t.Nodes()
	seen := make([]bool, n)
	var comps [][]NodeID
	for s := 0; s < n; s++ {
		if seen[s] {
			continue
		}
		var comp []NodeID
		queue := []NodeID{NodeID(s)}
		seen[s] = true
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			comp = append(comp, v)
			for _, w := range t.Neighbors(v) {
				if !seen[w] {
					seen[w] = true
					queue = append(queue, w)
				}
			}
		}
		sortNodeIDs(comp)
		comps = append(comps, comp)
	}
	return comps
}

func sortNodeIDs(s []NodeID) {
	// Insertion sort: component slices are small in tests and this keeps
	// the package free of sort-interface boilerplate.
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// Eccentricity returns the maximum distance from v to any vertex, or -1
// if some vertex is unreachable from v.
func Eccentricity(t Topology, v NodeID) int {
	ecc := 0
	for _, d := range BFS(t, v) {
		if d == -1 {
			return -1
		}
		if d > ecc {
			ecc = d
		}
	}
	return ecc
}

// Diameter computes the exact diameter by running a BFS from every
// vertex. It returns -1 for disconnected graphs. O(V·E); fine for the
// exhaustive small-scale verification this repository performs.
func Diameter(t Topology) int {
	diam := 0
	for v := 0; v < t.Nodes(); v++ {
		e := Eccentricity(t, NodeID(v))
		if e == -1 {
			return -1
		}
		if e > diam {
			diam = e
		}
	}
	return diam
}

// TreeDiameter computes the diameter of a tree with the classic double
// BFS: the farthest vertex from an arbitrary start is one end of a
// diameter path. O(V+E), used for large Gaussian Trees (Figure 2).
func TreeDiameter(t Topology) int {
	if t.Nodes() == 0 {
		return 0
	}
	d0 := BFS(t, 0)
	far := 0
	for v, d := range d0 {
		if d > d0[far] {
			far = v
		}
	}
	d1 := BFS(t, NodeID(far))
	diam := 0
	for _, d := range d1 {
		if d > diam {
			diam = d
		}
	}
	return diam
}

// IsTree reports whether t is a tree using the paper's Lemma 1: a graph
// on n vertices is a tree iff it is connected and has n-1 edges.
func IsTree(t Topology) bool {
	if t.Nodes() == 0 {
		return false
	}
	return Connected(t) && EdgeCount(t) == t.Nodes()-1
}

// IsValidWalk reports whether path is a walk in t: consecutive vertices
// adjacent, every vertex in range. A single vertex is a valid walk.
func IsValidWalk(t Topology, path []NodeID) bool {
	if len(path) == 0 {
		return false
	}
	for _, v := range path {
		if int(v) >= t.Nodes() {
			return false
		}
	}
	for i := 1; i < len(path); i++ {
		if !adjacent(t, path[i-1], path[i]) {
			return false
		}
	}
	return true
}

// IsSimplePath reports whether path is a walk that visits no vertex twice.
func IsSimplePath(t Topology, path []NodeID) bool {
	if !IsValidWalk(t, path) {
		return false
	}
	seen := make(map[NodeID]bool, len(path))
	for _, v := range path {
		if seen[v] {
			return false
		}
		seen[v] = true
	}
	return true
}

func adjacent(t Topology, u, v NodeID) bool {
	for _, w := range t.Neighbors(u) {
		if w == v {
			return true
		}
	}
	return false
}

// Adjacent reports whether u and v share an edge in t.
func Adjacent(t Topology, u, v NodeID) bool {
	return adjacent(t, u, v)
}
