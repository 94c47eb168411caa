package hypercube

import (
	"errors"
	"fmt"

	"gaussiancube/internal/bitutil"
	"gaussiancube/internal/graph"
)

// ErrUnreachable is returned when no fault-free route exists between the
// requested endpoints.
var ErrUnreachable = errors.New("hypercube: destination unreachable through non-faulty components")

// ErrFaultyEndpoint is returned when the source or destination itself is
// faulty; the paper's simulation assumption 1 requires both non-faulty.
var ErrFaultyEndpoint = errors.New("hypercube: source or destination node is faulty")

// ECubeRoute returns the dimension-ordered (e-cube) path from s to d in
// Q_dim, correcting set bits of s XOR d from dimension 0 upward. The
// path has exactly Hamming(s, d) hops and is the deadlock-free baseline
// the fault-tolerant routers are measured against.
func ECubeRoute(c *Cube, s, d Node) []Node {
	path := make([]Node, 1, bitutil.Hamming(uint64(s), uint64(d))+1)
	path[0] = s
	for r := uint64(s ^ d); r != 0; r &= r - 1 {
		path = append(path, path[len(path)-1]^1<<bitutil.LowestBit(r))
	}
	return path
}

// AppendRouteAdaptive routes from s to d around faults in the style of
// Lan's adaptive fault-tolerant routing [6]: at every node prefer a
// preferred dimension (a set bit of cur XOR d) whose link and far node
// are healthy and whose far node is unvisited; otherwise take a healthy
// spare dimension and mask it so it is never used as a spare again
// (this is the paper's livelock-freedom mechanism: "use the spare
// dimension and mask it so that it will not be used again"); as a last
// resort backtrack. The visited set makes the search a depth-first
// traversal of the healthy subgraph, so the algorithm delivers whenever
// s and d are connected; since Q_n is n-connected, fewer than n faults
// always leaves them connected (Theorem 3's precondition).
//
// The walk, appended onto dst, includes any backtracking steps,
// matching what a real message would traverse; on error dst comes back
// unextended. The second result is the number of spare (non-preferred,
// non-backtrack) hops taken. The visited set and backtrack stack live in
// sc, so once dst and sc have grown a route allocates nothing.
func AppendRouteAdaptive(dst []Node, sc *graph.WalkScratch, c *Cube, f Faults, s, d Node) ([]Node, int, error) {
	return AppendRouteAdaptiveDims(dst, sc, c.Nodes(), 1<<c.Dim()-1, f, s, d)
}

// AppendRouteAdaptiveDims is AppendRouteAdaptive in the subcube of a
// wider label space spanned by the dimensions in the mask dims: s and d
// differ only in dims, every hop flips one dims bit, and f is probed on
// the wide labels. nodes bounds the labels and sizes sc's visited
// bitmap. A GEEC slice of the Gaussian Cube routes this way directly on
// GC labels, with dims = Dim(k); the walk is the subcube route mapped
// through the embedding, since both visit dimensions in ascending order.
func AppendRouteAdaptiveDims(dst []Node, sc *graph.WalkScratch, nodes int, dims uint64, f Faults, s, d Node) ([]Node, int, error) {
	return spareWalk(dst, sc, nodes, f, s, d, func(cur Node, spareMask uint64) (uint, bool) {
		return pickDim(f, cur, d, dims, sc, spareMask)
	})
}

// spareWalk is the search every substrate shares, sc.Walk between
// healthy endpoints: pick chooses the next dimension out of cur given
// the spare dimensions used so far, and a chosen dimension that fixes no
// bit of cur XOR d is a spare, masked against reuse. The second result
// counts the spare hops.
func spareWalk(dst []Node, sc *graph.WalkScratch, nodes int, f Faults, s, d Node, pick func(cur Node, spareMask uint64) (uint, bool)) ([]Node, int, error) {
	if f.NodeFaulty(s) || f.NodeFaulty(d) {
		return dst, 0, ErrFaultyEndpoint
	}
	var spareMask uint64
	spares := 0
	dst, ok := sc.Walk(dst, nodes, s, d, func(cur Node) (uint, bool) {
		dim, ok := pick(cur, spareMask)
		if ok && !bitutil.HasBit(uint64(cur^d), dim) {
			spareMask = bitutil.Set(spareMask, dim)
			spares++
		}
		return dim, ok
	})
	if !ok {
		return dst, spares, ErrUnreachable
	}
	return dst, spares, nil
}

// pickDim selects the next dimension out of cur: first a usable
// preferred dimension (lowest first, mirroring e-cube order), then a
// usable unmasked spare dimension of dims, lowest first, each onto a
// node sc has not visited.
func pickDim(f Faults, cur, d Node, dims uint64, sc *graph.WalkScratch, spareMask uint64) (uint, bool) {
	r := uint64(cur ^ d)
	for m := r; m != 0; m &= m - 1 {
		if dim := uint(bitutil.LowestBit(m)); usable(f, cur, dim) && !sc.Visited(cur^(1<<dim)) {
			return dim, true
		}
	}
	for m := dims &^ r &^ spareMask; m != 0; m &= m - 1 {
		if dim := uint(bitutil.LowestBit(m)); usable(f, cur, dim) && !sc.Visited(cur^(1<<dim)) {
			return dim, true
		}
	}
	return 0, false
}

// ValidatePath checks that path is a hop-by-hop walk in Q_dim from s to
// d crossing no faulty component.
func ValidatePath(c *Cube, f Faults, path []Node, s, d Node) error {
	if len(path) == 0 {
		return errors.New("hypercube: empty path")
	}
	if path[0] != s || path[len(path)-1] != d {
		return fmt.Errorf("hypercube: path endpoints %d..%d, want %d..%d",
			path[0], path[len(path)-1], s, d)
	}
	for i, v := range path {
		if int(v) >= c.Nodes() {
			return fmt.Errorf("hypercube: vertex %d out of range", v)
		}
		if f.NodeFaulty(v) {
			return fmt.Errorf("hypercube: path visits faulty node %d", v)
		}
		if i > 0 {
			x := uint64(path[i-1] ^ v)
			if bitutil.OnesCount(x) != 1 {
				return fmt.Errorf("hypercube: hop %d->%d is not an edge", path[i-1], v)
			}
			dim := uint(bitutil.LowestBit(x))
			if f.LinkFaulty(path[i-1], dim) {
				return fmt.Errorf("hypercube: path crosses faulty link %d--%d", path[i-1], v)
			}
		}
	}
	return nil
}
