package exchanged

import (
	"errors"
	"fmt"
	"math"

	"gaussiancube/internal/bitutil"
	"gaussiancube/internal/graph"
)

// Routing errors.
var (
	// ErrFaultyEndpoint mirrors the paper's simulation assumption 1:
	// source and destination must be non-faulty.
	ErrFaultyEndpoint = errors.New("exchanged: source or destination node is faulty")
	// ErrUnreachable is returned when the fault pattern disconnects the
	// endpoints (possible only when Theorem 4's precondition fails).
	ErrUnreachable = errors.New("exchanged: destination unreachable through non-faulty components")
)

// AppendRoute is the FREH fault-tolerant router for EH(s, t) (Algorithm 4,
// Theorem 4). At every node it takes the usable link whose far end is
// closest to the destination under the closed-form EH distance —
// preferring the subcube dimension that fixes a coordinate of the
// current side, or the dimension-0 crossing, exactly as the paper's
// case analysis does — and when every productive link is blocked it
// falls back on an unvisited sideways link (the paper's masked spare
// dimension: the visited set plays the role of the mask and guarantees
// livelock freedom) or, as a last resort, backtracks. The search is a
// depth-first traversal of the healthy subgraph, so delivery is
// guaranteed whenever the non-faulty components connect r and d — in
// particular under Theorem 4's precondition Fs+F0 < s and Ft+F0 < t.
//
// In a fault-free network the walk is minimal (H(r, d) hops). With
// faults, each in-cube fault detour costs 2 extra hops and each blocked
// dimension-0 portal costs up to 4 (the spare crossing plus the to-and-
// fro that repairs the perturbed coordinate), matching the shape of the
// paper's H(r,d) + 2(Fs+Ft) + 2 bound; the exact constants are measured
// in the benchmark harness.
//
// The walk, backtracking steps included, is appended onto dst; on error
// dst comes back unextended. The visited set and backtrack stack live in
// sc, so once dst and sc have grown a route allocates nothing.
func AppendRoute(dst []Node, sc *graph.WalkScratch, e *EH, f Faults, r, d Node) ([]Node, error) {
	return AppendRouteDims(dst, sc, e.Nodes(), e.embedding(), f, r, d)
}

// AppendRouteDims is AppendRoute on the embedding m in a label space of
// nodes labels: r and d lie in one embedded copy, each hop flips one
// dimension of the current node's links under m, trying them lowest
// first, and f is probed on the wide labels. A pair subgraph of the
// Gaussian Cube routes this way directly on GC labels; the walk is the
// EH-label route mapped through the isomorphism, since both try the
// dimensions in the same order.
func AppendRouteDims(dst []Node, sc *graph.WalkScratch, nodes int, m Embedding, f Faults, r, d Node) ([]Node, error) {
	if f.NodeFaulty(r) || f.NodeFaulty(d) {
		return dst, ErrFaultyEndpoint
	}
	dst, ok := sc.Walk(dst, nodes, r, d, func(cur Node) (uint, bool) {
		bestDim, bestDist := uint(0), math.MaxInt
		for l := m.links(cur); l != 0; l &= l - 1 {
			dim := uint(bitutil.LowestBit(l))
			nb := cur ^ (1 << dim)
			if f.LinkFaulty(cur, dim) || sc.Visited(nb) || f.NodeFaulty(nb) {
				continue
			}
			if dist := m.Distance(nb, d); dist < bestDist {
				bestDim, bestDist = dim, dist
			}
		}
		return bestDim, bestDist < math.MaxInt
	})
	if !ok {
		return dst, ErrUnreachable
	}
	return dst, nil
}

// ValidatePath checks that path is a hop-by-hop walk in EH(s, t) from r
// to d over healthy components only.
func ValidatePath(e *EH, f Faults, path []Node, r, d Node) error {
	if len(path) == 0 {
		return errors.New("exchanged: empty path")
	}
	if path[0] != r || path[len(path)-1] != d {
		return fmt.Errorf("exchanged: endpoints %d..%d, want %d..%d",
			path[0], path[len(path)-1], r, d)
	}
	for i, v := range path {
		if int(v) >= e.Nodes() {
			return fmt.Errorf("exchanged: vertex %d out of range", v)
		}
		if f.NodeFaulty(v) {
			return fmt.Errorf("exchanged: path visits faulty node %d", v)
		}
		if i > 0 {
			x := uint64(path[i-1] ^ v)
			if bitutil.OnesCount(x) != 1 {
				return fmt.Errorf("exchanged: hop %d->%d flips several bits", path[i-1], v)
			}
			dim := uint(bitutil.LowestBit(x))
			if !e.HasLinkDim(path[i-1], dim) {
				return fmt.Errorf("exchanged: hop %d->%d is not an EH link", path[i-1], v)
			}
			if f.LinkFaulty(path[i-1], dim) {
				return fmt.Errorf("exchanged: path crosses faulty link %d--%d", path[i-1], v)
			}
		}
	}
	return nil
}
