package hypercube

import (
	"errors"
	"fmt"

	"gaussiancube/internal/bitutil"
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
	return AppendECubeRoute(make([]Node, 0, bitutil.Hamming(uint64(s), uint64(d))+1), s, d)
}

// AppendECubeRoute appends the e-cube path from s to d (both endpoints
// included) onto dst and returns the extended slice. It allocates only
// when dst lacks capacity, which makes it the building block of the
// zero-allocation routing hot path.
func AppendECubeRoute(dst []Node, s, d Node) []Node {
	dst = append(dst, s)
	cur := s
	for r := cur ^ d; r != 0; r = cur ^ d {
		dim := uint(bitutil.LowestBit(uint64(r)))
		cur ^= 1 << dim
		dst = append(dst, cur)
	}
	return dst
}

// RouteAdaptive routes from s to d around faults in the style of Lan's
// adaptive fault-tolerant routing [6]: at every node prefer a preferred
// dimension (a set bit of cur XOR d) whose link and far node are healthy
// and whose far node is unvisited; otherwise take a healthy spare
// dimension and mask it so it is never used as a spare again (this is
// the paper's livelock-freedom mechanism: "use the spare dimension and
// mask it so that it will not be used again"); as a last resort
// backtrack. The visited set makes the search a depth-first traversal of
// the healthy subgraph, so the algorithm delivers whenever s and d are
// connected; since Q_n is n-connected, fewer than n faults always leaves
// them connected (Theorem 3's precondition).
//
// The returned walk includes any backtracking steps, matching what a
// real message would traverse. The second result is the number of spare
// (non-preferred, non-backtrack) hops taken.
func RouteAdaptive(c *Cube, f Faults, s, d Node) ([]Node, int, error) {
	walk, spares, err := AppendRouteAdaptive(nil, new(AdaptiveScratch), c, f, s, d)
	if err != nil {
		return nil, spares, err
	}
	return walk, spares, nil
}

// AdaptiveScratch is the reusable working state of AppendRouteAdaptive.
// The zero value is ready to use; a scratch serves one route at a time.
type AdaptiveScratch struct {
	// seen is the visited set, a bitmap over the cube's nodes. It is all
	// zero between routes: every node it marks is on the walk, which
	// clears it.
	seen []uint64
	// stack[i] is the dimension used to enter the (i+1)th node of the
	// forward path; popping it backtracks.
	stack []uint
}

// AppendRouteAdaptive is RouteAdaptive appending the walk onto dst and
// keeping its visited set and backtrack stack in sc, so once dst and sc
// have grown a route allocates nothing. On error dst comes back
// unextended.
func AppendRouteAdaptive(dst []Node, sc *AdaptiveScratch, c *Cube, f Faults, s, d Node) ([]Node, int, error) {
	if f.NodeFaulty(s) || f.NodeFaulty(d) {
		return dst, 0, ErrFaultyEndpoint
	}
	start := len(dst)
	dst = append(dst, s)
	if s == d {
		return dst, 0, nil
	}
	if n := (c.Nodes() + 63) / 64; len(sc.seen) < n {
		sc.seen = make([]uint64, n)
	}
	seen, stack := sc.seen, sc.stack[:0]
	seen[s>>6] |= 1 << (s & 63)
	var spareMask uint64 // dimensions consumed as spares
	spares := 0
	cur := s
	var err error
	for cur != d {
		dim, ok := pickDim(c, f, cur, d, seen, spareMask)
		if ok {
			if !bitutil.HasBit(uint64(cur^d), dim) {
				spareMask = bitutil.Set(spareMask, dim)
				spares++
			}
			cur ^= 1 << dim
			seen[cur>>6] |= 1 << (cur & 63)
			dst = append(dst, cur)
			stack = append(stack, dim)
			continue
		}
		// Dead end: backtrack one hop.
		if len(stack) == 0 {
			err = ErrUnreachable
			break
		}
		dim = stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		cur ^= 1 << dim
		dst = append(dst, cur)
	}
	for _, v := range dst[start:] {
		seen[v>>6] &^= 1 << (v & 63)
	}
	sc.stack = stack[:0]
	if err != nil {
		return dst[:start], spares, err
	}
	return dst, spares, nil
}

// pickDim selects the next dimension out of cur: first a usable
// preferred dimension (lowest first, mirroring e-cube order), then a
// usable unmasked spare dimension. seen is the visited bitmap.
func pickDim(c *Cube, f Faults, cur, d Node, seen []uint64, spareMask uint64) (uint, bool) {
	r := uint64(cur ^ d)
	for m := r; m != 0; m &= m - 1 {
		if dim := uint(bitutil.LowestBit(m)); usable(f, cur, dim) && !marked(seen, cur^(1<<dim)) {
			return dim, true
		}
	}
	for dim := uint(0); dim < c.Dim(); dim++ {
		if bitutil.HasBit(r, dim) || bitutil.HasBit(spareMask, dim) {
			continue
		}
		if usable(f, cur, dim) && !marked(seen, cur^(1<<dim)) {
			return dim, true
		}
	}
	return 0, false
}

// marked reports whether bitmap seen has node v's bit set.
func marked(seen []uint64, v Node) bool { return seen[v>>6]>>(v&63)&1 != 0 }

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
