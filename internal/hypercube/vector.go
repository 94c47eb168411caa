package hypercube

import (
	"slices"

	"gaussiancube/internal/bitutil"
	"gaussiancube/internal/graph"
)

// Safety vectors refine Wu's safety levels (Wu & Jiang's extension of
// [5]): instead of one number per node, each node keeps an n-bit vector
// whose k-th bit asserts "every non-faulty destination at Hamming
// distance k is minimally reachable from here". The recurrence used
// here is the sound inductive form for a node-fault model:
//
//	bit 1 is set for every non-faulty node (the distance-1 destination
//	is itself non-faulty, and links are healthy in this model);
//	bit k is set when at least n-k+1 neighbors are non-faulty and have
//	bit k-1 set — then among the k preferred neighbors toward any
//	distance-k destination, at most k-1 can lack the bit, so one safe
//	step always exists.
//
// Like the levels, vectors are computed by n-1 synchronous rounds of
// neighbor exchange.

// SafetyVectors computes the per-node safety vectors of Q_n under f
// (bit k-1 of the returned word is the "distance k" bit). The second
// result is the number of exchange rounds performed.
func SafetyVectors(c *Cube, f Faults) ([]uint64, int) {
	var t SafetyTables
	rounds := t.vectors(f, 0, bitutil.Mask(c.Dim()))
	return t.vec, rounds
}

// vectors computes SafetyVectors for the subcube {base | x : x ⊆ dims}
// of a wider label space into t.vec, as levels does for SafetyLevels.
func (t *SafetyTables) vectors(f Faults, base, dims uint64) int {
	n := bitutil.OnesCount(dims)
	vec, next := slices.Grow(t.vec[:0], 1<<n)[:1<<n], slices.Grow(t.vecNext[:0], 1<<n)[:1<<n]
	for i, x := 0, uint64(0); i < len(vec); i, x = i+1, (x-dims)&dims {
		vec[i] = 0
		if !f.NodeFaulty(Node(base | x)) {
			vec[i] = 1 // distance-1 bit
		}
	}
	rounds := 0
	for iter := 1; iter < n; iter++ {
		rounds++
		copy(next, vec)
		changed := false
		for i, x := 0, uint64(0); i < len(vec); i, x = i+1, (x-dims)&dims {
			v := Node(base | x)
			if f.NodeFaulty(v) {
				continue
			}
			// live holds the coordinate bits of the neighbors reachable
			// over a healthy link.
			var live int
			for j, m := 0, dims; m != 0; j, m = j+1, m&(m-1) {
				if dim := uint(bitutil.LowestBit(m)); !f.LinkFaulty(v, dim) && !f.NodeFaulty(v^(1<<dim)) {
					live |= 1 << j
				}
			}
			for k := 2; k <= n; k++ {
				withBit := 0
				for l := live; l != 0; l &= l - 1 {
					if bitutil.HasBit(vec[i^l&-l], uint(k-2)) {
						withBit++
					}
				}
				has := bitutil.HasBit(vec[i], uint(k-1))
				want := withBit >= n-k+1
				if want != has {
					changed = true
					if want {
						next[i] = bitutil.Set(next[i], uint(k-1))
					} else {
						next[i] = bitutil.Clear(next[i], uint(k-1))
					}
				}
			}
		}
		vec, next = next, vec
		if !changed {
			break
		}
	}
	t.vec, t.vecNext = vec, next
	return rounds
}

// RouteSafetyVector routes s to d guided by safety vectors: when the
// current node's distance-h bit is set, it follows preferred neighbors
// whose distance-(h-1) bit is set, producing a minimal path by the
// inductive property; otherwise it degrades to the greedy-with-
// backtracking search of the other substrates, so delivery is still
// guaranteed whenever the healthy subgraph connects the endpoints.
func RouteSafetyVector(c *Cube, f Faults, s, d Node) ([]Node, int, error) {
	return AppendRouteSafetyVectorDims(nil, new(graph.WalkScratch), new(SafetyTables), c.Nodes(), bitutil.Mask(c.Dim()), f, s, d)
}

// AppendRouteSafetyVectorDims is RouteSafetyVector in the subcube
// spanned by dims, as AppendRouteSafetyDims is for RouteSafety.
func AppendRouteSafetyVectorDims(dst []Node, sc *graph.WalkScratch, t *SafetyTables, nodes int, dims uint64, f Faults, s, d Node) ([]Node, int, error) {
	t.vectors(f, uint64(s)&^dims, dims)
	return spareWalk(dst, sc, nodes, f, s, d, func(cur Node, spareMask uint64) (uint, bool) {
		return pickDimByVector(f, cur, d, dims, sc, spareMask, t.vec)
	})
}

// pickDimByVector picks, h hops from d, a usable unvisited preferred
// dimension whose far node has its distance-(h-1) bit set, lowest
// first; failing that (or at h = 1, where the neighbor is d itself) it
// picks as the adaptive router does.
func pickDimByVector(f Faults, cur, d Node, dims uint64, sc *graph.WalkScratch, spareMask uint64, vec []uint64) (uint, bool) {
	r := uint64(cur ^ d)
	if h := bitutil.OnesCount(r); h > 1 {
		at := coord(cur, dims)
		for j, m := 0, dims; m != 0; j, m = j+1, m&(m-1) {
			bit := m & -m
			if r&bit == 0 || !bitutil.HasBit(vec[at^1<<j], uint(h-2)) {
				continue
			}
			if dim := uint(bitutil.LowestBit(bit)); usable(f, cur, dim) && !sc.Visited(cur^Node(bit)) {
				return dim, true
			}
		}
	}
	return pickDim(f, cur, d, dims, sc, spareMask)
}
