package hypercube

import (
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
	n := int(c.Dim())
	vec := make([]uint64, c.Nodes())
	for v := range vec {
		if !f.NodeFaulty(Node(v)) {
			vec[v] = 1 // distance-1 bit
		}
	}
	rounds := 0
	for iter := 1; iter < n; iter++ {
		rounds++
		next := make([]uint64, len(vec))
		copy(next, vec)
		changed := false
		for v := range vec {
			if f.NodeFaulty(Node(v)) {
				continue
			}
			for k := 2; k <= n; k++ {
				withBit := 0
				for i := uint(0); i < uint(n); i++ {
					w := Node(v) ^ (1 << i)
					if f.LinkFaulty(Node(v), i) || f.NodeFaulty(w) {
						continue
					}
					if bitutil.HasBit(vec[w], uint(k-2)) {
						withBit++
					}
				}
				has := bitutil.HasBit(vec[v], uint(k-1))
				want := withBit >= n-k+1
				if want != has {
					changed = true
					if want {
						next[v] = bitutil.Set(next[v], uint(k-1))
					} else {
						next[v] = bitutil.Clear(next[v], uint(k-1))
					}
				}
			}
		}
		vec = next
		if !changed {
			break
		}
	}
	return vec, rounds
}

// RouteSafetyVector routes s to d guided by safety vectors: when the
// current node's distance-h bit is set, it follows preferred neighbors
// whose distance-(h-1) bit is set, producing a minimal path by the
// inductive property; otherwise it degrades to the greedy-with-
// backtracking search of the other substrates, so delivery is still
// guaranteed whenever the healthy subgraph connects the endpoints.
func RouteSafetyVector(c *Cube, f Faults, s, d Node) ([]Node, int, error) {
	var vec []uint64
	sc := new(graph.WalkScratch)
	return spareWalk(nil, sc, c.Nodes(), f, s, d, func(cur Node, spareMask uint64) (uint, bool) {
		if vec == nil {
			vec, _ = SafetyVectors(c, f)
		}
		return pickDimByVector(c, f, cur, d, sc, spareMask, vec)
	})
}

func pickDimByVector(c *Cube, f Faults, cur, d Node, sc *graph.WalkScratch, spareMask uint64, vec []uint64) (uint, bool) {
	r := uint64(cur ^ d)
	h := bitutil.OnesCount(r)
	// Preferred neighbors whose distance-(h-1) bit is set first (h = 1
	// means the neighbor is d itself).
	for pass := 0; pass < 2; pass++ {
		for _, dim := range bitutil.BitsSet(r) {
			w := cur ^ (1 << dim)
			if !usable(f, cur, dim) || sc.Visited(w) {
				continue
			}
			if pass == 0 && h > 1 && !bitutil.HasBit(vec[w], uint(h-2)) {
				continue
			}
			return dim, true
		}
	}
	for dim := uint(0); dim < c.Dim(); dim++ {
		if bitutil.HasBit(r, dim) || bitutil.HasBit(spareMask, dim) {
			continue
		}
		if usable(f, cur, dim) && !sc.Visited(cur^(1<<dim)) {
			return dim, true
		}
	}
	return 0, false
}
