package hypercube

import (
	"sort"

	"gaussiancube/internal/bitutil"
	"gaussiancube/internal/graph"
)

// SafetyLevels computes Wu's safety level [5] for every node of Q_n.
//
// A faulty node has level 0. For a non-faulty node u with neighbor
// levels sorted ascending (s_0 <= s_1 <= ... <= s_{n-1}), the level of u
// is the largest k such that s_i >= i for every i < k; a node of level n
// is "safe". Wu's semantics: a node of level l can reach any non-faulty
// destination within Hamming distance l over a minimal path, assuming
// node faults only.
//
// The computation mirrors the distributed protocol: every node starts at
// level n (0 if faulty) and the network performs rounds of neighbor
// status exchange until no level changes; Wu shows at most n-1 rounds
// are needed. The second result is the number of rounds performed, which
// the paper's characteristic 4 bounds by ceil(n/2^alpha)+1 per class in
// the Gaussian Cube setting.
//
// As a conservative extension beyond Wu's node-fault model, a neighbor
// seen across a faulty link is treated as level 0.
func SafetyLevels(c *Cube, f Faults) ([]int, int) {
	n := int(c.Dim())
	lvl := make([]int, c.Nodes())
	for v := range lvl {
		if f.NodeFaulty(Node(v)) {
			lvl[v] = 0
		} else {
			lvl[v] = n
		}
	}
	rounds := 0
	seen := make([]int, n)
	for iter := 0; iter < n; iter++ {
		rounds++
		changed := false
		next := make([]int, len(lvl))
		for v := range lvl {
			if f.NodeFaulty(Node(v)) {
				next[v] = 0
				continue
			}
			for i := uint(0); i < uint(n); i++ {
				w := Node(v) ^ (1 << i)
				if f.LinkFaulty(Node(v), i) {
					seen[i] = 0
				} else {
					seen[i] = lvl[w]
				}
			}
			sort.Ints(seen)
			k := 0
			for k < n && seen[k] >= k {
				k++
			}
			next[v] = k
			if k != lvl[v] {
				changed = true
			}
		}
		lvl = next
		if !changed {
			break
		}
	}
	return lvl, rounds
}

// RouteSafety routes from s to d guided by safety levels, in the style
// of Wu's reliable unicasting [5]: among usable preferred neighbors it
// picks the one with the highest safety level (guaranteeing a minimal
// path whenever level(s) >= Hamming(s,d) under node faults); when no
// preferred neighbor is usable it takes the safest unmasked spare
// dimension, masking it against reuse; as a last resort it backtracks,
// so delivery is guaranteed whenever the healthy subgraph connects s and
// d. The walk, the number of spare hops, and an error are returned.
func RouteSafety(c *Cube, f Faults, s, d Node) ([]Node, int, error) {
	var lvl []int
	sc := new(graph.WalkScratch)
	return spareWalk(nil, sc, c.Nodes(), f, s, d, func(cur Node, spareMask uint64) (uint, bool) {
		if lvl == nil {
			lvl, _ = SafetyLevels(c, f)
		}
		return pickDimBySafety(c, f, cur, d, sc, spareMask, lvl)
	})
}

func pickDimBySafety(c *Cube, f Faults, cur, d Node, sc *graph.WalkScratch, spareMask uint64, lvl []int) (uint, bool) {
	r := uint64(cur ^ d)
	best, bestLvl := uint(0), -1
	for _, dim := range bitutil.BitsSet(r) {
		w := cur ^ (1 << dim)
		if usable(f, cur, dim) && !sc.Visited(w) && lvl[w] > bestLvl {
			best, bestLvl = dim, lvl[w]
		}
	}
	if bestLvl >= 0 {
		return best, true
	}
	for dim := uint(0); dim < c.Dim(); dim++ {
		if bitutil.HasBit(r, dim) || bitutil.HasBit(spareMask, dim) {
			continue
		}
		w := cur ^ (1 << dim)
		if usable(f, cur, dim) && !sc.Visited(w) && lvl[w] > bestLvl {
			best, bestLvl = dim, lvl[w]
		}
	}
	if bestLvl >= 0 {
		return best, true
	}
	return 0, false
}
