package hypercube

import (
	"slices"
	"sort"

	"gaussiancube/internal/bitutil"
	"gaussiancube/internal/graph"
)

// SafetyTables is the reusable storage of the safety-level and
// safety-vector substrates: one subcube's per-node table and its
// next-round buffer, with 2^|dims| entries indexed by subcube coordinate
// (bit j is the node's bit in the j-th lowest dimension of dims). The
// zero value is ready to use; once grown, filling allocates nothing.
type SafetyTables struct {
	lvl, lvlNext []int
	vec, vecNext []uint64
	seen         []int
}

// coord returns the subcube coordinate of v under dims.
func coord(v Node, dims uint64) int {
	at := 0
	for j, m := 0, dims; m != 0; j, m = j+1, m&(m-1) {
		if uint64(v)&m&-m != 0 {
			at |= 1 << j
		}
	}
	return at
}

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
	var t SafetyTables
	rounds := t.levels(f, 0, bitutil.Mask(c.Dim()))
	return t.lvl, rounds
}

// levels computes SafetyLevels for the subcube {base | x : x ⊆ dims} of
// a wider label space into t.lvl, probing f on the wide labels, and
// returns the number of rounds. x = (x - dims) & dims steps through the
// subsets of dims in increasing order, which is coordinate order.
func (t *SafetyTables) levels(f Faults, base, dims uint64) int {
	n := bitutil.OnesCount(dims)
	lvl, next := slices.Grow(t.lvl[:0], 1<<n)[:1<<n], slices.Grow(t.lvlNext[:0], 1<<n)[:1<<n]
	seen := slices.Grow(t.seen[:0], n)[:n]
	for i, x := 0, uint64(0); i < len(lvl); i, x = i+1, (x-dims)&dims {
		lvl[i] = n
		if f.NodeFaulty(Node(base | x)) {
			lvl[i] = 0
		}
	}
	rounds := 0
	for iter := 0; iter < n; iter++ {
		rounds++
		changed := false
		for i, x := 0, uint64(0); i < len(lvl); i, x = i+1, (x-dims)&dims {
			v := Node(base | x)
			if f.NodeFaulty(v) {
				next[i] = 0
				continue
			}
			for j, m := 0, dims; m != 0; j, m = j+1, m&(m-1) {
				if f.LinkFaulty(v, uint(bitutil.LowestBit(m))) {
					seen[j] = 0
				} else {
					seen[j] = lvl[i^1<<j]
				}
			}
			sort.Ints(seen)
			k := 0
			for k < n && seen[k] >= k {
				k++
			}
			next[i] = k
			if k != lvl[i] {
				changed = true
			}
		}
		lvl, next = next, lvl
		if !changed {
			break
		}
	}
	t.lvl, t.lvlNext, t.seen = lvl, next, seen
	return rounds
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
	return AppendRouteSafetyDims(nil, new(graph.WalkScratch), new(SafetyTables), c.Nodes(), bitutil.Mask(c.Dim()), f, s, d)
}

// AppendRouteSafetyDims is RouteSafety in the subcube of a wider label
// space spanned by the dimensions in the mask dims, as
// AppendRouteAdaptiveDims is for the adaptive router: s and d differ
// only in dims, the walk is appended onto dst (unextended on error), f
// is probed on the wide labels, and the levels of the subcube holding s
// are computed into t. nodes bounds the labels and sizes sc's visited
// bitmap.
func AppendRouteSafetyDims(dst []Node, sc *graph.WalkScratch, t *SafetyTables, nodes int, dims uint64, f Faults, s, d Node) ([]Node, int, error) {
	t.levels(f, uint64(s)&^dims, dims)
	return spareWalk(dst, sc, nodes, f, s, d, func(cur Node, spareMask uint64) (uint, bool) {
		return pickDimBySafety(f, cur, d, dims, sc, spareMask, t.lvl)
	})
}

// pickDimBySafety picks the usable unvisited preferred dimension whose
// far node has the highest level, else the highest-level unmasked spare
// dimension, lowest first among equals.
func pickDimBySafety(f Faults, cur, d Node, dims uint64, sc *graph.WalkScratch, spareMask uint64, lvl []int) (uint, bool) {
	r := uint64(cur ^ d)
	at := coord(cur, dims)
	for _, cand := range [2]uint64{r, dims &^ r &^ spareMask} {
		best, bestLvl := uint(0), -1
		for j, m := 0, dims; m != 0; j, m = j+1, m&(m-1) {
			bit := m & -m
			if cand&bit == 0 {
				continue
			}
			dim := uint(bitutil.LowestBit(bit))
			if l := lvl[at^1<<j]; l > bestLvl && usable(f, cur, dim) && !sc.Visited(cur^Node(bit)) {
				best, bestLvl = dim, l
			}
		}
		if bestLvl >= 0 {
			return best, true
		}
	}
	return 0, false
}
