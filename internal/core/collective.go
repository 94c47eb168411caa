package core

import (
	"fmt"
	"sort"

	"gaussiancube/internal/gc"
	"gaussiancube/internal/graph"
)

// Collective communication primitives. The paper's introduction
// motivates Gaussian Cubes partly by their efficient communication
// primitives — "unicasting, multicasting, broadcasting/gathering can be
// done rather efficiently in all GCs" [Hsu et al.]. This file provides
// the three collectives on top of the routing substrate:
//
//   - Broadcast: a BFS spanning tree from the root; one message per
//     link of the tree, completing in eccentricity(root) steps.
//   - Gather: the same tree used in reverse (leaves to root).
//   - Multidrop: a single walk from a source visiting every
//     destination, built from the CT class traversal — the cube-level
//     analogue of the paper's multi-destination tree routing.

// BroadcastTree is a spanning tree of the healthy cube rooted at Root.
type BroadcastTree struct {
	Root gc.NodeID
	// Parent[v] is the tree parent of v; Parent[Root] = Root.
	// Unreachable (or faulty) nodes have Parent[v] = -1.
	Parent []int32
	// Depth[v] is the number of steps before v receives the message;
	// -1 when unreachable.
	Depth []int32
	// Steps is the number of rounds the broadcast takes: the maximum
	// depth of a reached node.
	Steps int
	// Reached counts the nodes that receive the message.
	Reached int
	// childStart/childList are the CSR child adjacency, built once at
	// construction: the children of v are
	// childList[childStart[v]:childStart[v+1]], ascending.
	childStart []int32
	childList  []gc.NodeID
}

// Broadcast builds the broadcast schedule from root over the healthy
// part of the cube.
func (r *Router) Broadcast(root gc.NodeID) (*BroadcastTree, error) {
	if int(root) >= r.cube.Nodes() {
		return nil, fmt.Errorf("core: root %d out of range", root)
	}
	if r.faults != nil && r.faults.NodeFaulty(root) {
		return nil, ErrFaultyEndpoint
	}
	n := r.cube.Nodes()
	bt := &BroadcastTree{
		Root:   root,
		Parent: make([]int32, n),
		Depth:  make([]int32, n),
	}
	for i := range bt.Parent {
		bt.Parent[i] = -1
		bt.Depth[i] = -1
	}
	bt.Parent[root] = int32(root)
	bt.Depth[root] = 0
	bt.Reached = 1
	queue := make([]gc.NodeID, 1, n)
	queue[0] = root
	for qi := 0; qi < len(queue); qi++ {
		v := queue[qi]
		for _, d := range r.cube.LinkDims(v) {
			w := v ^ (1 << d)
			if bt.Parent[w] != -1 {
				continue
			}
			if r.faults != nil && (r.faults.NodeFaulty(w) || r.faults.LinkFaulty(v, d)) {
				continue
			}
			bt.Parent[w] = int32(v)
			bt.Depth[w] = bt.Depth[v] + 1
			if int(bt.Depth[w]) > bt.Steps {
				bt.Steps = int(bt.Depth[w])
			}
			bt.Reached++
			queue = append(queue, w)
		}
	}
	bt.buildChildren()
	return bt, nil
}

// buildChildren fills the CSR child adjacency from Parent: a counting
// pass sizes each bucket, a prefix sum places it, and an ascending
// fill keeps every child list sorted.
func (bt *BroadcastTree) buildChildren() {
	n := len(bt.Parent)
	bt.childStart = make([]int32, n+1)
	for w, p := range bt.Parent {
		if p == -1 || gc.NodeID(w) == bt.Root {
			continue
		}
		bt.childStart[p+1]++
	}
	for i := 1; i <= n; i++ {
		bt.childStart[i] += bt.childStart[i-1]
	}
	bt.childList = make([]gc.NodeID, bt.childStart[n])
	cursor := make([]int32, n)
	copy(cursor, bt.childStart[:n])
	for w, p := range bt.Parent {
		if p == -1 || gc.NodeID(w) == bt.Root {
			continue
		}
		bt.childList[cursor[p]] = gc.NodeID(w)
		cursor[p]++
	}
}

// Children returns the tree children of v, ascending. The slice is a
// view into the precomputed adjacency built with the tree; callers
// must not modify it. Zero allocations per call.
func (bt *BroadcastTree) Children(v gc.NodeID) []gc.NodeID {
	if bt.childStart == nil {
		bt.buildChildren()
	}
	return bt.childList[bt.childStart[v]:bt.childStart[v+1]]
}

// GatherSchedule returns, per round, the set of (child -> parent)
// messages of the gather collective: the broadcast tree driven leaves-
// first, deepest nodes sending in the earliest round.
func (bt *BroadcastTree) GatherSchedule() [][][2]gc.NodeID {
	if bt.Steps == 0 {
		return nil
	}
	rounds := make([][][2]gc.NodeID, bt.Steps)
	for v, p := range bt.Parent {
		if p == -1 || gc.NodeID(v) == bt.Root {
			continue
		}
		// A node of depth d sends in round Steps - d.
		round := bt.Steps - int(bt.Depth[v])
		rounds[round] = append(rounds[round], [2]gc.NodeID{gc.NodeID(v), gc.NodeID(p)})
	}
	for _, r := range rounds {
		sort.Slice(r, func(i, j int) bool { return r[i][0] < r[j][0] })
	}
	return rounds
}

// Multidrop computes one walk from src that visits every destination,
// ordering the drops along the Gaussian Tree class walk (the same
// CT-style traversal the routing strategy uses) and concatenating
// optimal unicast segments. The walk ends at the last destination. The
// second result is the planned drop order (destinations grouped by
// ending class, classes in CT traversal order).
func (r *Router) Multidrop(src gc.NodeID, dests []gc.NodeID) ([]gc.NodeID, []gc.NodeID, error) {
	if len(dests) == 0 {
		return []gc.NodeID{src}, nil, nil
	}
	if r.faults != nil && r.faults.NodeFaulty(src) {
		return nil, nil, ErrFaultyEndpoint
	}
	// Deduplicate, drop src.
	seen := map[gc.NodeID]bool{src: true}
	targets := make([]gc.NodeID, 0, len(dests))
	for _, d := range dests {
		if int(d) >= r.cube.Nodes() {
			return nil, nil, fmt.Errorf("core: destination %d out of range", d)
		}
		if !seen[d] {
			seen[d] = true
			targets = append(targets, d)
		}
	}
	// Order the drops by a closed tree traversal over their classes:
	// destinations of the same class stay adjacent, classes appear in
	// CT visit order, which keeps the walk close to the Steiner bound.
	tr := r.cube.Tree()
	byClass := make(map[gc.NodeID][]gc.NodeID)
	var classes []gc.NodeID
	for _, d := range targets {
		k := r.cube.EndingClass(d)
		if len(byClass[k]) == 0 {
			classes = append(classes, k)
		}
		byClass[k] = append(byClass[k], d)
	}
	ct := tr.CT(r.cube.EndingClass(src), classes)
	var order []gc.NodeID
	visited := map[gc.NodeID]bool{}
	for _, k := range ct {
		if !visited[k] && len(byClass[k]) > 0 {
			visited[k] = true
			order = append(order, byClass[k]...)
		}
	}

	walk := []gc.NodeID{src}
	cur := src
	for _, d := range order {
		res, err := r.Route(cur, d)
		if err != nil {
			return nil, nil, err
		}
		walk = append(walk, res.Path[1:]...)
		cur = d
	}
	return walk, order, nil
}

// Eccentricity returns the broadcast depth bound of the fault-free cube
// from root, for sizing collective schedules.
func (r *Router) Eccentricity(root gc.NodeID) int {
	return graph.Eccentricity(r.cube, root)
}
