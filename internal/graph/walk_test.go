package graph

import (
	"slices"
	"testing"
)

// TestWalk: on Q_3 with nodes 1 and 2 blocked, a walk from 0 to 3 that
// always picks the lowest unvisited, unblocked dimension dead-ends at 6
// and backtracks; with 4 blocked too, 0 is walled in and the walk
// reports false with dst unextended. Either way the scratch is left
// clean.
func TestWalk(t *testing.T) {
	blocked := map[NodeID]bool{1: true, 2: true}
	var sc WalkScratch
	next := func(cur NodeID) (uint, bool) {
		for dim := uint(0); dim < 3; dim++ {
			if w := cur ^ 1<<dim; !blocked[w] && !sc.Visited(w) {
				return dim, true
			}
		}
		return 0, false
	}
	walk, ok := sc.Walk([]NodeID{99}, 8, 0, 3, next)
	if want := []NodeID{99, 0, 4, 5, 7, 6, 7, 3}; !ok || !slices.Equal(walk, want) {
		t.Fatalf("walk %v ok %v, want %v", walk, ok, want)
	}
	blocked[4] = true
	walk, ok = sc.Walk([]NodeID{99}, 8, 0, 3, next)
	if ok || !slices.Equal(walk, []NodeID{99}) {
		t.Fatalf("walled-in walk %v ok %v, want [99] false", walk, ok)
	}
	for i, w := range sc.seen {
		if w != 0 {
			t.Fatalf("seen word %d = %#x after the walks, want 0", i, w)
		}
	}
}
