package core

import (
	"testing"

	"gaussiancube/internal/gc"
	"gaussiancube/internal/graph"
	"gaussiancube/internal/gtree"
)

// TestGCDistance checks the closed-form fault-free distance the
// fallback bounds its search with, on every pair of every GC(n, 2^alpha)
// with n <= 8 and alpha up to gtree.MaxCoverAlpha: it must equal the
// length of FFGCR's optimal route (OptimalLength) and the BFS distance
// in the fault-free cube. It also checks the step rule expand relies
// on: a hop across a high dimension i changes the distance by exactly
// one, down when the endpoints differ in bit i, and a tree hop changes
// it by gtree.Tree.CoverWalkStep.
func TestGCDistance(t *testing.T) {
	for n := uint(1); n <= 8; n++ {
		for alpha := uint(0); alpha <= n && alpha <= gtree.MaxCoverAlpha; alpha++ {
			cube := gc.New(n, alpha)
			r := NewRouter(cube)
			for u := gc.NodeID(0); int(u) < cube.Nodes(); u++ {
				bfs := graph.BFS(cube, u)
				for v := gc.NodeID(0); int(v) < cube.Nodes(); v++ {
					h := r.distance(u, v)
					if opt := r.OptimalLength(u, v); h != bfs[v] || h != opt {
						t.Fatalf("GC(%d,2^%d) %d->%d: distance %d, OptimalLength %d, BFS %d", n, alpha, u, v, h, opt, bfs[v])
					}
					for _, dim := range cube.LinkDims(u) {
						want := h + 1 - 2*int((u^v)>>dim&1)
						if dim < alpha {
							want = h + cube.Tree().CoverWalkStep(cube.EndingClass(u), cube.EndingClass(u^1<<dim), cube.EndingClass(v), r.pendingClasses(u, v))
						}
						if got := r.distance(u^1<<dim, v); got != want {
							t.Fatalf("GC(%d,2^%d) %d->%d: hop across dim %d gives distance %d, want %d", n, alpha, u, v, dim, got, want)
						}
					}
				}
			}
		}
	}
}

// FuzzGCDistance checks the closed-form fault-free distance against a
// BFS over the fault-free cube on fuzzed shapes and endpoints.
func FuzzGCDistance(f *testing.F) {
	f.Add(uint8(10), uint8(2), uint16(17), uint16(1000))
	f.Add(uint8(12), uint8(3), uint16(5), uint16(4000))
	f.Add(uint8(7), uint8(6), uint16(0), uint16(127))
	f.Add(uint8(6), uint8(0), uint16(9), uint16(54))
	f.Fuzz(func(t *testing.T, nRaw, aRaw uint8, uRaw, vRaw uint16) {
		n := uint(1 + nRaw%12)
		alpha := uint(aRaw) % (min(n, gtree.MaxCoverAlpha) + 1)
		cube := gc.New(n, alpha)
		u, v := gc.NodeID(int(uRaw)%cube.Nodes()), gc.NodeID(int(vRaw)%cube.Nodes())
		if got, want := NewRouter(cube).distance(u, v), graph.Distance(cube, u, v); got != want {
			t.Fatalf("GC(%d,2^%d) %d->%d: distance %d, BFS %d", n, alpha, u, v, got, want)
		}
	})
}
