package simnet

import (
	"math/rand"
	"testing"

	"gaussiancube/internal/fault"
	"gaussiancube/internal/gc"
)

// TestRouteCacheTreeIsolation pins the multipath cache contract: a path
// stored under one tree is invisible to every other tree (and to the
// single-tree view).
// Without the key's tree field a sibling-tree failover could be served
// a path planned on a different tree under the same (src, dst, epoch).
func TestRouteCacheTreeIsolation(t *testing.T) {
	c := NewRouteCache(64)
	p0 := []gc.NodeID{1, 3, 2}
	p1 := []gc.NodeID{1, 5, 4, 2}

	c.PutTree(1, 2, 0, p0)
	if _, ok := c.GetTree(1, 2, 1); ok {
		t.Fatal("tree 1 sees a path cached by tree 0")
	}
	if _, ok := c.Get(1, 2); ok {
		t.Fatal("single-tree view sees a path cached by tree 0")
	}
	got, ok := c.GetTree(1, 2, 0)
	if !ok || len(got) != len(p0) {
		t.Fatalf("tree 0 lost its own entry: %v %v", got, ok)
	}

	c.PutTree(1, 2, 1, p1)
	got0, _ := c.GetTree(1, 2, 0)
	got1, _ := c.GetTree(1, 2, 1)
	if len(got0) != len(p0) || len(got1) != len(p1) {
		t.Fatalf("per-tree entries collided: tree0=%v tree1=%v", got0, got1)
	}
}

// TestRunMultipathStatic runs the static engine with four trees over a
// faulted cube and checks the striping accounting: every flow lands on
// a tree, the per-tree counts cover all lookups, and the load spreads
// across more than one tree.
func TestRunMultipathStatic(t *testing.T) {
	cube := gc.New(8, 2)
	fs := fault.NewSet(cube)
	fs.InjectRandomNodes(rand.New(rand.NewSource(5)), 6, 0, 1)
	stats, err := Run(Config{
		N: 8, Alpha: 2,
		Arrival: 0.3, GenCycles: 30,
		Seed:        9,
		Faults:      fs,
		Repair:      true,
		Trees:       4,
		CacheRoutes: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.TreeRoutes) != 4 {
		t.Fatalf("TreeRoutes has %d entries, want 4", len(stats.TreeRoutes))
	}
	sum, used := 0, 0
	for _, n := range stats.TreeRoutes {
		sum += n
		if n > 0 {
			used++
		}
	}
	if sum != stats.Generated {
		t.Fatalf("tree counts sum to %d, %d packets offered", sum, stats.Generated)
	}
	if used < 2 {
		t.Fatalf("striping collapsed onto %d tree(s): %v", used, stats.TreeRoutes)
	}
	if stats.Delivered == 0 {
		t.Fatal("no packets delivered")
	}
	if stats.Delivered+stats.Undeliverable != stats.Generated {
		t.Fatalf("conservation: %d generated, %d delivered, %d undeliverable",
			stats.Generated, stats.Delivered, stats.Undeliverable)
	}
}

// TestRunMultipathBadK rejects a tree count the cube cannot stripe.
func TestRunMultipathBadK(t *testing.T) {
	_, err := Run(Config{N: 4, Alpha: 2, Arrival: 0.1, GenCycles: 4, Trees: 8})
	if err == nil {
		t.Fatal("Trees=8 on GC(4,2) (4 frames) must be rejected")
	}
}

// TestRunMultipathTimeline exercises both timeline modes under
// striping: the plan-at-source engine across a fault transition
// (reroutes re-hash from the packet's stranded node) and the adaptive
// stepper with per-flow trees.
func TestRunMultipathTimeline(t *testing.T) {
	cube := gc.New(7, 1)
	fs := fault.NewSet(cube)
	fs.InjectRandomNodes(rand.New(rand.NewSource(3)), 4, 0, 1)

	stats, err := Run(Config{
		N: 7, Alpha: 1,
		Arrival: 0.2, GenCycles: 20,
		Seed:         2,
		Faults:       fs,
		FaultAtCycle: 5,
		Repair:       true,
		Trees:        2,
		CacheRoutes:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.TreeRoutes) != 2 || stats.TreeRoutes[0]+stats.TreeRoutes[1] == 0 {
		t.Fatalf("timeline striping accounting missing: %v", stats.TreeRoutes)
	}
	if stats.Delivered == 0 {
		t.Fatal("timeline multipath delivered nothing")
	}

	astats, err := Run(Config{
		N: 7, Alpha: 1,
		Arrival: 0.2, GenCycles: 20,
		Seed:     2,
		Faults:   fs,
		Adaptive: true,
		Repair:   true,
		Trees:    2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if astats.Delivered == 0 {
		t.Fatal("adaptive multipath delivered nothing")
	}
	if astats.Delivered+astats.Undeliverable+astats.Dropped != astats.Generated {
		t.Fatalf("adaptive conservation: %+v", astats)
	}
}
