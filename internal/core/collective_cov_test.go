package core

import (
	"math/rand"
	"testing"

	"gaussiancube/internal/fault"
	"gaussiancube/internal/gc"
)

// TestGatherScheduleConflictFreedom checks the gather schedule's
// structural invariants under fault churn: every reached non-root node
// sends exactly once, every message rides a tree edge, and no node
// sends before all of its children have (step-conflict freedom — a
// node never has to forward state it has not finished collecting).
func TestGatherScheduleConflictFreedom(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, na := range rerootCubes {
		c := gc.New(na[0], na[1])
		for trial := 0; trial < 10; trial++ {
			fs := fault.NewSet(c)
			fs.InjectRandomLinks(rng, rng.Intn(3))
			fs.InjectRandomNodes(rng, rng.Intn(c.Nodes()/4+1))
			root := gc.NodeID(rng.Intn(c.Nodes()))
			if fs.NodeFaulty(root) {
				continue
			}
			r := NewRouter(c, WithFaults(fs))
			bt, err := r.Broadcast(root)
			if err != nil {
				t.Fatal(err)
			}
			rounds := bt.GatherSchedule()
			if len(rounds) != bt.Steps {
				t.Fatalf("schedule has %d rounds, tree depth %d", len(rounds), bt.Steps)
			}
			sendRound := map[gc.NodeID]int{}
			for ri, msgs := range rounds {
				sentThisRound := map[gc.NodeID]bool{}
				for _, m := range msgs {
					child, parent := m[0], m[1]
					if sentThisRound[child] {
						t.Fatalf("round %d: node %d sends twice in one step", ri, child)
					}
					sentThisRound[child] = true
					if _, dup := sendRound[child]; dup {
						t.Fatalf("node %d sends in two rounds", child)
					}
					sendRound[child] = ri
					if bt.Parent[child] != int32(parent) {
						t.Fatalf("message %d->%d is not a tree edge", child, parent)
					}
				}
			}
			// Exactly the reached non-root nodes send.
			for v := 0; v < c.Nodes(); v++ {
				_, sends := sendRound[gc.NodeID(v)]
				reached := bt.Parent[v] != -1 && gc.NodeID(v) != root
				if sends != reached {
					t.Fatalf("node %d: sends=%v reached=%v", v, sends, reached)
				}
			}
			// Causality: a parent's own send strictly follows every
			// child's send (leaves-first, no forward-before-gather).
			for child, ri := range sendRound {
				p := gc.NodeID(bt.Parent[child])
				if p == root {
					continue
				}
				if pr, ok := sendRound[p]; !ok || pr <= ri {
					t.Fatalf("parent %d sends in round %d, child %d in round %d", p, sendRound[p], child, ri)
				}
			}
		}
	}
}

// TestMultidropPartitionExactness checks the walk/drop-order contract:
// the drop order is exactly the deduplicated request minus the source,
// the walk is a connected sequence of healthy links that touches every
// drop, and an unreachable destination fails the whole plan loudly
// instead of being silently skipped.
func TestMultidropPartitionExactness(t *testing.T) {
	c := gc.New(5, 2)
	fs := fault.NewSet(c)
	rng := rand.New(rand.NewSource(11))
	fs.InjectRandomNodes(rng, 3)
	r := NewRouter(c, WithFaults(fs))

	src := gc.NodeID(0)
	if fs.NodeFaulty(src) {
		t.Skip("seed killed the source")
	}
	oracle := oracleReachable(c, fs, src)
	var dests []gc.NodeID
	for v := 1; v < c.Nodes(); v++ {
		if oracle[gc.NodeID(v)] && rng.Intn(2) == 0 {
			dests = append(dests, gc.NodeID(v))
		}
	}
	dests = append(dests, dests[0], src) // duplicate + self must both be dropped

	walk, order, err := r.Multidrop(src, dests)
	if err != nil {
		t.Fatal(err)
	}
	// Order partition: exactly the dedup of dests minus src.
	want := map[gc.NodeID]bool{}
	for _, d := range dests {
		if d != src {
			want[d] = true
		}
	}
	got := map[gc.NodeID]bool{}
	for _, d := range order {
		if got[d] {
			t.Fatalf("drop order repeats %d", d)
		}
		got[d] = true
		if !want[d] {
			t.Fatalf("drop order contains unrequested %d", d)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("drop order covers %d of %d requested destinations", len(got), len(want))
	}
	// Walk validity: starts at src, healthy links only, visits every
	// drop, ends at the final drop.
	if walk[0] != src {
		t.Fatalf("walk starts at %d", walk[0])
	}
	visited := map[gc.NodeID]bool{src: true}
	for i := 1; i < len(walk); i++ {
		u, v := walk[i-1], walk[i]
		x := uint64(u ^ v)
		if x == 0 || x&(x-1) != 0 {
			t.Fatalf("walk step %d->%d is not a hop", u, v)
		}
		d := uint(0)
		for 1<<d != gc.NodeID(x) {
			d++
		}
		if !c.HasLinkDim(u, d) || fs.LinkFaulty(u, d) {
			t.Fatalf("walk step %d->%d unusable", u, v)
		}
		visited[v] = true
	}
	for d := range want {
		if !visited[d] {
			t.Fatalf("walk never visits drop %d", d)
		}
	}
	if walk[len(walk)-1] != order[len(order)-1] {
		t.Fatal("walk does not end at the last drop")
	}

	// An unreachable destination must fail the plan, not vanish.
	var unreachable gc.NodeID
	found := false
	for v := 1; v < c.Nodes(); v++ {
		if !oracle[gc.NodeID(v)] {
			unreachable, found = gc.NodeID(v), true
			break
		}
	}
	if !found {
		t.Fatal("seed produced no unreachable node")
	}
	if _, _, err := r.Multidrop(src, []gc.NodeID{unreachable}); err == nil {
		t.Fatalf("multidrop silently skipped unreachable %d", unreachable)
	}
}

// TestBroadcastPlanningAllocs is the alloc-regression pin for the
// collective planning fast path: Broadcast must stay O(1) allocations
// (the tree's own arrays) and Children must be allocation-free now
// that child adjacency is precomputed in CSR form at build.
func TestBroadcastPlanningAllocs(t *testing.T) {
	c := gc.New(10, 3)
	r := NewRouter(c)
	var bt *BroadcastTree
	allocs := testing.AllocsPerRun(20, func() {
		var err error
		bt, err = r.Broadcast(0)
		if err != nil {
			t.Fatal(err)
		}
	})
	// Parent, Depth, queue, childStart, childList, and the tree struct
	// itself: six fixed allocations regardless of cube size.
	if allocs > 8 {
		t.Fatalf("Broadcast allocates %v times per run, pinned at 8", allocs)
	}
	var sink int
	allocs = testing.AllocsPerRun(100, func() {
		for v := 0; v < c.Nodes(); v++ {
			sink += len(bt.Children(gc.NodeID(v)))
		}
	})
	if allocs != 0 {
		t.Fatalf("Children allocates %v times per sweep, want 0", allocs)
	}
	_ = sink
}
