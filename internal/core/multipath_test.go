package core

import (
	"errors"
	"math/rand"
	"testing"

	"gaussiancube/internal/bitutil"
	"gaussiancube/internal/fault"
	"gaussiancube/internal/gc"
	"gaussiancube/internal/graph"
	"gaussiancube/internal/mtree"
	"gaussiancube/internal/repair"
	"gaussiancube/internal/trace"
)

// FuzzMultipathAgainstOracle differentially checks multipath routing
// against a plain BFS oracle over the same healthy subgraph, for
// arbitrary cube parameters, tree counts, tree selections, endpoints
// and fault populations. Because steering is opportunistic — every
// steering failure falls through to the single-tree ladder — the
// multipath router must deliver exactly when the oracle proves a route
// exists, with a valid healthy path whose trace still replays.
func FuzzMultipathAgainstOracle(f *testing.F) {
	f.Add(uint8(8), uint8(2), uint16(5), uint16(201), int64(42), uint8(3), uint8(2), uint8(1), uint8(0))
	f.Add(uint8(6), uint8(0), uint16(0), uint16(63), int64(7), uint8(0), uint8(0), uint8(2), uint8(1))
	f.Add(uint8(7), uint8(1), uint16(13), uint16(90), int64(3), uint8(6), uint8(4), uint8(3), uint8(255))
	f.Add(uint8(9), uint8(3), uint16(77), uint16(400), int64(1234), uint8(20), uint8(12), uint8(2), uint8(2))
	f.Fuzz(func(t *testing.T, nRaw, aRaw uint8, sRaw, dRaw uint16, seed int64, nodeFaults, linkFaults, kRaw, pinRaw uint8) {
		n := uint(3 + nRaw%8)
		alpha := uint(aRaw) % (n + 1)
		cube := gc.New(n, alpha)
		mod := uint16(cube.Nodes())
		s := gc.NodeID(sRaw % mod)
		d := gc.NodeID(dRaw % mod)

		maxLogK := n - alpha
		k := 1 << (uint(kRaw) % (maxLogK + 1))
		ts, err := mtree.New(cube, k)
		if err != nil {
			t.Fatalf("mtree.New(GC(%d,%d), %d): %v", n, alpha, k, err)
		}

		fs := fault.NewSet(cube)
		rng := rand.New(rand.NewSource(seed))
		fs.InjectRandomNodes(rng, int(nodeFaults)%(cube.Nodes()/2), s, d)
		for i := 0; i < int(linkFaults)%16; i++ {
			v := gc.NodeID(rng.Intn(cube.Nodes()))
			if dims := cube.LinkDims(v); len(dims) > 0 {
				fs.AddLink(v, dims[rng.Intn(len(dims))])
			}
		}
		health := repair.NewHealth(cube)
		health.Rebuild(fs)

		oracle := graph.ShortestPath(healthyView{cube: cube, faults: fs}, s, d)

		ring := trace.NewRing(8192)
		tree := TreeAuto
		if pinRaw != 255 {
			tree = int(pinRaw) % k
		}
		r := NewRouter(cube, WithFaults(fs), WithTracer(ring), WithRepair(health), WithTree(ts, tree))
		res, err := r.Route(s, d)

		if oracle == nil {
			if err == nil {
				t.Fatalf("oracle proves %d -> %d unreachable but multipath router returned a %d-hop path",
					s, d, res.Hops())
			}
			if !errors.Is(err, ErrUnreachable) {
				t.Fatalf("unreachable pair must fail with ErrUnreachable, got: %v", err)
			}
			return
		}
		if err != nil {
			t.Fatalf("oracle found a %d-hop path for %d -> %d (k=%d tree=%d) but router failed: %v",
				len(oracle)-1, s, d, k, tree, err)
		}
		if verr := ValidatePath(cube, fs, res.Path, s, d); verr != nil {
			t.Fatal(verr)
		}
		if res.Tree < 0 || res.Tree >= k {
			t.Fatalf("Result.Tree = %d out of [0, %d)", res.Tree, k)
		}
		if tree != TreeAuto && res.Tree != tree {
			t.Fatalf("pinned tree %d but Result.Tree = %d", tree, res.Tree)
		}

		walk, rerr := trace.Replay(uint32(s), ring.Events())
		if rerr != nil {
			t.Fatalf("trace does not replay: %v", rerr)
		}
		if len(walk) != len(res.Path) {
			t.Fatalf("trace replays to %d nodes, path has %d", len(walk), len(res.Path))
		}
		for i, v := range walk {
			if gc.NodeID(v) != res.Path[i] {
				t.Fatalf("trace diverges from path at hop %d: %d vs %d", i, v, res.Path[i])
			}
		}
	})
}

// TestMultipathK1Identical pins the single-tree identity: a k=1 tree
// set owns every frame, so steering never fires and the multipath
// router returns byte-identical paths to the plain router, faults or
// not.
func TestMultipathK1Identical(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, tc := range []struct{ n, alpha uint }{{5, 1}, {6, 2}, {7, 3}} {
		cube := gc.New(tc.n, tc.alpha)
		fs := fault.NewSet(cube)
		fs.InjectRandomNodes(rng, cube.Nodes()/16, 0, 1)
		ts, err := mtree.New(cube, 1)
		if err != nil {
			t.Fatal(err)
		}
		plain := NewRouter(cube, WithFaults(fs))
		multi := NewRouter(cube, WithFaults(fs), WithTrees(ts))
		for trial := 0; trial < 200; trial++ {
			s := gc.NodeID(rng.Intn(cube.Nodes()))
			d := gc.NodeID(rng.Intn(cube.Nodes()))
			if fs.NodeFaulty(s) || fs.NodeFaulty(d) {
				continue
			}
			pr, perr := plain.Route(s, d)
			mr, merr := multi.Route(s, d)
			if (perr == nil) != (merr == nil) {
				t.Fatalf("GC(%d,%d) %d->%d: plain err %v, k=1 multipath err %v",
					tc.n, cube.M(), s, d, perr, merr)
			}
			if perr != nil {
				continue
			}
			if len(pr.Path) != len(mr.Path) {
				t.Fatalf("GC(%d,%d) %d->%d: k=1 multipath path differs", tc.n, cube.M(), s, d)
			}
			for i := range pr.Path {
				if pr.Path[i] != mr.Path[i] {
					t.Fatalf("GC(%d,%d) %d->%d: k=1 multipath path diverges at hop %d",
						tc.n, cube.M(), s, d, i)
				}
			}
			if mr.Tree != 0 {
				t.Fatalf("k=1 route reports tree %d", mr.Tree)
			}
		}
	}
}

// greedySteerTarget mirrors steerCrossing's fault-free walk: from v,
// flip exactly the differing stripe bits v's class has a cube link
// for, toward home. Returns v unchanged when no bit is flippable.
func greedySteerTarget(cube *gc.Cube, v, home gc.NodeID) gc.NodeID {
	for x := uint64(v ^ home); x != 0; {
		fd := uint(bitutil.LowestBit(x))
		x &^= 1 << fd
		if cube.HasLinkDim(v, fd) {
			v ^= 1 << fd
		}
	}
	return v
}

// TestMultipathSteersIntoStripe pins the steering move itself: on a
// fault-free cube, a router pinned to tree t routes a pair sitting in
// a frame t does not own by crossing the pair's class edge at the
// frame the greedy steer walk reaches — the stripe exactly when every
// differing stripe bit is class-flippable, the nearest reachable frame
// otherwise. When no stripe bit is flippable, steering must decline
// and the route must be the plain single-tree path, byte for byte.
func TestMultipathSteersIntoStripe(t *testing.T) {
	cube := gc.New(6, 2)
	ts, err := mtree.New(cube, 4)
	if err != nil {
		t.Fatal(err)
	}
	tr := cube.Tree()
	base := NewRouter(cube)
	inStripe, partial, declined := 0, 0, 0
	for tree := 0; tree < ts.K(); tree++ {
		r := NewRouter(cube, WithTree(ts, tree))
		for v := 0; v < cube.Nodes(); v++ {
			s := gc.NodeID(v)
			if ts.OwnsFrame(tree, ts.FrameOf(s)) {
				continue // steering is a no-op in owned frames
			}
			// A destination one class edge away in the same frame.
			from := cube.EndingClass(s)
			for _, to := range tr.Neighbors(from) {
				dim := tr.EdgeDim(from, to)
				d := s ^ (1 << dim)
				res, err := r.Route(s, d)
				if err != nil {
					t.Fatalf("tree %d %d->%d: %v", tree, s, d, err)
				}
				if res.Tree != tree {
					t.Fatalf("pinned tree %d, Result.Tree %d", tree, res.Tree)
				}
				w := greedySteerTarget(cube, s, ts.HomeNode(tree, s))
				if w == s {
					declined++
					bres, err := base.Route(s, d)
					if err != nil {
						t.Fatalf("baseline %d->%d: %v", s, d, err)
					}
					if len(res.Path) != len(bres.Path) {
						t.Fatalf("tree %d %d->%d: declined steer should route single-tree; got %v want %v",
							tree, s, d, res.Path, bres.Path)
					}
					for i := range res.Path {
						if res.Path[i] != bres.Path[i] {
							t.Fatalf("tree %d %d->%d: declined steer diverges at hop %d", tree, s, d, i)
						}
					}
					continue
				}
				if ts.OwnsFrame(tree, ts.FrameOf(w)) {
					inStripe++
				} else {
					partial++
				}
				crossedAt := gc.NodeID(0)
				found := false
				for i := 1; i < len(res.Path); i++ {
					hdim := uint(bitutil.LowestBit(uint64(res.Path[i-1] ^ res.Path[i])))
					if hdim == dim && !found {
						crossedAt = res.Path[i-1]
						found = true
					}
				}
				if !found {
					t.Fatalf("tree %d %d->%d: class edge %d--%d (dim %d) never crossed; path %v",
						tree, s, d, from, to, dim, res.Path)
				}
				if crossedAt != w {
					t.Fatalf("tree %d %d->%d: first crossing of dim %d at %d, steer walk reaches %d; path %v",
						tree, s, d, dim, crossedAt, w, res.Path)
				}
			}
		}
	}
	if inStripe == 0 {
		t.Fatal("full steer never reached the stripe — test exercises nothing")
	}
	if partial == 0 {
		t.Fatal("partial steer never happened — greedy arm exercises nothing")
	}
	if declined == 0 {
		t.Fatal("steer never declined — decline arm exercises nothing")
	}
}

// TestAdaptiveTreeFailover pins the failover rung: a flight whose own
// tree's crossing is faulted discovers the fault, rotates to a sibling
// tree, and delivers degraded with the switch recorded in the report.
func TestAdaptiveTreeFailover(t *testing.T) {
	cube := gc.New(5, 1) // classes {0,1}, tree edge in dim 0
	ts, err := mtree.New(cube, 4)
	if err != nil {
		t.Fatal(err)
	}
	var s gc.NodeID // class 0, frame 0 — owned by tree 0
	d := s ^ 1      // across the class edge
	fs := fault.NewSet(cube)
	fs.AddLink(s, 0) // the crossing tree 0 would take

	r := NewAdaptiveRouter(cube, fs, WithTree(ts, 0))
	rep, err := r.RouteContext(nil, s, d)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Outcome != OutcomeDeliveredDegraded {
		t.Fatalf("outcome %v, want delivered-degraded (reason %q)", rep.Outcome, rep.Reason)
	}
	if rep.TreeSwitches < 1 {
		t.Fatalf("flight never failed over: %+v", rep)
	}
	if rep.TreeID == 0 {
		t.Fatalf("flight still reports tree 0 after failover")
	}
	if verr := ValidatePath(cube, fs, rep.Path, s, d); verr != nil {
		t.Fatal(verr)
	}
}
