package serve

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gaussiancube/internal/core"
	"gaussiancube/internal/gc"
)

// TestSubmitTreePinned: on a multipath server an explicit pin is
// honored verbatim (TreeID echoes the pin), auto requests resolve to
// the per-flow stripe, and every verdict still delivers on a valid
// path.
func TestSubmitTreePinned(t *testing.T) {
	cube := gc.New(8, 2)
	s := mustServer(t, Config{Cube: cube, Shards: 2, Trees: 4, CacheCapacity: 1024})
	ts := s.Trees()
	if ts == nil || ts.K() != 4 {
		t.Fatalf("Trees() = %v, want 4-tree set", ts)
	}

	src, dst := gc.NodeID(3), gc.NodeID(200)
	for tree := 0; tree < ts.K(); tree++ {
		r, err := s.SubmitTree(context.Background(), src, dst, tree)
		if err != nil || r.Err != nil {
			t.Fatalf("tree %d: %+v, %v", tree, r, err)
		}
		if r.Report.Outcome != core.OutcomeDelivered {
			t.Fatalf("tree %d: outcome %v", tree, r.Report.Outcome)
		}
		if r.Report.TreeID != tree {
			t.Fatalf("tree %d pin answered with TreeID %d", tree, r.Report.TreeID)
		}
	}

	auto, err := s.SubmitTree(context.Background(), src, dst, core.TreeAuto)
	if err != nil || auto.Err != nil {
		t.Fatalf("auto: %+v, %v", auto, err)
	}
	if want := ts.TreeForFlow(src, dst); auto.Report.TreeID != want {
		t.Fatalf("auto TreeID %d, want flow stripe %d", auto.Report.TreeID, want)
	}
}

// TestSubmitTreeValidation: pins the server cannot honor are
// submission errors — out-of-range on a multipath server, any pin at
// all on a single-tree server — and bad Trees configs fail New.
func TestSubmitTreeValidation(t *testing.T) {
	cube := gc.New(8, 2)
	multi := mustServer(t, Config{Cube: cube, Trees: 4})
	if _, err := multi.SubmitTree(context.Background(), 0, 5, 4); err == nil {
		t.Fatal("pin ≥ K must be rejected at submission")
	}
	if _, ok := multi.FastRouteTree(0, 5, 4); ok {
		t.Fatal("FastRouteTree must refuse an out-of-range pin")
	}

	single := mustServer(t, Config{Cube: cube})
	if _, err := single.SubmitTree(context.Background(), 0, 5, 2); err == nil {
		t.Fatal("pin on a single-tree server must be rejected")
	}
	if r, err := single.SubmitTree(context.Background(), 0, 5, core.TreeAuto); err != nil || r.Report.TreeID != -1 {
		t.Fatalf("TreeAuto on single-tree server: %+v, %v", r, err)
	}

	// Trees must be a power of two no larger than the frame count.
	for _, bad := range []int{3, cube.Nodes()} {
		if _, err := New(Config{Cube: cube, Trees: bad}); err == nil {
			t.Fatalf("Trees=%d must fail New", bad)
		}
	}
}

// TestTreeCacheIsolation: the route cache is keyed by resolved tree, so
// a sibling-tree pin never serves a path cached for a different tree,
// while an auto request and a pin that resolve to the same tree share
// one entry.
func TestTreeCacheIsolation(t *testing.T) {
	cube := gc.New(8, 2)
	s := mustServer(t, Config{Cube: cube, Shards: 1, Trees: 4, CacheCapacity: 1024})
	ts := s.Trees()
	src, dst := gc.NodeID(3), gc.NodeID(200)
	flow := ts.TreeForFlow(src, dst)
	sibling := (flow + 1) % ts.K()

	cold, err := s.SubmitTree(context.Background(), src, dst, flow)
	if err != nil || cold.CacheHit {
		t.Fatalf("cold pin: %+v, %v", cold, err)
	}
	// Auto resolves to the same tree — must hit the pin's entry.
	warm, err := s.SubmitTree(context.Background(), src, dst, core.TreeAuto)
	if err != nil || !warm.CacheHit || warm.Report.TreeID != flow {
		t.Fatalf("auto after same-tree pin must hit: %+v, %v", warm, err)
	}
	// A sibling pin must miss: its path is planned on a different tree.
	other, err := s.SubmitTree(context.Background(), src, dst, sibling)
	if err != nil || other.CacheHit {
		t.Fatalf("sibling pin must not reuse the cached path: %+v, %v", other, err)
	}
	if other.Report.TreeID != sibling {
		t.Fatalf("sibling pin answered with TreeID %d, want %d", other.Report.TreeID, sibling)
	}
	// Both entries now live side by side under their own tags.
	for _, tree := range []int{flow, sibling} {
		if a, ok := s.FastRouteTree(src, dst, tree); !ok || a.Tree != tree {
			t.Fatalf("FastRouteTree(%d) = %+v, %v", tree, a, ok)
		}
	}
}

// TestWireTreeEndToEnd drives tree pinning over the binary protocol:
// the flag-gated request byte reaches the shard, the reply's trailing
// tree byte reaches the client, and v1-shaped requests (no flag) still
// resolve to the flow stripe.
func TestWireTreeEndToEnd(t *testing.T) {
	cube := gc.New(8, 2)
	s := mustServer(t, Config{Cube: cube, Shards: 2, Trees: 4, CacheCapacity: 1024})
	addr := startWire(t, s)
	c, err := DialWire(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ts := s.Trees()
	src, dst := gc.NodeID(3), gc.NodeID(200)
	for tree := 0; tree < ts.K(); tree++ {
		resp, err := c.RouteTree(src, dst, tree)
		if err != nil {
			t.Fatalf("tree %d: %v", tree, err)
		}
		if resp.Outcome != "delivered" || resp.Tree == nil || *resp.Tree != tree {
			t.Fatalf("tree %d: %+v", tree, resp)
		}
	}
	// Repeat a pin: must be a fast-path cache hit on the same tree.
	hit, err := c.RouteTree(src, dst, 2)
	if err != nil || !hit.CacheHit || hit.Tree == nil || *hit.Tree != 2 {
		t.Fatalf("pinned repeat: %+v, %v", hit, err)
	}
	// Auto (no tree flag on the wire) resolves to the flow stripe.
	auto, err := c.Route(src, dst)
	if err != nil || auto.Tree == nil || *auto.Tree != ts.TreeForFlow(src, dst) {
		t.Fatalf("auto route: %+v, %v", auto, err)
	}
	// An out-of-range pin comes back as an error frame, not a verdict.
	if _, err := c.RouteTree(src, dst, 9); err == nil {
		t.Fatal("out-of-range pin must surface as a wire error")
	}

	m, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if m.Trees != ts.K() || len(m.TreeRoutes) != ts.K() {
		t.Fatalf("metrics trees=%d routes=%v, want K=%d", m.Trees, m.TreeRoutes, ts.K())
	}
	var perTree, served int64
	for _, v := range m.TreeRoutes {
		perTree += v
	}
	served = m.Served
	if perTree != served {
		t.Fatalf("per-tree tallies %d != served %d", perTree, served)
	}
}

// TestMultipathSoakFaultChurn stripes concurrent flows across trees —
// mixed auto and explicit pins, planner and adaptive mode — while a
// churner toggles faults through copy-on-write epochs. Run under
// -race this pins the striping path's synchronization; the conservation
// law (accepted == served, per-tree tallies sum to served) must hold
// through every epoch swap.
func TestMultipathSoakFaultChurn(t *testing.T) {
	cube := gc.New(8, 2)
	for _, adaptive := range []bool{false, true} {
		s := mustServer(t, Config{
			Cube:            cube,
			Shards:          4,
			Trees:           4,
			Adaptive:        adaptive,
			QueueDepth:      64,
			CacheCapacity:   2048,
			DefaultDeadline: 2 * time.Second,
		})
		ts := s.Trees()

		const (
			clients = 8
			perC    = 200
			epochs  = 32
		)
		var (
			wg       sync.WaitGroup
			answered atomic.Int64
			badTree  atomic.Int64
		)
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed))
				for i := 0; i < perC; i++ {
					src := gc.NodeID(rng.Intn(cube.Nodes()))
					dst := gc.NodeID(rng.Intn(cube.Nodes()))
					tree := core.TreeAuto
					if i%3 == 0 {
						tree = rng.Intn(ts.K())
					}
					r, err := s.SubmitTree(context.Background(), src, dst, tree)
					switch {
					case errors.Is(err, ErrBackpressure) || errors.Is(err, ErrDraining):
					case err != nil:
						t.Errorf("submit: %v", err)
						return
					default:
						answered.Add(1)
						if r.Err != nil {
							continue
						}
						got := r.Report.TreeID
						if got < 0 || got >= ts.K() {
							badTree.Add(1)
						} else if tree >= 0 && got != tree && r.Report.TreeSwitches == 0 {
							// A pin may legally migrate only via adaptive
							// failover, which the report declares.
							badTree.Add(1)
						}
					}
				}
			}(int64(2000 + c))
		}

		churn := make(chan struct{})
		go func() {
			defer close(churn)
			rng := rand.New(rand.NewSource(99))
			for e := 0; e < epochs; e++ {
				node := gc.NodeID(rng.Intn(cube.Nodes()))
				op := OpInject
				if s.FaultSet().NodeFaulty(node) {
					op = OpRepair
				}
				if _, _, err := s.ApplyFaults([]FaultOp{{Op: op, Kind: KindNode, Node: node}}); err != nil {
					t.Errorf("churn epoch %d: %v", e, err)
					return
				}
				time.Sleep(200 * time.Microsecond)
			}
		}()

		wg.Wait()
		<-churn
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Fatalf("adaptive=%v drain: %v", adaptive, err)
		}

		if n := badTree.Load(); n != 0 {
			t.Fatalf("adaptive=%v: %d verdicts on a tree the request never asked for", adaptive, n)
		}
		m := s.Metrics()
		if got := answered.Load(); got != m.Accepted || m.Served != m.Accepted {
			t.Fatalf("adaptive=%v conservation: answered=%d accepted=%d served=%d",
				adaptive, got, m.Accepted, m.Served)
		}
		var perTree int64
		for _, v := range m.TreeRoutes {
			perTree += v
		}
		if perTree > m.Served {
			t.Fatalf("adaptive=%v: per-tree tallies %d exceed served %d", adaptive, perTree, m.Served)
		}
		if perTree == 0 {
			t.Fatalf("adaptive=%v: no per-tree tallies recorded", adaptive)
		}
	}
}
