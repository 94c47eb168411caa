package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"gaussiancube/internal/core"
	"gaussiancube/internal/fault"
	"gaussiancube/internal/gc"
	"gaussiancube/internal/serve"
	"gaussiancube/internal/wire"
)

// ---------------------------------------------------------------------
// Test harness: N in-process instances behind a partitionable network.

// gate is the partition switchboard: it fronts every inter-instance
// dial, refuses dials across cut pairs, and hangs up live connections
// the moment a pair is cut — the way a real partition severs
// established TCP flows, not just new ones.
type gate struct {
	mu      sync.Mutex
	addrIdx map[string]int
	blocked map[[2]int]bool
	conns   map[[2]int][]net.Conn
}

func newGate(addrs []string) *gate {
	g := &gate{
		addrIdx: make(map[string]int, len(addrs)),
		blocked: make(map[[2]int]bool),
		conns:   make(map[[2]int][]net.Conn),
	}
	for i, a := range addrs {
		g.addrIdx[a] = i
	}
	return g
}

func (g *gate) dialFrom(from int) func(addr string) (net.Conn, error) {
	return func(addr string) (net.Conn, error) {
		g.mu.Lock()
		to, known := g.addrIdx[addr]
		cut := known && g.blocked[[2]int{from, to}]
		g.mu.Unlock()
		if !known {
			return nil, fmt.Errorf("gate: unknown address %s", addr)
		}
		if cut {
			return nil, errors.New("gate: partitioned")
		}
		c, err := net.DialTimeout("tcp", addr, time.Second)
		if err != nil {
			return nil, err
		}
		g.mu.Lock()
		// Losing the race with a concurrent cut means this conn must die
		// now, not live on across the partition.
		if g.blocked[[2]int{from, to}] {
			g.mu.Unlock()
			c.Close()
			return nil, errors.New("gate: partitioned")
		}
		key := [2]int{from, to}
		g.conns[key] = append(g.conns[key], c)
		g.mu.Unlock()
		return c, nil
	}
}

// cut partitions a and b in both directions, severing live flows.
func (g *gate) cut(a, b int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, key := range [][2]int{{a, b}, {b, a}} {
		g.blocked[key] = true
		for _, c := range g.conns[key] {
			c.Close()
		}
		g.conns[key] = nil
	}
}

// heal reconnects a and b.
func (g *gate) heal(a, b int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	delete(g.blocked, [2]int{a, b})
	delete(g.blocked, [2]int{b, a})
}

// instance is one cluster member under test.
type instance struct {
	srv  *serve.Server
	node *Node
	addr string
}

// startCluster boots len(ranges) instances over cube with the given
// class ranges, wired through a fresh gate. Journals land in temp
// dirs so epoch sync can serve exact suffixes.
func startCluster(t testing.TB, cube *gc.Cube, ranges [][2]int, gossip time.Duration) ([]*instance, *gate) {
	t.Helper()
	n := len(ranges)
	listeners := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := range listeners {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[i] = ln
		addrs[i] = ln.Addr().String()
	}
	members := make([]Member, n)
	for i, r := range ranges {
		members[i] = Member{Addr: addrs[i], Lo: r[0], Hi: r[1]}
	}
	topo, err := New(cube, members)
	if err != nil {
		t.Fatal(err)
	}
	g := newGate(addrs)
	insts := make([]*instance, n)
	for i := range insts {
		cfg := serve.Config{
			Cube:   cube,
			Shards: 2,
			Journal: &serve.JournalConfig{
				Dir:  t.TempDir(),
				Sync: time.Millisecond,
			},
		}
		srv, err := serve.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ws := serve.NewWireServer(srv, listeners[i])
		go func() { _ = ws.Serve() }()
		node, err := Start(Config{
			Server:         srv,
			Topology:       topo,
			Self:           addrs[i],
			GossipInterval: gossip,
			StaleAfter:     3,
			Dial:           g.dialFrom(i),
		})
		if err != nil {
			t.Fatal(err)
		}
		insts[i] = &instance{srv: srv, node: node, addr: addrs[i]}
		t.Cleanup(func() {
			node.Close()
			_ = ws.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			_ = srv.Shutdown(ctx)
		})
	}
	for _, in := range insts {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		if err := in.srv.WaitJournal(ctx); err != nil {
			cancel()
			t.Fatal(err)
		}
		cancel()
	}
	return insts, g
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t testing.TB, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out after %v waiting for %s", d, what)
}

// converged reports whether every instance sits on one identical
// frontier at this instant. The reads are not atomic across
// instances, so an instance can move right after being read —
// stableConverged is the torn-read-proof version.
func converged(insts []*instance) bool {
	e0, f0 := insts[0].srv.Frontier()
	for _, in := range insts[1:] {
		if e, f := in.srv.Frontier(); e != e0 || f != f0 {
			return false
		}
	}
	return true
}

// sortedFaults enumerates a set's raw faults in canonical order
// (RawFaults iterates maps, so its order is call-dependent).
func sortedFaults(s *fault.Set) []fault.Fault {
	out := s.RawFaults()
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		if a.Node != b.Node {
			return a.Node < b.Node
		}
		return a.Dim < b.Dim
	})
	return out
}

// identicalFaults reports bit-identical fault sets everywhere.
func identicalFaults(insts []*instance) bool {
	want := sortedFaults(insts[0].srv.FaultSet())
	for _, in := range insts[1:] {
		got := sortedFaults(in.srv.FaultSet())
		if len(got) != len(want) {
			return false
		}
		for j := range want {
			if got[j] != want[j] {
				return false
			}
		}
	}
	return true
}

// stableConverged requires one identical frontier across two reads a
// settle window apart, plus identical fault content — gossip can no
// longer be mid-adopt when this holds.
func stableConverged(insts []*instance, settle time.Duration) bool {
	e0, f0 := insts[0].srv.Frontier()
	if !converged(insts) {
		return false
	}
	time.Sleep(settle)
	for _, in := range insts {
		if e, f := in.srv.Frontier(); e != e0 || f != f0 {
			return false
		}
	}
	return identicalFaults(insts)
}

// assertIdenticalFaults requires bit-identical fault sets everywhere.
func assertIdenticalFaults(t testing.TB, insts []*instance) {
	t.Helper()
	want := sortedFaults(insts[0].srv.FaultSet())
	for i, in := range insts[1:] {
		got := sortedFaults(in.srv.FaultSet())
		if len(got) != len(want) {
			t.Fatalf("instance %d has %d faults, instance 0 has %d", i+1, len(got), len(want))
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("instance %d fault %d = %+v, instance 0 has %+v", i+1, j, got[j], want[j])
			}
		}
	}
}

// ---------------------------------------------------------------------
// Tests.

// wireRoute sends req to the member at addr on a connection of its
// own and returns the RouteResult that answers it.
func wireRoute(t *testing.T, addr string, req wire.RouteReq) wire.RouteResult {
	t.Helper()
	c, err := net.DialTimeout("tcp", addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Write(wire.AppendRouteReq(nil, 1, req)); err != nil {
		t.Fatal(err)
	}
	var hdr [wire.HeaderSize]byte
	if _, err := io.ReadFull(c, hdr[:]); err != nil {
		t.Fatal(err)
	}
	h, err := wire.ParseHeader(hdr[:])
	if err != nil {
		t.Fatal(err)
	}
	p := make([]byte, h.Len)
	if _, err := io.ReadFull(c, p); err != nil {
		t.Fatal(err)
	}
	if h.Type != wire.TypeRouteResult {
		t.Fatalf("reply type %d to %+v, want a RouteResult", h.Type, req)
	}
	var res wire.RouteResult
	if err := wire.DecodeRouteResult(p, &res); err != nil {
		t.Fatal(err)
	}
	return res
}

// TestClusterAnswersLocally: a route whose source class another member
// owns is answered by the member that receives it. On a converged
// cluster with seeded node faults, it is accepted and served there
// alone, undegraded, on the single-router path over the same fault
// set; repeated over the wire, with or without RouteFlagNoForward, it
// is the same path from that member's cache.
func TestClusterAnswersLocally(t *testing.T) {
	cube := gc.New(8, 2) // 256 nodes, 4 ending classes
	insts, _ := startCluster(t, cube, [][2]int{{0, 1}, {2, 2}, {3, 3}}, 20*time.Millisecond)

	// Sources of classes 2 and 3: owned by members 1 and 2.
	pairs := [][2]gc.NodeID{{3, 200}, {6, 201}, {102, 17}, {255, 64}}
	endpoint := make(map[gc.NodeID]bool)
	for _, p := range pairs {
		endpoint[p[0]], endpoint[p[1]] = true, true
	}
	var ops []serve.FaultOp
	faulty := make(map[gc.NodeID]bool)
	inject := func(v gc.NodeID) bool {
		if faulty[v] || endpoint[v] {
			return false
		}
		faulty[v] = true
		ops = append(ops, serve.FaultOp{Op: serve.OpInject, Kind: serve.KindNode, Node: v})
		return true
	}
	// One fault on an interior node of each pair's fault-free path, so
	// every answer must route around the fault set; the rest at random.
	free := make([][]gc.NodeID, len(pairs))
	for i, p := range pairs {
		res, err := core.NewRouter(cube).Route(p[0], p[1])
		if err != nil {
			t.Fatal(err)
		}
		free[i] = res.Path
		for _, v := range res.Path[1 : len(res.Path)-1] {
			if inject(v) {
				break
			}
		}
	}
	rng := rand.New(rand.NewSource(22))
	for len(ops) < 13 {
		inject(gc.NodeID(rng.Intn(cube.Nodes())))
	}
	if _, _, err := insts[1].srv.ApplyFaults(ops); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "gossip convergence", func() bool { return stableConverged(insts, 60*time.Millisecond) })
	waitFor(t, 5*time.Second, "no member stale", func() bool {
		for _, in := range insts {
			if stale, _ := in.srv.EpochStale(); stale {
				return false
			}
		}
		return true
	})
	oracle := core.NewRouter(cube, core.WithFaults(insts[0].srv.FaultSet()))

	ctx := context.Background()
	for pi, p := range pairs {
		src, dst := p[0], p[1]
		if insts[0].srv.OwnsLocally(src) {
			t.Fatalf("member 0 should not own node %d", src)
		}
		want, err := oracle.Route(src, dst)
		if err != nil || want.UsedFallback || fmt.Sprint(want.Path) == fmt.Sprint(free[pi]) {
			t.Fatalf("oracle route %d->%d: %v, fallback %v, path %v (fault-free %v)",
				src, dst, err, want != nil && want.UsedFallback, want, free[pi])
		}
		before := make([]*serve.MetricsSnapshot, len(insts))
		for i, in := range insts {
			before[i] = in.srv.Metrics()
		}
		resp, err := insts[0].srv.SubmitTree(ctx, src, dst, core.TreeAuto)
		if err != nil || resp.Err != nil || resp.Report == nil {
			t.Fatalf("route %d->%d at member 0: %v %+v", src, dst, err, resp)
		}
		if resp.Report.Outcome != core.OutcomeDelivered {
			t.Fatalf("route %d->%d: outcome %v (%s), want delivered", src, dst, resp.Report.Outcome, resp.Report.Reason)
		}
		if fmt.Sprint(resp.Report.Path) != fmt.Sprint(want.Path) {
			t.Fatalf("route %d->%d: path %v, single router %v", src, dst, resp.Report.Path, want.Path)
		}
		for i, in := range insts {
			m := in.srv.Metrics()
			grew := int64(0)
			if i == 0 {
				grew = 1
			}
			if m.Accepted-before[i].Accepted != grew || m.Served-before[i].Served != grew {
				t.Fatalf("route %d->%d at member 0: member %d accepted %d and served %d, want %d each",
					src, dst, i, m.Accepted-before[i].Accepted, m.Served-before[i].Served, grew)
			}
		}
		for _, flags := range []uint8{0, wire.RouteFlagNoForward} {
			res := wireRoute(t, insts[0].addr, wire.RouteReq{Src: src, Dst: dst, Flags: flags})
			if res.Flags&wire.FlagCacheHit == 0 || fmt.Sprint(res.Path) != fmt.Sprint(want.Path) {
				t.Fatalf("wire route %d->%d flags %#x: cache hit %v path %v, want a hit on %v",
					src, dst, flags, res.Flags&wire.FlagCacheHit != 0, res.Path, want.Path)
			}
		}
	}
}

// TestClusterStaleReasonStable: a member cut off from its peers keeps
// one stale mark, so answers a gossip round apart carry the same
// reason.
func TestClusterStaleReasonStable(t *testing.T) {
	cube := gc.New(6, 2)
	insts, g := startCluster(t, cube, [][2]int{{0, 1}, {2, 2}, {3, 3}}, 20*time.Millisecond)
	g.cut(2, 0)
	g.cut(2, 1)
	missed := func(p *peer) int {
		p.mu.Lock()
		defer p.mu.Unlock()
		return p.missed
	}
	// Two more missed rounds than seen so far guarantee a complete
	// pass, staleness recompute included, after this call.
	peers := insts[2].node.peers
	nextPass := func() {
		m := missed(peers[0])
		waitFor(t, 10*time.Second, "two more gossip rounds", func() bool { return missed(peers[0]) >= m+2 })
	}
	// The reason names the first peer past the threshold. Wait a pass
	// after both are, so the cut has settled which peer that is.
	waitFor(t, 10*time.Second, "both peers past StaleAfter", func() bool {
		return missed(peers[0]) > 3 && missed(peers[1]) > 3
	})
	nextPass()
	stale, first := insts[2].srv.EpochStale()
	if !stale {
		t.Fatal("the cut member is not stale")
	}
	nextPass()
	stale, second := insts[2].srv.EpochStale()
	if !stale || second != first {
		t.Fatalf("stale reason changed between gossip rounds: %q, then %q (stale %v)", first, second, stale)
	}
	if !strings.Contains(first, insts[0].addr) || !strings.Contains(first, "3 gossip rounds") {
		t.Fatalf("stale reason %q should name peer %s and the StaleAfter threshold 3", first, insts[0].addr)
	}
}

// TestClusterGossipConvergence: a mutation applied at one instance
// reaches every other through pull gossip, bit-identically.
func TestClusterGossipConvergence(t *testing.T) {
	cube := gc.New(6, 2)
	insts, _ := startCluster(t, cube, [][2]int{{0, 1}, {2, 2}, {3, 3}}, 20*time.Millisecond)

	if _, _, err := insts[1].srv.ApplyFaults([]serve.FaultOp{
		{Op: serve.OpInject, Kind: serve.KindNode, Node: 9},
		{Op: serve.OpInject, Kind: serve.KindLink, Node: 12, Dim: 4},
	}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "gossip convergence", func() bool { return stableConverged(insts, 60*time.Millisecond) })
	assertIdenticalFaults(t, insts)
	if e, _ := insts[0].srv.Frontier(); e != 1 {
		t.Fatalf("converged epoch = %d, want 1", e)
	}
	// And staleness has cleared everywhere once caught up.
	waitFor(t, 5*time.Second, "staleness cleared", func() bool {
		for _, in := range insts {
			if stale, _ := in.srv.EpochStale(); stale {
				return false
			}
		}
		return true
	})
}

// TestClusterPartitionSoak is the acceptance soak: three instances
// under route traffic and fault churn, a partition that isolates one
// of them, degraded-honest serving on both sides, then a heal that
// must end in bit-identical fault sets — with the accepted == served
// conservation law holding cluster-wide through all of it.
func TestClusterPartitionSoak(t *testing.T) {
	cube := gc.New(6, 2)
	insts, g := startCluster(t, cube, [][2]int{{0, 1}, {2, 2}, {3, 3}}, 20*time.Millisecond)
	ctx := context.Background()

	// Background route traffic into every instance, sources spread
	// across all classes, every member answering all of them. Degraded
	// verdicts and the source classes each instance answered are
	// tallied per instance.
	var trafficWG sync.WaitGroup
	stopTraffic := make(chan struct{})
	degraded := make([]int64, len(insts))
	classes := 1 << cube.Alpha()
	answered := make([][]bool, len(insts))
	for i := range answered {
		answered[i] = make([]bool, classes)
	}
	var degradedMu sync.Mutex
	for i, in := range insts {
		trafficWG.Add(1)
		go func(i int, in *instance) {
			defer trafficWG.Done()
			rng := uint32(2463534242 * (i + 1))
			next := func(mod int) int {
				rng ^= rng << 13
				rng ^= rng >> 17
				rng ^= rng << 5
				return int(rng) % mod
			}
			for n := 0; ; n++ {
				select {
				case <-stopTraffic:
					return
				default:
				}
				src := gc.NodeID(next(cube.Nodes()))
				dst := gc.NodeID(next(cube.Nodes()))
				resp, err := in.srv.SubmitTree(ctx, src, dst, core.TreeAuto)
				if err != nil {
					continue // backpressure/drain races are fine
				}
				degradedMu.Lock()
				if resp.Report != nil && resp.Report.Outcome == core.OutcomeDeliveredDegraded {
					degraded[i]++
				}
				if resp.Err == nil && resp.Report != nil {
					answered[i][cube.EndingClass(src)] = true
				}
				degradedMu.Unlock()
				time.Sleep(time.Millisecond)
			}
		}(i, in)
	}

	// Phase 1: churn while healthy; everything must converge.
	for i := 0; i < 4; i++ {
		target := insts[i%len(insts)]
		op := serve.OpInject
		if i%2 == 1 {
			op = serve.OpRepair
		}
		if _, _, err := target.srv.ApplyFaults([]serve.FaultOp{
			{Op: op, Kind: serve.KindNode, Node: gc.NodeID(40 + i%2)},
		}); err != nil {
			t.Fatal(err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	waitFor(t, 10*time.Second, "pre-partition convergence", func() bool { return stableConverged(insts, 60*time.Millisecond) })
	assertIdenticalFaults(t, insts)

	// Phase 2: isolate instance 2 from both others.
	g.cut(2, 0)
	g.cut(2, 1)

	// Mutations land on the majority side only.
	if _, _, err := insts[0].srv.ApplyFaults([]serve.FaultOp{
		{Op: serve.OpInject, Kind: serve.KindNode, Node: 50},
		{Op: serve.OpInject, Kind: serve.KindLink, Node: 17, Dim: 5},
	}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "majority-side convergence", func() bool {
		e0, f0 := insts[0].srv.Frontier()
		e1, f1 := insts[1].srv.Frontier()
		return e0 == e1 && f0 == f1
	})

	// The isolated instance must keep serving, but degraded-marked once
	// it has missed enough gossip rounds to know it cannot vouch for
	// the fault frontier.
	waitFor(t, 10*time.Second, "isolated instance marks itself stale", func() bool {
		stale, _ := insts[2].srv.EpochStale()
		return stale
	})
	// A route served by the isolated instance for a class it owns comes
	// back delivered — and degraded.
	waitFor(t, 10*time.Second, "stale-degraded verdict on isolated instance", func() bool {
		resp, err := insts[2].srv.SubmitTree(ctx, gc.NodeID(7), gc.NodeID(23), core.TreeAuto) // class 3: owned by 2
		if err != nil || resp.Err != nil || resp.Report == nil {
			return false
		}
		return resp.Report.Outcome == core.OutcomeDeliveredDegraded
	})
	// A source the unreachable member 0 owns is answered by the
	// isolated instance itself, degraded.
	resp, err := insts[2].srv.SubmitTree(ctx, gc.NodeID(4), gc.NodeID(9), core.TreeAuto) // class 0: owned by 0
	if err != nil {
		t.Fatal(err)
	}
	if resp.Err != nil || resp.Report == nil {
		t.Fatalf("fallback route failed: %+v", resp)
	}
	if resp.Report.Outcome != core.OutcomeDeliveredDegraded {
		t.Fatalf("fallback outcome %v, want delivered-degraded", resp.Report.Outcome)
	}

	// Phase 3: heal. The isolated instance pulls what it missed; the
	// whole cluster must converge bit-identically and clear staleness.
	g.heal(2, 0)
	g.heal(2, 1)
	if _, _, err := insts[2].srv.ApplyFaults([]serve.FaultOp{
		{Op: serve.OpInject, Kind: serve.KindNode, Node: 60},
	}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 15*time.Second, "post-heal convergence", func() bool { return stableConverged(insts, 60*time.Millisecond) })
	assertIdenticalFaults(t, insts)
	waitFor(t, 10*time.Second, "staleness cleared after heal", func() bool {
		for _, in := range insts {
			if stale, _ := in.srv.EpochStale(); stale {
				return false
			}
		}
		return true
	})

	// Stop traffic, then check conservation cluster-wide: every
	// accepted request was served exactly once, wherever it was
	// computed, and the isolated instance really did stamp degraded
	// verdicts.
	close(stopTraffic)
	trafficWG.Wait()
	var accepted, served, rejected, staleDegrades int64
	for i, in := range insts {
		m := in.srv.Metrics()
		accepted += m.Accepted
		served += m.Served
		rejected += m.Rejected
		if m.Cluster == nil {
			t.Fatalf("instance %d has no cluster scrape", i)
		}
		staleDegrades += m.Cluster.DegradedStaleEpoch
	}
	if accepted != served {
		t.Fatalf("conservation violated: accepted %d != served %d (rejected %d)", accepted, served, rejected)
	}
	degradedMu.Lock()
	for i := range insts {
		for c, ok := range answered[i] {
			if !ok {
				degradedMu.Unlock()
				t.Fatalf("instance %d answered no source of class %d", i, c)
			}
		}
	}
	degradedMu.Unlock()
	if staleDegrades == 0 {
		t.Fatal("no response was degraded for a stale epoch during the partition")
	}
	degradedMu.Lock()
	isolatedDegraded := degraded[2]
	degradedMu.Unlock()
	if isolatedDegraded == 0 {
		t.Fatal("isolated instance's traffic saw no degraded verdicts")
	}
	// Final frontier sanity: every instance reports the same thing the
	// fault sets already proved.
	e0, f0 := insts[0].srv.Frontier()
	t.Logf("converged at epoch %d fp %#x; staleDegrades=%d isolatedDegraded=%d",
		e0, f0, staleDegrades, isolatedDegraded)
	if fault.CompareFrontier(e0, f0, e0, f0) != 0 {
		t.Fatal("CompareFrontier is not reflexive") // exercises the helper end to end
	}
}

// TestClusterClient: the ownership-following client reaches the right
// member directly and fails over when that member goes away.
func TestClusterClient(t *testing.T) {
	cube := gc.New(6, 2)
	insts, g := startCluster(t, cube, [][2]int{{0, 1}, {2, 2}, {3, 3}}, 50*time.Millisecond)
	members := make([]Member, len(insts))
	for i, in := range insts {
		members[i] = Member{Addr: in.addr, Lo: [][2]int{{0, 1}, {2, 2}, {3, 3}}[i][0], Hi: [][2]int{{0, 1}, {2, 2}, {3, 3}}[i][1]}
	}
	topo, err := New(cube, members)
	if err != nil {
		t.Fatal(err)
	}
	c := NewClient(topo, serve.WireDialOptions{
		RetryBudget: 2,
		BackoffBase: 5 * time.Millisecond,
		CallTimeout: time.Second,
		Dial:        g.dialFrom(len(insts)), // the client is "member 3" to the gate
	})
	defer c.Close()

	// Class-3 source goes straight to instance 2.
	resp, err := c.Route(gc.NodeID(7), gc.NodeID(22))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Outcome != core.OutcomeDelivered.String() {
		t.Fatalf("outcome %s", resp.Outcome)
	}
	if got := insts[2].srv.Metrics().Accepted; got != 1 {
		t.Fatalf("owner accepted %d, want 1", got)
	}

	// Kill the path to instance 2: the client fails over to the ring
	// successor (instance 0), which answers the route itself, as every
	// member answers every route it receives.
	g.cut(len(insts), 2)
	resp, err = c.Route(gc.NodeID(7), gc.NodeID(22))
	if err != nil {
		t.Fatalf("failover route: %v", err)
	}
	if resp.Outcome != core.OutcomeDelivered.String() &&
		resp.Outcome != core.OutcomeDeliveredDegraded.String() {
		t.Fatalf("failover outcome %s", resp.Outcome)
	}
}

// BenchmarkClusterSubmit prices a route at member 0 whose source class
// it owns against one whose class member 1 owns: both are answered
// where they are submitted, so the two should cost the same.
func BenchmarkClusterSubmit(b *testing.B) {
	cube := gc.New(8, 2)
	insts, _ := startCluster(b, cube, [][2]int{{0, 1}, {2, 3}}, 100*time.Millisecond)
	ctx := context.Background()
	run := func(name string, src, dst gc.NodeID, wantOwned bool) {
		b.Run(name, func(b *testing.B) {
			if insts[0].node.Owns(src) != wantOwned {
				b.Fatalf("source %d owned by member 0 = %v, want %v", src, !wantOwned, wantOwned)
			}
			// Warm the route cache so the benchmark isolates the submit
			// path, not the first plan.
			if _, err := insts[0].srv.SubmitTree(ctx, src, dst, core.TreeAuto); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				resp, err := insts[0].srv.SubmitTree(ctx, src, dst, core.TreeAuto)
				if err != nil {
					b.Fatal(err)
				}
				if resp.Err != nil {
					b.Fatal(resp.Err)
				}
			}
		})
	}
	run("owned", 1, 128, true)      // class 1: owned by member 0
	run("non-owned", 2, 129, false) // class 2: owned by member 1
}
