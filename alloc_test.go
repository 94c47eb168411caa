package gaussiancube_bench

import (
	"context"
	"math/rand"
	"net"
	"testing"
	"time"

	"gaussiancube/internal/core"
	"gaussiancube/internal/fault"
	"gaussiancube/internal/gc"
	"gaussiancube/internal/gtree"
	"gaussiancube/internal/serve"
	"gaussiancube/internal/simnet"
	"gaussiancube/internal/wire"
)

// Allocation regression tests for the fault-free hot path. The bounds
// are the post-optimization baselines (precomputed topology tables,
// pooled route scratch, append-style APIs); a change that reintroduces
// per-route maps or per-call table construction blows well past them.
//
// They live in this non-race-tested package on purpose: the race
// detector instruments allocations and would distort AllocsPerRun.

func allocPairs(cube *gc.Cube, n int, seed int64) [][2]gc.NodeID {
	rng := rand.New(rand.NewSource(seed))
	pairs := make([][2]gc.NodeID, n)
	for i := range pairs {
		pairs[i] = [2]gc.NodeID{
			gc.NodeID(rng.Intn(cube.Nodes())), gc.NodeID(rng.Intn(cube.Nodes())),
		}
	}
	return pairs
}

// TestRouteAllocs: Route allocates only its Result envelope — the
// Result value plus the caller-owned Path and TreeWalk copies.
func TestRouteAllocs(t *testing.T) {
	cube := gc.New(14, 2)
	r := core.NewRouter(cube)
	pairs := allocPairs(cube, 64, 7)
	// Warm the scratch pool over every pair so its buffers reach their
	// steady-state sizes before measuring.
	for _, p := range pairs {
		if _, err := r.Route(p[0], p[1]); err != nil {
			t.Fatal(err)
		}
	}
	// The error is checked outside the measured closure: a t.Fatal call
	// site inside it costs an allocation of its own.
	var firstErr error
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		p := pairs[i%len(pairs)]
		i++
		if _, err := r.Route(p[0], p[1]); err != nil && firstErr == nil {
			firstErr = err
		}
	})
	if firstErr != nil {
		t.Fatal(firstErr)
	}
	if allocs > 3 {
		t.Fatalf("Route: %v allocs/route, want <= 3 (Result + Path + TreeWalk)", allocs)
	}
}

// TestRouteIntoAllocs: a warmed-up RouteInto with a capacious
// destination buffer performs zero heap allocations per route, fault
// free and, over in-slice link faults, with each intra-class substrate
// (the safety-level and safety-vector substrates fill their per-slice
// tables in the route scratch).
func TestRouteIntoAllocs(t *testing.T) {
	cube := gc.New(14, 2)
	fs := fault.NewSet(cube)
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 256; i++ {
		v := gc.NodeID(rng.Intn(cube.Nodes()))
		dims := cube.Dim(cube.EndingClass(v))
		fs.AddLink(v, dims[rng.Intn(len(dims))])
	}
	for _, tc := range []struct {
		name string
		r    *core.Router
	}{
		{"fault-free", core.NewRouter(cube)},
		{"adaptive", core.NewRouter(cube, core.WithFaults(fs))},
		{"safety", core.NewRouter(cube, core.WithFaults(fs), core.WithSubstrate(core.SubstrateSafety))},
		{"vector", core.NewRouter(cube, core.WithFaults(fs), core.WithSubstrate(core.SubstrateVector))},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := tc.r
			pairs := allocPairs(cube, 64, 7)
			dst := make([]gc.NodeID, 0, 64)
			// Warm the scratch pool and the destination buffer.
			for _, p := range pairs {
				var err error
				dst, err = r.RouteInto(dst[:0], p[0], p[1])
				if err != nil {
					t.Fatal(err)
				}
			}
			var firstErr error
			i := 0
			allocs := testing.AllocsPerRun(200, func() {
				p := pairs[i%len(pairs)]
				i++
				var err error
				dst, err = r.RouteInto(dst[:0], p[0], p[1])
				if err != nil && firstErr == nil {
					firstErr = err
				}
			})
			if firstErr != nil {
				t.Fatal(firstErr)
			}
			if allocs >= 1 {
				t.Fatalf("RouteInto: %v allocs/route, want 0", allocs)
			}
		})
	}
}

// TestRouteIntoAllocsTracingOff: a router constructed WITHOUT a tracer
// must not pay for the observability layer — every trace emission site
// is guarded by a nil check on a plain interface field, so the
// tracing-off RouteInto hot path stays at zero allocations exactly
// like the pre-trace baseline above. (With a tracer attached,
// emissions go through a Ring and allocate; that mode is measured in
// the core benchmarks, not bounded here.)
func TestRouteIntoAllocsTracingOff(t *testing.T) {
	cube := gc.New(14, 2)
	// An explicit nil tracer, distinct from the bare NewRouter above:
	// exercises the exact option list a tracing-capable caller uses
	// when tracing is switched off.
	r := core.NewRouter(cube, core.WithTracer(nil))
	pairs := allocPairs(cube, 64, 7)
	dst := make([]gc.NodeID, 0, 64)
	for _, p := range pairs {
		var err error
		dst, err = r.RouteInto(dst[:0], p[0], p[1])
		if err != nil {
			t.Fatal(err)
		}
	}
	var firstErr error
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		p := pairs[i%len(pairs)]
		i++
		var err error
		dst, err = r.RouteInto(dst[:0], p[0], p[1])
		if err != nil && firstErr == nil {
			firstErr = err
		}
	})
	if firstErr != nil {
		t.Fatal(firstErr)
	}
	if allocs >= 1 {
		t.Fatalf("RouteInto with tracing off: %v allocs/route, want 0", allocs)
	}
}

// TestRouteIntoFallbackAllocs: the BFS fallback keeps its search state
// in the pooled route scratch and appends its path onto dst, so a
// warmed-up RouteInto allocates nothing even when the strategy gives
// up. The pairs are those of the wire-miss fault pattern (GC(14,2^2),
// 32 node faults from seed 1) that take the fallback.
func TestRouteIntoFallbackAllocs(t *testing.T) {
	cube := gc.New(14, 2)
	fs := fault.NewSet(cube)
	fs.InjectRandomNodes(rand.New(rand.NewSource(1)), 32)
	r := core.NewRouter(cube, core.WithFaults(fs.Freeze()))
	var pairs [][2]gc.NodeID
	for _, p := range allocPairs(cube, 4096, 2) {
		if fs.NodeFaulty(p[0]) || fs.NodeFaulty(p[1]) {
			continue
		}
		if res, err := r.Route(p[0], p[1]); err == nil && res.UsedFallback {
			pairs = append(pairs, p)
		}
	}
	if len(pairs) == 0 {
		t.Fatal("no pair takes the fallback")
	}
	dst := make([]gc.NodeID, 0, 64)
	for _, p := range pairs {
		var err error
		if dst, err = r.RouteInto(dst[:0], p[0], p[1]); err != nil {
			t.Fatal(err)
		}
	}
	var firstErr error
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		p := pairs[i%len(pairs)]
		i++
		var err error
		dst, err = r.RouteInto(dst[:0], p[0], p[1])
		if err != nil && firstErr == nil {
			firstErr = err
		}
	})
	if firstErr != nil {
		t.Fatal(firstErr)
	}
	if allocs >= 1 {
		t.Fatalf("RouteInto over %d fallback pairs: %v allocs/route, want 0", len(pairs), allocs)
	}
}

// TestRouteContextAllocs: a warmed-up fault-free Router.RouteContext
// allocates only its report and the path the report owns; no
// intermediate Result or TreeWalk copy.
func TestRouteContextAllocs(t *testing.T) {
	cube := gc.New(14, 2)
	r := core.NewRouter(cube)
	pairs := allocPairs(cube, 64, 7)
	ctx := context.Background()
	for _, p := range pairs {
		if _, err := r.RouteContext(ctx, p[0], p[1]); err != nil {
			t.Fatal(err)
		}
	}
	var firstErr error
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		p := pairs[i%len(pairs)]
		i++
		if _, err := r.RouteContext(ctx, p[0], p[1]); err != nil && firstErr == nil {
			firstErr = err
		}
	})
	if firstErr != nil {
		t.Fatal(firstErr)
	}
	if allocs > 2 {
		t.Fatalf("RouteContext: %v allocs/route, want <= 2 (report + path)", allocs)
	}
}

// TestPCAllocs: PC allocates exactly its result slice; AppendPC into a
// capacious buffer allocates nothing.
func TestPCAllocs(t *testing.T) {
	tr := gtree.New(14)
	s, d := gtree.Node(5), gtree.Node(tr.Nodes()-3)
	if allocs := testing.AllocsPerRun(200, func() { tr.PC(s, d) }); allocs > 1 {
		t.Fatalf("PC: %v allocs, want <= 1 (the result slice)", allocs)
	}
	buf := make([]gtree.Node, 0, 64)
	allocs := testing.AllocsPerRun(200, func() { buf = tr.AppendPC(buf[:0], s, d) })
	if allocs >= 1 {
		t.Fatalf("AppendPC: %v allocs, want 0", allocs)
	}
}

// TestNeighborsAllocs: Neighbors allocates exactly its result slice;
// AppendNeighbors into a capacious buffer allocates nothing.
func TestNeighborsAllocs(t *testing.T) {
	cube := gc.New(14, 2)
	p := gc.NodeID(12345)
	if allocs := testing.AllocsPerRun(200, func() { cube.Neighbors(p) }); allocs > 1 {
		t.Fatalf("Neighbors: %v allocs, want <= 1 (the result slice)", allocs)
	}
	buf := make([]gc.NodeID, 0, 16)
	allocs := testing.AllocsPerRun(200, func() { buf = cube.AppendNeighbors(buf[:0], p) })
	if allocs >= 1 {
		t.Fatalf("AppendNeighbors: %v allocs, want 0", allocs)
	}
}

// TestWireCodecAllocs: the gcwire binary codec is append-style on the
// encode side and decode-into-reused-struct on the decode side; with a
// capacious buffer and warmed scratch slices, a RouteReq/RouteResult
// round trip performs zero heap allocations. This is the bound that
// keeps the wire server's reader-goroutine fast path allocation-free.
func TestWireCodecAllocs(t *testing.T) {
	path := []gc.NodeID{3, 11, 10, 14, 15}
	res := wire.RouteResult{
		Outcome: 1,
		Flags:   wire.FlagCacheHit,
		Hops:    4,
		Epoch:   7,
		Reason:  []byte("cached detour"),
		Path:    path,
	}
	buf := make([]byte, 0, 512)
	var req wire.RouteReq
	var dec wire.RouteResult
	dec.Reason = make([]byte, 0, 64)
	dec.Path = make([]gc.NodeID, 0, 64)

	allocs := testing.AllocsPerRun(200, func() {
		buf = wire.AppendRouteReq(buf[:0], 42, wire.RouteReq{Src: 3, Dst: 15})
		h, err := wire.ParseHeader(buf)
		if err != nil {
			return
		}
		if err := wire.DecodeRouteReq(buf[wire.HeaderSize:wire.HeaderSize+int(h.Len)], &req); err != nil {
			return
		}
		buf = wire.AppendRouteResult(buf[:0], 42, &res)
		h, err = wire.ParseHeader(buf)
		if err != nil {
			return
		}
		dec.Reason = dec.Reason[:0]
		dec.Path = dec.Path[:0]
		if err := wire.DecodeRouteResult(buf[wire.HeaderSize:wire.HeaderSize+int(h.Len)], &dec); err != nil {
			return
		}
	})
	if allocs >= 1 {
		t.Fatalf("wire codec round trip: %v allocs, want 0", allocs)
	}
	if req.Src != 3 || req.Dst != 15 || len(dec.Path) != len(path) {
		t.Fatalf("round trip corrupted: req=%+v dec=%+v", req, dec)
	}
}

// TestFastRouteAllocs: a warmed cache hit answered on the FastRouteTree
// fast path — the read a wire-server reader goroutine performs per
// pipelined request — is zero allocations. Tracing must be off
// (TraceEvery 0): sampled ring emissions are the one legal allocation
// source on a hit.
func TestFastRouteAllocs(t *testing.T) {
	cube := gc.New(10, 3)
	s, err := serve.New(serve.Config{Cube: cube, CacheCapacity: 1 << 12})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	}()
	pairs := allocPairs(cube, 64, 11)
	// Route every pair once through the full pipeline to populate the
	// shard caches, then confirm the fast path sees them.
	for _, p := range pairs {
		if _, err := s.SubmitTree(context.Background(), p[0], p[1], core.TreeAuto); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range pairs {
		if _, ok := s.FastRouteTree(p[0], p[1], core.TreeAuto); !ok {
			t.Fatalf("pair (%d,%d) not cached after submit", p[0], p[1])
		}
	}
	i := 0
	misses := 0
	allocs := testing.AllocsPerRun(200, func() {
		p := pairs[i%len(pairs)]
		i++
		if _, ok := s.FastRouteTree(p[0], p[1], core.TreeAuto); !ok {
			misses++
		}
	})
	if misses > 0 {
		t.Fatalf("%d unexpected cache misses", misses)
	}
	if allocs >= 1 {
		t.Fatalf("FastRouteTree hit: %v allocs, want 0", allocs)
	}
}

// TestWireRouteBatchAllocs: a warmed RouteBatch over loopback — the
// pipelined client loop the wire benchmarks run — performs zero heap
// allocations per batch, counted process-wide, so the server's
// reader-goroutine fast path is inside the bound too. Every pair is
// warmed into the route cache first so no request takes the miss path
// (TestWireMissAllocs bounds that one).
func TestWireRouteBatchAllocs(t *testing.T) {
	cube := gc.New(10, 3)
	s, err := serve.New(serve.Config{Cube: cube, CacheCapacity: 1 << 12})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ws := serve.NewWireServer(s, ln)
	go func() { _ = ws.Serve() }()
	defer func() {
		_ = ws.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	}()
	c, err := serve.DialWire(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	pairs := allocPairs(cube, 64, 13)
	out := make([]serve.WireRoute, len(pairs))
	// Two warm passes: the first plans every pair into the cache, the
	// second grows each slot's Path and Reason to its steady size.
	for pass := 0; pass < 2; pass++ {
		if err := c.RouteBatch(pairs, out); err != nil {
			t.Fatal(err)
		}
	}
	var firstErr error
	allocs := testing.AllocsPerRun(100, func() {
		if err := c.RouteBatch(pairs, out); err != nil && firstErr == nil {
			firstErr = err
		}
	})
	if firstErr != nil {
		t.Fatal(firstErr)
	}
	for i := range out {
		if !out[i].Delivered() || !out[i].CacheHit() {
			t.Fatalf("slot %d: %+v, want a delivered cache hit", i, out[i])
		}
	}
	if allocs >= 1 {
		t.Fatalf("RouteBatch: %v allocs/batch, want 0", allocs)
	}
}

// TestWireMissAllocs: a warmed loopback RouteBatch with the route cache
// disabled, so every route is a miss that the connection's reader
// plans itself, into its own path buffer, and encodes into its own
// write buffer. Counted process-wide, a planner-mode miss allocates
// nothing: no task, report, path, goroutine, context or channel. The
// bound allows a fraction of an alloc for the runtime's own background
// work.
func TestWireMissAllocs(t *testing.T) {
	cube := gc.New(10, 3)
	s, err := serve.New(serve.Config{Cube: cube, CacheCapacity: -1})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ws := serve.NewWireServer(s, ln)
	go func() { _ = ws.Serve() }()
	defer func() {
		_ = ws.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	}()
	c, err := serve.DialWire(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Distinct pairs: the batch is 64 independent misses.
	var pairs [][2]gc.NodeID
	seen := map[[2]gc.NodeID]bool{}
	for _, p := range allocPairs(cube, 128, 17) {
		if p[0] != p[1] && !seen[p] && len(pairs) < 64 {
			seen[p] = true
			pairs = append(pairs, p)
		}
	}
	out := make([]serve.WireRoute, len(pairs))
	for pass := 0; pass < 4; pass++ {
		if err := c.RouteBatch(pairs, out); err != nil {
			t.Fatal(err)
		}
	}
	var firstErr error
	perBatch := testing.AllocsPerRun(100, func() {
		if err := c.RouteBatch(pairs, out); err != nil && firstErr == nil {
			firstErr = err
		}
	})
	if firstErr != nil {
		t.Fatal(firstErr)
	}
	for i := range out {
		if !out[i].Delivered() || out[i].CacheHit() {
			t.Fatalf("slot %d: %+v, want a delivered miss", i, out[i])
		}
	}
	perRoute := perBatch / float64(len(pairs))
	t.Logf("wire miss: %.3f allocs/route", perRoute)
	if perRoute > 0.25 {
		t.Fatalf("wire miss: %.2f allocs/route, want 0", perRoute)
	}
}

// TestRunAllocsPerPacket: a fault-free eager simnet.Run without a route
// cache allocates one object per planned packet, its exact-size path
// (Router.AppendRoute into a nil slice; no Result envelope or TreeWalk
// copy), plus a fixed set-up (topology, router, packet slice, calendar)
// spread over the run's packets: 1709 allocs over 1637 packets, 1.044
// per packet. The link ledger comes from a pool across runs, and the
// event queue and the ledger add nothing per hop.
func TestRunAllocsPerPacket(t *testing.T) {
	cfg := simnet.Config{N: 12, Alpha: 1, Arrival: 0.01, GenCycles: 40, Seed: 1}
	st, err := simnet.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var runErr error
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := simnet.Run(cfg); err != nil && runErr == nil {
			runErr = err
		}
	})
	if runErr != nil {
		t.Fatal(runErr)
	}
	// Fault-free, every offered packet is planned once and delivered.
	if st.Delivered != st.Generated {
		t.Fatalf("%d of %d packets delivered", st.Delivered, st.Generated)
	}
	perPacket := allocs / float64(st.Delivered)
	t.Logf("%.0f allocs/run over %d planned packets: %.3f allocs/packet", allocs, st.Delivered, perPacket)
	if perPacket > 1.05 {
		t.Fatalf("simnet.Run: %.3f allocs/packet, want <= 1.05", perPacket)
	}
}
