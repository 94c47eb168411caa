package serve

import (
	"context"
	"errors"
	"io"
	"math/bits"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gaussiancube/internal/core"
	"gaussiancube/internal/gc"
	"gaussiancube/internal/wire"
)

// startWire boots a WireServer on loopback over s and returns its
// address; teardown closes it.
func startWire(t testing.TB, s *Server) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ws := NewWireServer(s, ln)
	done := make(chan error, 1)
	go func() { done <- ws.Serve() }()
	t.Cleanup(func() {
		_ = ws.Close()
		if err := <-done; err != nil {
			t.Errorf("wire serve: %v", err)
		}
	})
	return ln.Addr().String()
}

// TestWireEndToEnd drives the full binary surface over one connection:
// ping, cold route, cache-hit route (fast path), pipelined batch,
// fault mutation with epoch bump and invalidation, faulty-endpoint and
// out-of-range error frames, metrics, and a clean drain.
func TestWireEndToEnd(t *testing.T) {
	cube := gc.New(8, 2)
	s := mustServer(t, Config{Cube: cube, Shards: 2, CacheCapacity: 1024})
	addr := startWire(t, s)
	c, err := DialWire(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if epoch, err := c.Ping(); err != nil || epoch != 0 {
		t.Fatalf("ping: epoch=%d err=%v", epoch, err)
	}

	first, err := c.Route(3, 200)
	if err != nil {
		t.Fatal(err)
	}
	if first.Outcome != "delivered" || first.CacheHit || first.Hops != cube.Distance(3, 200) {
		t.Fatalf("cold route: %+v", first)
	}
	second, err := c.Route(3, 200)
	if err != nil {
		t.Fatal(err)
	}
	if !second.CacheHit || second.Hops != first.Hops || len(second.Path) != len(first.Path) {
		t.Fatalf("repeat route must be a cache hit: %+v", second)
	}

	// Pipelined batch: same pairs repeated, so replies mix fast-path
	// hits with queued misses and arrive out of order.
	pairs := make([][2]gc.NodeID, 64)
	for i := range pairs {
		pairs[i] = [2]gc.NodeID{gc.NodeID(i % 16), gc.NodeID(200 + i%8)}
	}
	out := make([]WireRoute, len(pairs))
	if err := c.RouteBatch(pairs, out); err != nil {
		t.Fatal(err)
	}
	for i := range out {
		if out[i].ErrCode != 0 || !out[i].Delivered() {
			t.Fatalf("batch[%d]: %+v", i, out[i])
		}
		if out[i].Hops != cube.Distance(pairs[i][0], pairs[i][1]) {
			t.Fatalf("batch[%d]: %d hops, want %d", i, out[i].Hops, cube.Distance(pairs[i][0], pairs[i][1]))
		}
	}

	// Mutate faults: epoch bumps, cache invalidates, faulty endpoint
	// becomes an error frame with the 409 code.
	fr, err := c.ApplyFaults([]FaultOp{{Op: OpInject, Kind: KindNode, Node: 7}})
	if err != nil {
		t.Fatal(err)
	}
	if fr.Epoch != 1 || fr.Faults != 1 || fr.Applied != 1 {
		t.Fatalf("faults: %+v", fr)
	}
	post, err := c.Route(3, 200)
	if err != nil {
		t.Fatal(err)
	}
	if post.CacheHit || post.Epoch != 1 {
		t.Fatalf("post-mutation route must miss the invalidated cache: %+v", post)
	}
	var se *WireStatusError
	if _, err := c.Route(0, 7); !errors.As(err, &se) || se.Code != wire.CodeFaultyNode {
		t.Fatalf("route to faulty node: %v", err)
	}
	if _, err := c.Route(0, gc.NodeID(cube.Nodes())); !errors.As(err, &se) || se.Code != wire.CodeBadRequest {
		t.Fatalf("out-of-range route: %v", err)
	}

	m, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if m.FastPathHits == 0 {
		t.Fatalf("no fast-path hits recorded: %+v", m)
	}
	if m.Served != m.Accepted {
		t.Fatalf("conservation over the wire: accepted=%d served=%d", m.Accepted, m.Served)
	}
	// The JSON round-trip does not rebuild histogram internals; assert
	// the latency conservation law on the server-side snapshot.
	if sm := s.Metrics(); sm.Latency.Stats().Count() != sm.Served {
		t.Fatalf("latency count %d != served %d", sm.Latency.Stats().Count(), sm.Served)
	}

	// Drain: in-flight work is answered, then new requests get 503.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Route(1, 2); !errors.As(err, &se) || se.Code != wire.CodeDraining {
		t.Fatalf("draining route: %v", err)
	}
}

// TestWireMalformedStream: a corrupt header is answered with one
// error frame and the connection is closed.
func TestWireMalformedStream(t *testing.T) {
	cube := gc.New(6, 2)
	s := mustServer(t, Config{Cube: cube, Shards: 1})
	addr := startWire(t, s)
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	if _, err := raw.Write([]byte("GET / HTTP/1.1\r\n\r\n")); err != nil {
		t.Fatal(err)
	}
	reply, err := io.ReadAll(raw) // server answers then hangs up
	if err != nil {
		t.Fatal(err)
	}
	h, err := wire.ParseHeader(reply)
	if err != nil || h.Type != wire.TypeError {
		t.Fatalf("reply %x: %+v err=%v", reply, h, err)
	}
	var ef wire.ErrorFrame
	if err := wire.DecodeError(reply[wire.HeaderSize:], &ef); err != nil || ef.Code != wire.CodeBadRequest {
		t.Fatalf("error frame: %+v err=%v", ef, err)
	}

	// A well-formed frame of a type clients must not send is refused
	// per-request without poisoning the stream.
	c, err := DialWire(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if epoch, err := c.Ping(); err != nil || epoch != 0 {
		t.Fatalf("ping after bad peer: epoch=%d err=%v", epoch, err)
	}
}

// TestCoalescerSoak is the tentpole's -race battery: a small pair set
// with the cache disabled forces heavy coalescing while a churner
// drives copy-on-write fault epochs. Every delivered response is
// validated against the exact fault set of the epoch it is labeled
// with — a waiter handed a plan computed against any other epoch's
// faults (a torn group) would walk through a node that epoch considers
// faulty or take a non-edge hop.
func TestCoalescerSoak(t *testing.T) {
	cube := gc.New(8, 2)
	s, err := New(Config{
		Cube:            cube,
		Shards:          2,
		QueueDepth:      64,
		Batch:           8,
		CacheCapacity:   -1, // no cache: everything coalesces or queues
		DefaultDeadline: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}

	// epochFaults[e] is the faulty-node set of epoch e, recorded BEFORE
	// the epoch is installed so no response can be labeled e first.
	var (
		efMu        sync.RWMutex
		epochFaults = map[uint64]map[gc.NodeID]bool{0: {}}
	)
	adjacent := func(a, b gc.NodeID) bool {
		x := uint32(a ^ b)
		if x == 0 || x&(x-1) != 0 {
			return false
		}
		return cube.HasLinkDim(a, uint(bits.TrailingZeros32(x)))
	}

	const epochs = 64
	churn := make(chan struct{})
	go func() {
		defer close(churn)
		rng := rand.New(rand.NewSource(7))
		cur := map[gc.NodeID]bool{}
		for e := uint64(1); e <= epochs; e++ {
			node := gc.NodeID(rng.Intn(64)) // overlap the client pair set
			op := OpInject
			if cur[node] {
				op = OpRepair
			}
			next := make(map[gc.NodeID]bool, len(cur)+1)
			for n := range cur {
				next[n] = true
			}
			if op == OpInject {
				next[node] = true
			} else {
				delete(next, node)
			}
			efMu.Lock()
			epochFaults[e] = next
			efMu.Unlock()
			if _, _, err := s.ApplyFaults([]FaultOp{{Op: op, Kind: KindNode, Node: node}}); err != nil {
				t.Errorf("churn epoch %d: %v", e, err)
				return
			}
			cur = next
			time.Sleep(150 * time.Microsecond)
		}
	}()

	const (
		clients = 8
		perC    = 400
	)
	var (
		wg       sync.WaitGroup
		answered atomic.Int64
		refused  atomic.Int64
	)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < perC; i++ {
				// 16 sources x 4 destinations: dense collisions.
				src := gc.NodeID(rng.Intn(16))
				dst := gc.NodeID(48 + rng.Intn(4))
				r, err := s.SubmitTree(context.Background(), src, dst, core.TreeAuto)
				if errors.Is(err, ErrBackpressure) || errors.Is(err, ErrDraining) {
					refused.Add(1)
					continue
				}
				if err != nil {
					t.Errorf("submit: %v", err)
					return
				}
				answered.Add(1)
				if r.Err != nil || r.Report.Outcome.Undeliverable() ||
					r.Report.Outcome == core.OutcomeCanceled {
					continue
				}
				// Validate the delivered path against its labeled epoch.
				efMu.RLock()
				faults, ok := epochFaults[r.Epoch]
				efMu.RUnlock()
				if !ok {
					t.Errorf("response labeled unknown epoch %d", r.Epoch)
					return
				}
				path := r.Report.Path
				if len(path) == 0 || path[0] != src || path[len(path)-1] != dst {
					t.Errorf("path endpoints %v for (%d,%d)", path, src, dst)
					return
				}
				for j, node := range path {
					if faults[node] {
						t.Errorf("epoch-%d plan crosses node %d, faulty in that epoch (torn coalesced group?)", r.Epoch, node)
						return
					}
					if j > 0 && !adjacent(path[j-1], node) {
						t.Errorf("non-edge hop %d->%d in epoch-%d plan", path[j-1], node, r.Epoch)
						return
					}
				}
			}
		}(int64(100 + c))
	}
	wg.Wait()
	<-churn

	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	m := s.Metrics()
	if m.Coalesced == 0 {
		t.Fatal("soak exercised no coalescing")
	}
	if answered.Load() != m.Accepted || m.Served != m.Accepted {
		t.Fatalf("conservation: answered=%d accepted=%d served=%d", answered.Load(), m.Accepted, m.Served)
	}
	if m.Rejected != refused.Load() {
		t.Fatalf("rejected=%d, clients saw %d refusals", m.Rejected, refused.Load())
	}
	if m.Latency.Stats().Count() != m.Served {
		t.Fatalf("latency count %d != served %d", m.Latency.Stats().Count(), m.Served)
	}
}

// TestFastPathEpochSoak is the cache-enabled twin of TestCoalescerSoak
// and the regression test for the swap-ordering race: ApplyFaults must
// re-stamp and clear every route-cache shard BEFORE publishing the new
// shard router state. With the orders reversed, a submitter that loads
// the new epoch fingerprint can pass GetTagged's token check against a
// not-yet-cleared cache shard and serve an old-epoch path labeled as
// the new fault state. A hot cache under churning epochs makes exactly
// that window: every delivered response is validated against the fault
// set of the epoch it is labeled with.
func TestFastPathEpochSoak(t *testing.T) {
	cube := gc.New(8, 2)
	s, err := New(Config{
		Cube:            cube,
		Shards:          2,
		QueueDepth:      64,
		Batch:           8,
		CacheCapacity:   4096, // hot cache: FastRouteTree hits dominate
		DefaultDeadline: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}

	var (
		efMu        sync.RWMutex
		epochFaults = map[uint64]map[gc.NodeID]bool{0: {}}
	)
	adjacent := func(a, b gc.NodeID) bool {
		x := uint32(a ^ b)
		if x == 0 || x&(x-1) != 0 {
			return false
		}
		return cube.HasLinkDim(a, uint(bits.TrailingZeros32(x)))
	}

	const epochs = 512
	churn := make(chan struct{})
	go func() {
		defer close(churn)
		rng := rand.New(rand.NewSource(11))
		cur := map[gc.NodeID]bool{}
		for e := uint64(1); e <= epochs; e++ {
			node := gc.NodeID(rng.Intn(64))
			op := OpInject
			if cur[node] {
				op = OpRepair
			}
			next := make(map[gc.NodeID]bool, len(cur)+1)
			for n := range cur {
				next[n] = true
			}
			if op == OpInject {
				next[node] = true
			} else {
				delete(next, node)
			}
			efMu.Lock()
			epochFaults[e] = next
			efMu.Unlock()
			if _, _, err := s.ApplyFaults([]FaultOp{{Op: op, Kind: KindNode, Node: node}}); err != nil {
				t.Errorf("churn epoch %d: %v", e, err)
				return
			}
			cur = next
			time.Sleep(20 * time.Microsecond)
		}
	}()

	const (
		clients = 16
		perC    = 2000
	)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < perC; i++ {
				src := gc.NodeID(rng.Intn(16))
				dst := gc.NodeID(48 + rng.Intn(4))
				r, err := s.SubmitTree(context.Background(), src, dst, core.TreeAuto)
				if errors.Is(err, ErrBackpressure) || errors.Is(err, ErrDraining) {
					continue
				}
				if err != nil {
					t.Errorf("submit: %v", err)
					return
				}
				if r.Err != nil || r.Report.Outcome.Undeliverable() ||
					r.Report.Outcome == core.OutcomeCanceled {
					continue
				}
				efMu.RLock()
				faults, ok := epochFaults[r.Epoch]
				efMu.RUnlock()
				if !ok {
					t.Errorf("response labeled unknown epoch %d", r.Epoch)
					return
				}
				path := r.Report.Path
				if len(path) == 0 || path[0] != src || path[len(path)-1] != dst {
					t.Errorf("path endpoints %v for (%d,%d)", path, src, dst)
					return
				}
				for j, node := range path {
					if faults[node] {
						t.Errorf("epoch-%d answer crosses node %d, faulty in that epoch (stale cache hit served under new fingerprint?)", r.Epoch, node)
						return
					}
					if j > 0 && !adjacent(path[j-1], node) {
						t.Errorf("non-edge hop %d->%d in epoch-%d answer", path[j-1], node, r.Epoch)
						return
					}
				}
			}
		}(int64(500 + c))
	}
	wg.Wait()
	<-churn

	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if m := s.Metrics(); m.FastPathHits == 0 {
		t.Fatal("soak exercised no fast-path cache hits")
	}
}

// BenchmarkServeWire is the binary twin of BenchmarkServeBatch and the
// tentpole's acceptance gate: pipelined RouteBatch over TCP against a
// warmed route cache, reporting end-to-end routes/s (target >= 1M on
// GC(10,2^3)).
func BenchmarkServeWire(b *testing.B) {
	runServeWireBench(b, Config{Cube: gc.New(10, 3), QueueDepth: 1024, CacheCapacity: 1 << 16})
}

// runServeWireBench is the shared body of BenchmarkServeWire and its
// journal-on variants (journal_bench_test.go) — the config decides
// whether a durable journal rides along.
func runServeWireBench(b *testing.B, cfg Config) {
	cube := cfg.Cube
	s, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	}()
	if err := s.WaitJournal(context.Background()); err != nil {
		b.Fatal(err)
	}
	addr := startWire(b, s)

	// Fixed working set, warmed once so steady state measures the
	// cache-hit fast path plus the framing, not the planner.
	const (
		working   = 4096
		batchSize = 512
	)
	rng := rand.New(rand.NewSource(42))
	set := make([][2]gc.NodeID, working)
	for i := range set {
		set[i] = [2]gc.NodeID{gc.NodeID(rng.Intn(cube.Nodes())), gc.NodeID(rng.Intn(cube.Nodes()))}
	}
	warm, err := DialWire(addr)
	if err != nil {
		b.Fatal(err)
	}
	wout := make([]WireRoute, batchSize)
	for off := 0; off < working; off += batchSize {
		if err := warm.RouteBatch(set[off:off+batchSize], wout); err != nil {
			b.Fatal(err)
		}
	}
	warm.Close()

	var routed atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		c, err := DialWire(addr)
		if err != nil {
			b.Error(err)
			return
		}
		defer c.Close()
		out := make([]WireRoute, batchSize)
		off := 0
		for pb.Next() {
			batch := set[off : off+batchSize]
			off = (off + batchSize) % working
			if err := c.RouteBatch(batch, out); err != nil {
				b.Error(err)
				return
			}
			routed.Add(batchSize)
		}
	})
	b.StopTimer()
	b.ReportMetric(float64(routed.Load())/b.Elapsed().Seconds(), "routes/s")
	m := s.Metrics()
	if m.Served < routed.Load() {
		b.Fatalf("served %d < %d routed", m.Served, routed.Load())
	}
}
