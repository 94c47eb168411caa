package serve

import (
	"context"
	"errors"
	"io"
	"math/bits"
	"math/rand"
	"net"
	"runtime"
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

// gatedListener hands out connections whose every Write, once its bytes
// are on the socket, announces their count on wrote and then waits for
// release (or done): a test can read one write's replies and scrape the
// server while the server is still inside that write.
type gatedListener struct {
	net.Listener
	wrote   chan int
	release chan struct{}
	done    chan struct{}
}

func (l *gatedListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &gatedConn{Conn: c, l: l}, nil
}

type gatedConn struct {
	net.Conn
	l *gatedListener
}

func (c *gatedConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	select {
	case c.l.wrote <- n:
		select {
		case <-c.l.release:
		case <-c.l.done:
		}
	case <-c.l.done:
	}
	return n, err
}

// TestWireHitsAccountedBeforeReply: the reader's per-burst hit
// accounting is published before the write that carries the replies.
// Pipelined batches of warmed hits go over one connection whose server
// side is held inside each write until the test has read that write's
// replies and scraped the server: Served and FastPathHits must already
// count every route answered so far. Once quiescent, accepted == served
// and the latency histogram counts every served request once.
func TestWireHitsAccountedBeforeReply(t *testing.T) {
	cube := gc.New(8, 2)
	s := mustServer(t, Config{Cube: cube, Shards: 2, CacheCapacity: 1024})
	rng := rand.New(rand.NewSource(3))
	pairs := make([][2]gc.NodeID, 48)
	for i := range pairs {
		pairs[i] = [2]gc.NodeID{gc.NodeID(rng.Intn(cube.Nodes())), gc.NodeID(rng.Intn(cube.Nodes()))}
		if _, err := s.SubmitTree(context.Background(), pairs[i][0], pairs[i][1], core.TreeAuto); err != nil {
			t.Fatal(err)
		}
	}
	base := s.Metrics()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	gl := &gatedListener{Listener: ln, wrote: make(chan int), release: make(chan struct{}), done: make(chan struct{})}
	ws := NewWireServer(s, gl)
	go func() { _ = ws.Serve() }()
	var closeOnce sync.Once
	shut := func() {
		closeOnce.Do(func() {
			close(gl.done)
			_ = ws.Close()
		})
	}
	t.Cleanup(shut)
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	var (
		req, rbuf []byte
		res       wire.RouteResult
		answered  int64
	)
	for batch := 0; batch < 16; batch++ {
		req = req[:0]
		for i, p := range pairs {
			req = wire.AppendRouteReq(req, uint64(batch*len(pairs)+i), wire.RouteReq{Src: p[0], Dst: p[1]})
		}
		if _, err := conn.Write(req); err != nil {
			t.Fatal(err)
		}
		for got := 0; got < len(pairs); {
			var n int
			select {
			case n = <-gl.wrote:
			case <-time.After(10 * time.Second):
				t.Fatalf("batch %d: no reply write after %d replies", batch, got)
			}
			if cap(rbuf) < n {
				rbuf = make([]byte, n)
			}
			rbuf = rbuf[:n]
			if _, err := io.ReadFull(conn, rbuf); err != nil {
				t.Fatal(err)
			}
			for off := 0; off < n; {
				h, err := wire.ParseHeader(rbuf[off:])
				if err != nil {
					t.Fatal(err)
				}
				body := rbuf[off+wire.HeaderSize : off+wire.HeaderSize+int(h.Len)]
				if h.Type != wire.TypeRouteResult {
					t.Fatalf("reply type %v, want a route result", h.Type)
				}
				if err := wire.DecodeRouteResult(body, &res); err != nil {
					t.Fatal(err)
				}
				if res.Flags&wire.FlagCacheHit == 0 {
					t.Fatalf("reply %d is not a cache hit", h.ID)
				}
				off += wire.HeaderSize + int(h.Len)
				got++
				answered++
			}
			m := s.Metrics()
			if served, fast := m.Served-base.Served, m.FastPathHits-base.FastPathHits; served < answered || fast < answered {
				t.Fatalf("batch %d: client read %d replies, server counts served %d, fast-path hits %d",
					batch, answered, served, fast)
			}
			gl.release <- struct{}{}
		}
	}

	conn.Close()
	shut()
	m := s.Metrics()
	if m.Accepted != m.Served {
		t.Fatalf("quiescent: accepted %d != served %d", m.Accepted, m.Served)
	}
	if c := m.Latency.Stats().Count(); c != m.Served {
		t.Fatalf("quiescent: latency count %d != served %d", c, m.Served)
	}
	if m.FastPathHits-base.FastPathHits != answered {
		t.Fatalf("fast-path hits %d, want %d", m.FastPathHits-base.FastPathHits, answered)
	}
}

// TestMissEpochSoak is the miss path's -race battery: a small pair set
// with the cache disabled queues every request on its shard while a
// churner drives copy-on-write fault epochs. Every answer to a queued
// miss is validated against the exact fault set of the epoch on its
// label — a plan computed against any other epoch's faults would walk
// through a node that epoch considers faulty or take a non-edge hop.
func TestMissEpochSoak(t *testing.T) {
	cube := gc.New(8, 2)
	s, err := New(Config{
		Cube:            cube,
		Shards:          2,
		QueueDepth:      64,
		Batch:           8,
		CacheCapacity:   -1, // no cache: every request queues
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
						t.Errorf("epoch-%d plan crosses node %d, faulty in that epoch", r.Epoch, node)
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

// TestFastPathEpochSoak is the cache-enabled twin of TestMissEpochSoak
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

// heldServer starts a server whose shard worker stops inside the first
// task it processes until release is called; held closes once the
// worker is there. Tests defer release so a failure never leaves the
// worker (and every drain waiting on it) stuck.
func heldServer(t *testing.T, cfg Config) (s *Server, held <-chan struct{}, release func()) {
	t.Helper()
	entered, gate := make(chan struct{}), make(chan struct{})
	var hold, open sync.Once
	testHookProcess = func() { hold.Do(func() { close(entered); <-gate }) }
	release = func() { open.Do(func() { close(gate) }) }
	s, err := New(cfg)
	if err != nil {
		testHookProcess = nil
		t.Fatal(err)
	}
	t.Cleanup(func() {
		release()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
		testHookProcess = nil
	})
	return s, entered, release
}

// waitFor polls cond until it holds, failing the test after 5s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// countingListener hands out accepted connections that count their
// Write calls.
type countingListener struct {
	net.Listener
	writes *atomic.Int32
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{Conn: c, writes: l.writes}, nil
}

// distinctMisses returns n distinct (src, dst) pairs, src != dst.
func distinctMisses(cube *gc.Cube, n int) [][2]gc.NodeID {
	pairs := make([][2]gc.NodeID, n)
	for i := range pairs {
		pairs[i] = [2]gc.NodeID{gc.NodeID(i), gc.NodeID(cube.Nodes() - 1 - i)}
	}
	return pairs
}

// TestWireMissWriteCombining: the replies to a connection's queued
// misses leave in one write per worker batch, not one per miss. The
// worker is held until all 64 pipelined misses are queued, then
// answers them in batches of Config.Batch.
func TestWireMissWriteCombining(t *testing.T) {
	cube := gc.New(8, 2)
	s, held, release := heldServer(t, Config{Cube: cube, Shards: 1, CacheCapacity: -1})
	defer release()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var writes atomic.Int32
	ws := NewWireServer(s, countingListener{Listener: ln, writes: &writes})
	go func() { _ = ws.Serve() }()
	defer ws.Close()
	c, err := DialWire(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const misses = 64
	pairs := distinctMisses(cube, misses)
	out := make([]WireRoute, misses)
	done := make(chan error, 1)
	go func() { done <- c.RouteBatch(pairs, out) }()
	<-held
	waitFor(t, "every miss to queue", func() bool { return s.Metrics().Accepted == misses })
	release()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	for i := range out {
		if !out[i].Delivered() || out[i].CacheHit() {
			t.Fatalf("slot %d: %+v, want a delivered miss", i, out[i])
		}
	}
	batch := s.cfg.Batch
	if got, most := int(writes.Load()), (misses+batch-1)/batch+1; got > most {
		t.Fatalf("%d misses answered in %d writes, want at most %d (one per worker batch)", misses, got, most)
	}
}

// smallBufListener shrinks the kernel buffers of accepted connections,
// so a client that stops reading fills them after a few replies.
type smallBufListener struct{ net.Listener }

func (l smallBufListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		tc := c.(*net.TCPConn)
		_ = tc.SetReadBuffer(8 << 10)
		_ = tc.SetWriteBuffer(8 << 10)
	}
	return c, err
}

// TestWireSlowReaderIsolation: connection A pipelines misses and never
// reads a reply. Its replies back up behind its own socket, its reader
// stops reading once the queue passes the flush threshold, and the
// shard worker never blocks on it: connection B's misses on the same
// shard are answered within a second.
func TestWireSlowReaderIsolation(t *testing.T) {
	cube := gc.New(8, 2)
	s := mustServer(t, Config{Cube: cube, Shards: 1, CacheCapacity: -1})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ws := NewWireServer(s, smallBufListener{ln})
	go func() { _ = ws.Serve() }()
	defer ws.Close()

	a, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	_ = a.(*net.TCPConn).SetReadBuffer(8 << 10)
	_ = a.(*net.TCPConn).SetWriteBuffer(8 << 10)
	var burst []byte
	for i := 0; i < 1024; i++ {
		src := gc.NodeID(i % cube.Nodes())
		dst := gc.NodeID((i*7 + 1) % cube.Nodes())
		burst = wire.AppendRouteReq(burst, uint64(i), wire.RouteReq{Src: src, Dst: dst})
	}
	// Write until the server stops reading A: a write that makes no
	// progress for 200ms means A's reader is parked.
	stalled := false
	for start := time.Now(); time.Since(start) < 20*time.Second; {
		_ = a.SetWriteDeadline(time.Now().Add(200 * time.Millisecond))
		if _, err := a.Write(burst); err != nil {
			var ne net.Error
			if !errors.As(err, &ne) || !ne.Timeout() {
				t.Fatal(err)
			}
			stalled = true
			break
		}
	}
	if !stalled {
		t.Fatal("the server kept reading a connection that never reads its replies")
	}

	// With A's reader parked, the worker drains A's queued misses: it
	// is not blocked behind A's socket.
	defer a.Close() // on failure, unblock whatever is stuck on A first
	waitFor(t, "A's queued misses to drain", func() bool { return s.Metrics().PerShard[0].Queue == 0 })

	bConn := mustDial(t, ln.Addr().String())
	b := NewWireClient(bConn)
	defer b.Close()
	pairs := distinctMisses(cube, 64)
	out := make([]WireRoute, len(pairs))
	done := make(chan error, 1)
	go func() { done <- b.RouteBatch(pairs, out) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(time.Second):
		// Unblock whatever is stuck on A, and B's batch, before failing.
		a.Close()
		bConn.Close()
		<-done
		t.Fatal("B's misses unanswered after 1s behind a connection that does not read")
	}
	for i := range out {
		if !out[i].Delivered() {
			t.Fatalf("B slot %d: %+v", i, out[i])
		}
	}

	// A's unsent replies are bounded: the threshold, plus what was in
	// flight when its reader parked.
	ws.mu.Lock()
	most := 0
	for _, wc := range ws.conns {
		most = max(most, wc.out.queuedBytes())
	}
	ws.mu.Unlock()
	if most > 512<<10 {
		t.Fatalf("%d reply bytes queued for a connection that does not read, want <= 512 KiB", most)
	}
}

// TestWireDrainWithQueuedMisses: Server.Shutdown and WireServer.Close
// race queued misses. Every accepted miss is answered or its
// connection closes, accepted == served, and every goroutine the
// server and its connections started exits.
func TestWireDrainWithQueuedMisses(t *testing.T) {
	base := runtime.NumGoroutine()
	cube := gc.New(8, 2)
	s, held, release := heldServer(t, Config{Cube: cube, Shards: 1, CacheCapacity: -1})
	defer release()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ws := NewWireServer(s, ln)
	served := make(chan error, 1)
	go func() { served <- ws.Serve() }()

	const conns, perConn = 2, 32
	pairs := distinctMisses(cube, conns*perConn)
	clients := make([]*WireClient, conns)
	outs := make([][]WireRoute, conns)
	errs := make(chan error, conns)
	for i := range clients {
		c := NewWireClient(mustDial(t, ln.Addr().String()))
		defer c.Close()
		clients[i], outs[i] = c, make([]WireRoute, perConn)
		go func(i int) { errs <- clients[i].RouteBatch(pairs[i*perConn:(i+1)*perConn], outs[i]) }(i)
	}
	<-held
	waitFor(t, "every miss to queue", func() bool { return s.Metrics().Accepted == conns*perConn })

	shut := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shut <- s.Shutdown(ctx)
	}()
	closed := make(chan error, 1)
	go func() { closed <- ws.Close() }()
	waitFor(t, "the drain to begin", s.Draining)
	release()

	for i := 0; i < conns; i++ {
		if err := <-errs; err != nil && !errors.Is(err, ErrConnClosed) {
			t.Fatalf("batch: %v, want answers or a closed connection", err)
		}
	}
	for i, out := range outs {
		for j := range out {
			if out[j].ErrCode == 0 && out[j].Outcome == 0 && out[j].Path == nil && out[j].Epoch == 0 {
				continue // unanswered: its batch failed on the closed connection
			}
			if !out[j].Delivered() && out[j].ErrCode != wire.CodeDraining {
				t.Fatalf("conn %d slot %d: %+v", i, j, out[j])
			}
		}
	}
	if err := <-shut; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-closed; err != nil {
		t.Fatalf("close: %v", err)
	}
	if err := <-served; err != nil {
		t.Fatalf("serve: %v", err)
	}
	if m := s.Metrics(); m.Accepted != m.Served || m.Accepted != conns*perConn {
		t.Fatalf("accepted=%d served=%d, want %d each", m.Accepted, m.Served, conns*perConn)
	}
	for _, c := range clients {
		c.Close()
	}
	waitFor(t, "goroutines to return to baseline", func() bool { return runtime.NumGoroutine() <= base })
}

// TestWireQueuedMissDeadline: a wire miss whose DeadlineMS dies while
// it waits in the shard queue is still answered, by the worker, as a
// canceled RouteResult rather than an error frame, and counted served.
func TestWireQueuedMissDeadline(t *testing.T) {
	cube := gc.New(8, 2)
	s, held, release := heldServer(t, Config{Cube: cube, Shards: 1, CacheCapacity: -1})
	defer release()
	addr := startWire(t, s)
	first := make(chan error, 1)
	go func() {
		_, err := s.SubmitTree(context.Background(), 1, 200, core.TreeAuto)
		first <- err
	}()
	<-held

	m := NewWireMux(addr, WireDialOptions{})
	defer m.Close()
	var out WireRoute
	routed := make(chan error, 1)
	go func() {
		routed <- m.Route(context.Background(), wire.RouteReq{Src: 2, Dst: 201, DeadlineMS: 20}, &out)
	}()
	waitFor(t, "the miss to queue", func() bool { return s.Metrics().Accepted == 2 })
	time.Sleep(60 * time.Millisecond) // past the miss's deadline
	release()
	if err := <-routed; err != nil {
		t.Fatal(err)
	}
	if core.Outcome(out.Outcome) != core.OutcomeCanceled || out.ErrCode != 0 {
		t.Fatalf("queued miss: %+v, want a canceled RouteResult", out)
	}
	if err := <-first; err != nil {
		t.Fatal(err)
	}
	if mm := s.Metrics(); mm.Accepted != mm.Served || mm.Accepted != 2 {
		t.Fatalf("accepted=%d served=%d, want 2/2", mm.Accepted, mm.Served)
	}
}

func mustDial(t *testing.T, addr string) net.Conn {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	return c
}
