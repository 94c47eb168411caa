package serve

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gaussiancube/internal/core"
	"gaussiancube/internal/fault"
	"gaussiancube/internal/gc"
)

func mustServer(t testing.TB, cfg Config) *Server {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	return s
}

// TestSubmitBasic: fault-free requests deliver on shortest paths, in
// both planner and adaptive mode, and metrics account for each.
func TestSubmitBasic(t *testing.T) {
	cube := gc.New(8, 2)
	for _, adaptive := range []bool{false, true} {
		s := mustServer(t, Config{Cube: cube, Shards: 3, Adaptive: adaptive})
		for src := gc.NodeID(0); src < 32; src += 5 {
			dst := gc.NodeID(cube.Nodes()-1) - src
			r, err := s.SubmitTree(context.Background(), src, dst, core.TreeAuto)
			if err != nil {
				t.Fatalf("adaptive=%v SubmitTree(%d,%d): %v", adaptive, src, dst, err)
			}
			if r.Err != nil || r.Report.Outcome != core.OutcomeDelivered {
				t.Fatalf("adaptive=%v: %+v", adaptive, r)
			}
			if r.Report.Hops != cube.Distance(src, dst) {
				t.Fatalf("adaptive=%v: %d hops, want distance %d", adaptive, r.Report.Hops, cube.Distance(src, dst))
			}
			if r.Epoch != 0 {
				t.Fatalf("epoch %d on an unmutated server", r.Epoch)
			}
		}
		m := s.Metrics()
		if m.Accepted != m.Served || m.Latency.Stats().Count() != m.Served {
			t.Fatalf("conservation: accepted=%d served=%d latency-count=%d",
				m.Accepted, m.Served, m.Latency.Stats().Count())
		}
	}
}

// TestSubmitValidation: out-of-range nodes are submission errors;
// faulty endpoints are request-level errors with the sentinel.
func TestSubmitValidation(t *testing.T) {
	cube := gc.New(6, 2)
	fs := fault.NewSet(cube)
	fs.AddNode(7)
	s := mustServer(t, Config{Cube: cube, Faults: fs})

	if _, err := s.SubmitTree(context.Background(), 0, gc.NodeID(cube.Nodes()), core.TreeAuto); err == nil {
		t.Fatal("out-of-range dst must be rejected at submission")
	}
	r, err := s.SubmitTree(context.Background(), 0, 7, core.TreeAuto)
	if err != nil {
		t.Fatalf("faulty endpoint must be request-level: %v", err)
	}
	if !errors.Is(r.Err, core.ErrFaultyEndpoint) {
		t.Fatalf("Response.Err = %v, want ErrFaultyEndpoint", r.Err)
	}
}

// TestCacheAcrossEpochs: planner-mode repeats hit the shard cache; a
// fault mutation bumps the epoch and invalidates it.
func TestCacheAcrossEpochs(t *testing.T) {
	cube := gc.New(8, 2)
	s := mustServer(t, Config{Cube: cube, Shards: 2, CacheCapacity: 1024})

	first, err := s.SubmitTree(context.Background(), 3, 200, core.TreeAuto)
	if err != nil || first.CacheHit {
		t.Fatalf("first route: %+v, %v", first, err)
	}
	second, err := s.SubmitTree(context.Background(), 3, 200, core.TreeAuto)
	if err != nil || !second.CacheHit {
		t.Fatalf("repeat route must hit the cache: %+v, %v", second, err)
	}
	if second.Report.Hops != first.Report.Hops || second.Report.Outcome != first.Report.Outcome {
		t.Fatalf("cached verdict diverges: %+v vs %+v", second.Report, first.Report)
	}

	epoch, n, err := s.ApplyFaults([]FaultOp{{Op: OpInject, Kind: KindNode, Node: 101}})
	if err != nil || epoch != 1 || n != 1 {
		t.Fatalf("ApplyFaults: epoch=%d n=%d err=%v", epoch, n, err)
	}
	third, err := s.SubmitTree(context.Background(), 3, 200, core.TreeAuto)
	if err != nil || third.CacheHit {
		t.Fatalf("post-mutation route must miss the invalidated cache: %+v, %v", third, err)
	}
	if third.Epoch != 1 {
		t.Fatalf("epoch %d, want 1", third.Epoch)
	}
}

// TestCacheWorkingSetServedFromFastPath: a working set that fits the
// route cache (the shape of a warmed hot set: 4096 uniform pairs on
// GC(10,2^3) over two shards) is stored whole on its first pass, so the
// doorkeeper never engages and the second pass is answered entirely on
// the fast path with the planned paths.
func TestCacheWorkingSetServedFromFastPath(t *testing.T) {
	cube := gc.New(10, 3)
	s := mustServer(t, Config{Cube: cube, Shards: 2})
	rng := rand.New(rand.NewSource(1))
	type pair struct{ s, d gc.NodeID }
	set := make([]pair, 4096)
	planned := make([][]gc.NodeID, len(set))
	for i := range set {
		for set[i].s == set[i].d {
			set[i] = pair{gc.NodeID(rng.Intn(cube.Nodes())), gc.NodeID(rng.Intn(cube.Nodes()))}
		}
		r, err := s.SubmitTree(context.Background(), set[i].s, set[i].d, core.TreeAuto)
		if err != nil || r.Err != nil {
			t.Fatalf("warm %v: %v %v", set[i], err, r.Err)
		}
		planned[i] = r.Report.Path
	}
	for i, p := range set {
		ans, ok := s.FastRouteTree(p.s, p.d, core.TreeAuto)
		if !ok {
			t.Fatalf("second pass: pair %d %v missed the fast path", i, p)
		}
		if !slices.Equal(ans.Path, planned[i]) {
			t.Fatalf("pair %v: cached path %v, planned %v", p, ans.Path, planned[i])
		}
	}
	for _, sh := range s.Metrics().PerShard {
		if sh.CacheDeclined != 0 {
			t.Fatalf("shard %d declined %d stores of a working set that fits", sh.Shard, sh.CacheDeclined)
		}
	}
}

// TestCacheAllMissStreamDeclined: a uniform stream of pairs that never
// recur keeps the cache within its bound, and once the cache is full
// the doorkeeper declines nearly every store instead of evicting for
// it.
func TestCacheAllMissStreamDeclined(t *testing.T) {
	const capacity, requests = 256, 8000
	cube := gc.New(10, 2)
	s := mustServer(t, Config{Cube: cube, Shards: 1, CacheCapacity: capacity})
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < requests; i++ {
		src, dst := gc.NodeID(rng.Intn(cube.Nodes())), gc.NodeID(rng.Intn(cube.Nodes()))
		r, err := s.SubmitTree(context.Background(), src, dst, core.TreeAuto)
		if err != nil || r.Err != nil || r.Report.Outcome != core.OutcomeDelivered {
			t.Fatalf("route (%d,%d): %v %+v", src, dst, err, r)
		}
	}
	if n := s.shards[0].cache.Len(); n > capacity {
		t.Fatalf("cache holds %d routes, bound %d", n, capacity)
	}
	sh := s.Metrics().PerShard[0]
	if sh.CacheHits+sh.CacheMisses != requests {
		t.Fatalf("hits %d + misses %d != %d requests", sh.CacheHits, sh.CacheMisses, requests)
	}
	// Each miss is planned and offered to the cache; all but the first
	// fill (and doorkeeper false positives) must be declined.
	if sh.CacheDeclined < sh.CacheMisses*8/10 {
		t.Fatalf("declined %d of %d stores, want most", sh.CacheDeclined, sh.CacheMisses)
	}
}

// TestApplyFaultsInvalidatesBeforePublish deterministically pins the
// swap invariant of ApplyFaults: no submitter is served an old-epoch
// path labelled with the new epoch. Each shard's route cache is
// re-stamped (new fingerprint, new generation) BEFORE the new router
// state is published, and only then are the old generation's slots
// nilled. The cache's stamp-to-nil window, when old entries still sit
// in their slots, is exposed via a test hook; a FastRouteTree inside it
// must miss. Two guards make it miss: the shard state it loads still
// carries the old fingerprint, which no longer matches the stamp, and
// the old entries' generation no longer matches either. With the swap
// reversed (publish first, invalidate second) and hits checking only
// the fingerprint, the probe hits an old entry and labels an old-epoch
// path with the new epoch.
func TestApplyFaultsInvalidatesBeforePublish(t *testing.T) {
	cube := gc.New(8, 2)
	s := mustServer(t, Config{Cube: cube, Shards: 1, CacheCapacity: 1024})

	if _, err := s.SubmitTree(context.Background(), 3, 200, core.TreeAuto); err != nil {
		t.Fatal(err)
	}
	if ans, ok := s.FastRouteTree(3, 200, core.TreeAuto); !ok || len(ans.Path) == 0 {
		t.Fatal("warm pair must be a fast-path hit before the swap")
	}

	type probe struct {
		ok    bool
		epoch uint64
	}
	var probes []probe
	testHookInvalidateAfterStamp = func() {
		ans, ok := s.FastRouteTree(3, 200, core.TreeAuto)
		probes = append(probes, probe{ok, ans.Epoch})
	}
	defer func() { testHookInvalidateAfterStamp = nil }()

	epoch, _, err := s.ApplyFaults([]FaultOp{{Op: OpInject, Kind: KindNode, Node: 101}})
	if err != nil {
		t.Fatal(err)
	}
	if len(probes) == 0 {
		t.Fatal("hook never fired: the swap did not re-stamp the cache")
	}
	for _, p := range probes {
		if p.ok && p.epoch == epoch {
			t.Fatalf("stale cache entry served inside the stamp-to-clear window labeled new epoch %d", epoch)
		}
	}
}

// TestApplyFaultsValidation: a batch with any bad op is rejected whole.
func TestApplyFaultsValidation(t *testing.T) {
	cube := gc.New(6, 2)
	s := mustServer(t, Config{Cube: cube})
	bad := [][]FaultOp{
		{{Op: "explode", Node: 1}},
		{{Op: OpInject, Kind: KindNode, Node: gc.NodeID(cube.Nodes())}},
		{{Op: OpInject, Kind: "edge", Node: 1}},
		{{Op: OpInject, Kind: KindNode, Node: 1}, {Op: "explode", Node: 2}}, // atomicity
	}
	for i, ops := range bad {
		if _, _, err := s.ApplyFaults(ops); err == nil {
			t.Fatalf("batch %d must be rejected", i)
		}
	}
	if s.Epoch() != 0 || s.FaultSet().Count() != 0 {
		t.Fatalf("rejected batches must not mutate: epoch=%d faults=%d", s.Epoch(), s.FaultSet().Count())
	}

	if _, n, err := s.ApplyFaults([]FaultOp{
		{Op: OpInject, Kind: KindNode, Node: 9},
		{Op: OpInject, Kind: KindNode, Node: 12},
	}); err != nil || n != 2 {
		t.Fatalf("good batch: n=%d err=%v", n, err)
	}
	if _, n, err := s.ApplyFaults([]FaultOp{{Op: OpClear}}); err != nil || n != 0 {
		t.Fatalf("clear: n=%d err=%v", n, err)
	}
}

// TestExpiredDeadlineAnswered: a request whose context is already dead
// is still answered (OutcomeCanceled), keeping accepted == served.
func TestExpiredDeadlineAnswered(t *testing.T) {
	cube := gc.New(8, 2)
	s := mustServer(t, Config{Cube: cube, Shards: 1})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r, err := s.SubmitTree(ctx, 1, 200, core.TreeAuto)
	if err != nil {
		t.Fatalf("canceled ctx must still be served: %v", err)
	}
	if r.Report.Outcome != core.OutcomeCanceled {
		t.Fatalf("outcome %v, want canceled", r.Report.Outcome)
	}
	m := s.Metrics()
	if m.Accepted != m.Served {
		t.Fatalf("accepted=%d served=%d", m.Accepted, m.Served)
	}
}

// TestBackpressure: with QueueDepth requests held mid-plan on a
// shard, the next submission is refused with ErrBackpressure and
// counted as rejected, never planned.
func TestBackpressure(t *testing.T) {
	entered := make(chan struct{}, 8)
	release := make(chan struct{})
	testHookProcess = func() {
		entered <- struct{}{}
		<-release
	}
	defer func() { testHookProcess = nil }()

	cube := gc.New(8, 2)
	s := mustServer(t, Config{Cube: cube, Shards: 1, QueueDepth: 2})

	// Distinct destinations: each request plans on its own, and none
	// can be answered from another's cached plan.
	var wg sync.WaitGroup
	results := make(chan error, 2)
	submit := func(dst gc.NodeID) {
		defer wg.Done()
		_, err := s.SubmitTree(context.Background(), 1, dst, core.TreeAuto)
		results <- err
	}
	wg.Add(2)
	go submit(200)
	go submit(201)
	<-entered
	<-entered // both held mid-plan: the shard has 2 of 2 in flight

	if _, err := s.SubmitTree(context.Background(), 1, 203, core.TreeAuto); !errors.Is(err, ErrBackpressure) {
		t.Fatalf("3rd submit: err=%v, want ErrBackpressure", err)
	}
	close(release)
	wg.Wait()
	close(results)
	for err := range results {
		if err != nil {
			t.Fatalf("accepted submit failed: %v", err)
		}
	}
	m := s.Metrics()
	if m.Rejected != 1 || m.Accepted != 2 || m.Served != 2 {
		t.Fatalf("accepted=%d served=%d rejected=%d, want 2/2/1", m.Accepted, m.Served, m.Rejected)
	}
}

// TestSubmitPlansOnCaller: SubmitTree and the collectives plan on the
// goroutine that submits them, so on a one-shard server two unicast
// misses and a broadcast are inside their steps at the same time.
// Shutdown, begun while all three are held there, returns only once
// each is answered, and refuses what is submitted after it began.
func TestSubmitPlansOnCaller(t *testing.T) {
	entered := make(chan struct{}, 3)
	release := make(chan struct{})
	testHookProcess = func() {
		entered <- struct{}{}
		<-release
	}
	defer func() { testHookProcess = nil }()

	s := mustServer(t, Config{Cube: gc.New(8, 2), Shards: 1})
	ctx := context.Background()
	var wg sync.WaitGroup
	errs := make(chan error, 3)
	for _, dst := range []gc.NodeID{200, 201} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := s.SubmitTree(ctx, 1, dst, core.TreeAuto)
			errs <- err
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		r, err := s.SubmitBroadcast(ctx, 1)
		if err == nil {
			err = r.Err
		}
		errs <- err
	}()
	timeout := time.After(5 * time.Second)
	for held := 0; held < 3; held++ {
		select {
		case <-entered:
		case <-timeout:
			t.Fatalf("%d of 3 requests inside their steps at once, want 3", held)
		}
	}

	shut := make(chan error, 1)
	go func() { shut <- s.Shutdown(ctx) }()
	waitFor(t, "the drain to begin", s.Draining)
	select {
	case err := <-shut:
		t.Fatalf("Shutdown returned (%v) with 3 requests unanswered", err)
	case <-time.After(20 * time.Millisecond):
	}
	if _, err := s.SubmitTree(ctx, 1, 202, core.TreeAuto); !errors.Is(err, ErrDraining) {
		t.Fatalf("submit during the drain: err=%v, want ErrDraining", err)
	}
	close(release)
	if err := <-shut; err != nil {
		t.Fatal(err)
	}
	if m := s.Metrics(); m.Accepted != 3 || m.Served != 3 {
		t.Fatalf("after Shutdown: accepted=%d served=%d, want 3/3", m.Accepted, m.Served)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatalf("held request failed: %v", err)
		}
	}
	if _, err := s.SubmitTree(ctx, 1, 203, core.TreeAuto); !errors.Is(err, ErrDraining) {
		t.Fatalf("submit after Shutdown: err=%v, want ErrDraining", err)
	}
}

// TestShutdownAnswersQueued: every request accepted before Shutdown is
// answered during the drain; later submissions get ErrDraining.
func TestShutdownAnswersQueued(t *testing.T) {
	cube := gc.New(8, 2)
	s, err := New(Config{Cube: cube, Shards: 2, QueueDepth: 256})
	if err != nil {
		t.Fatal(err)
	}
	const inflight = 64
	var wg sync.WaitGroup
	var answered atomic.Int64
	for i := 0; i < inflight; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			src := gc.NodeID(i % cube.Nodes())
			dst := gc.NodeID((i * 37) % cube.Nodes())
			r, err := s.SubmitTree(context.Background(), src, dst, core.TreeAuto)
			if errors.Is(err, ErrDraining) {
				return // refused up front: acceptable, not a drop
			}
			if err != nil {
				t.Errorf("submit %d: %v", i, err)
				return
			}
			if r.Report == nil && r.Err == nil {
				t.Errorf("submit %d: empty response", i)
				return
			}
			answered.Add(1)
		}(i)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	wg.Wait()

	if _, err := s.SubmitTree(context.Background(), 1, 2, core.TreeAuto); !errors.Is(err, ErrDraining) {
		t.Fatalf("post-drain submit: err=%v, want ErrDraining", err)
	}
	m := s.Metrics()
	if answered.Load() != m.Accepted || m.Served != m.Accepted {
		t.Fatalf("drop during drain: answered=%d accepted=%d served=%d",
			answered.Load(), m.Accepted, m.Served)
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown must be idempotent: %v", err)
	}
}

// TestSoakConservation is the PR's headline invariant under -race:
// many concurrent clients race a churning fault timeline, and at drain
// every accepted request was answered exactly once — the latency
// histogram, the served counter and the client-side tally all agree.
func TestSoakConservation(t *testing.T) {
	cube := gc.New(8, 2)
	s, err := New(Config{
		Cube:            cube,
		Shards:          4,
		QueueDepth:      64,
		TraceEvery:      16,
		CacheCapacity:   2048,
		DefaultDeadline: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}

	const (
		clients = 8
		perC    = 300
		epochs  = 48
	)
	var (
		wg        sync.WaitGroup
		answered  atomic.Int64
		refused   atomic.Int64
		delivered atomic.Int64
	)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < perC; i++ {
				src := gc.NodeID(rng.Intn(cube.Nodes()))
				dst := gc.NodeID(rng.Intn(cube.Nodes()))
				r, err := s.SubmitTree(context.Background(), src, dst, core.TreeAuto)
				switch {
				case errors.Is(err, ErrBackpressure) || errors.Is(err, ErrDraining):
					refused.Add(1)
				case err != nil:
					t.Errorf("submit: %v", err)
					return
				default:
					answered.Add(1)
					if r.Err == nil && !r.Report.Outcome.Undeliverable() &&
						r.Report.Outcome != core.OutcomeCanceled {
						delivered.Add(1)
					}
				}
			}
		}(int64(1000 + c))
	}

	// Fault churner: toggles nodes through copy-on-write epochs while
	// the clients are in flight.
	churn := make(chan struct{})
	go func() {
		defer close(churn)
		rng := rand.New(rand.NewSource(77))
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
		t.Fatalf("drain: %v", err)
	}

	m := s.Metrics()
	if got := answered.Load(); got != m.Accepted || m.Served != m.Accepted {
		t.Fatalf("conservation broken: answered=%d accepted=%d served=%d", got, m.Accepted, m.Served)
	}
	if m.Latency.Stats().Count() != m.Served {
		t.Fatalf("latency histogram count %d != served %d", m.Latency.Stats().Count(), m.Served)
	}
	if m.Rejected != refused.Load() {
		t.Fatalf("rejected=%d, clients saw %d refusals", m.Rejected, refused.Load())
	}
	var ladder int64
	for _, v := range m.Outcomes {
		ladder += v
	}
	if ladder+m.Errors != m.Served {
		t.Fatalf("outcome ladder %d + errors %d != served %d", ladder, m.Errors, m.Served)
	}
	if delivered.Load() == 0 {
		t.Fatal("soak delivered nothing")
	}
	if s.Epoch() != epochs {
		t.Fatalf("epoch %d after %d churn steps", s.Epoch(), epochs)
	}
}

// BenchmarkServeBatch measures end-to-end served routes per second on
// GC(10, 2^3) with parallel submitters — the PR's throughput
// acceptance gate (>= 100k req/s).
func BenchmarkServeBatch(b *testing.B) {
	runServeBatchBench(b, Config{Cube: gc.New(10, 3), QueueDepth: 1024, CacheCapacity: 1 << 16})
}

// runServeBatchBench is the shared body of BenchmarkServeBatch and its
// journal-on variants (journal_bench_test.go).
func runServeBatchBench(b *testing.B, cfg Config) {
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
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		rng := rand.New(rand.NewSource(42))
		for pb.Next() {
			src := gc.NodeID(rng.Intn(cube.Nodes()))
			dst := gc.NodeID(rng.Intn(cube.Nodes()))
			for {
				_, err := s.SubmitTree(context.Background(), src, dst, core.TreeAuto)
				if !errors.Is(err, ErrBackpressure) {
					if err != nil {
						b.Error(err)
					}
					break
				}
			}
		}
	})
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "routes/s")
	m := s.Metrics()
	if m.Served < int64(b.N) {
		b.Fatalf("served %d < %d submitted", m.Served, b.N)
	}
}

// BenchmarkFastRouteTreeParallel measures FastRouteTree alone: parallel
// callers hitting a warmed route cache on GC(10,2^3), each hit
// published at once. A hit allocates nothing.
func BenchmarkFastRouteTreeParallel(b *testing.B) {
	cube := gc.New(10, 3)
	s := mustServer(b, Config{Cube: cube, CacheCapacity: 1 << 16})
	rng := rand.New(rand.NewSource(42))
	pairs := make([][2]gc.NodeID, 4096)
	for i := range pairs {
		pairs[i] = [2]gc.NodeID{gc.NodeID(rng.Intn(cube.Nodes())), gc.NodeID(rng.Intn(cube.Nodes()))}
		if _, err := s.SubmitTree(context.Background(), pairs[i][0], pairs[i][1], core.TreeAuto); err != nil {
			b.Fatal(err)
		}
	}
	var seed atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := int(seed.Add(1)) * 977
		for pb.Next() {
			p := pairs[i%len(pairs)]
			i++
			if _, ok := s.FastRouteTree(p[0], p[1], core.TreeAuto); !ok {
				b.Error("warmed pair missed")
				return
			}
		}
	})
}
