package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gaussiancube/internal/core"
	"gaussiancube/internal/fault"
	"gaussiancube/internal/gc"
	"gaussiancube/internal/wire"
)

// collectiveOracle is the BFS delivery oracle: the set of nodes
// reachable from root over healthy links only, under the frozen fault
// set fs (nil means fault-free). Every delivery claim a served
// collective makes is checked against this, never against the planner
// that produced it.
func collectiveOracle(cube *gc.Cube, fs *fault.Set, root gc.NodeID) []bool {
	reach := make([]bool, cube.Nodes())
	if fs != nil && fs.NodeFaulty(root) {
		return reach
	}
	reach[root] = true
	queue := []gc.NodeID{root}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for dim := uint(0); dim < uint(cube.N()); dim++ {
			if !cube.HasLinkDim(v, dim) {
				continue
			}
			if fs != nil && fs.LinkFaulty(v, dim) {
				continue
			}
			u := v ^ gc.NodeID(1<<dim)
			if !reach[u] {
				reach[u] = true
				queue = append(queue, u)
			}
		}
	}
	return reach
}

// checkCollectiveAgainstOracle validates one served collective against
// the BFS oracle for the fault set it was served under: zero false
// unreachables, zero false (or duplicate) deliveries, and the
// delivered + degraded + unreached partition exact. An all-canceled
// verdict (deadline died before planning) is exempt from reachability but
// not from conservation.
func checkCollectiveAgainstOracle(t testing.TB, cube *gc.Cube, fs *fault.Set, resp *CollectiveResponse) {
	t.Helper()
	if resp.Err != nil {
		t.Fatalf("collective errored: %v", resp.Err)
	}
	rep := resp.Report
	canceled := len(rep.Dests) > 0 && rep.Dests[0].Outcome == core.OutcomeCanceled
	var oracle []bool
	if !canceled {
		oracle = collectiveOracle(cube, fs, rep.Root)
	}
	seen := make(map[gc.NodeID]int, len(rep.Dests))
	var delivered, degraded, unreached int
	for _, st := range rep.Dests {
		seen[st.Dest]++
		if canceled {
			if st.Outcome != core.OutcomeCanceled {
				t.Fatalf("mixed canceled verdict: dest %d is %v", st.Dest, st.Outcome)
			}
			unreached++
			continue
		}
		isDelivered := st.Outcome == core.OutcomeDelivered || st.Outcome == core.OutcomeDeliveredDegraded
		wantDelivered := oracle[st.Dest] ||
			st.Dest == rep.Origin && (fs == nil || !fs.NodeFaulty(st.Dest))
		if isDelivered != wantDelivered {
			t.Fatalf("dest %d: claimed %v, oracle says reachable=%v (root %d, epoch %d)",
				st.Dest, st.Outcome, wantDelivered, rep.Root, resp.Epoch)
		}
		switch st.Outcome {
		case core.OutcomeDelivered:
			delivered++
		case core.OutcomeDeliveredDegraded:
			degraded++
		default:
			unreached++
			if st.Hops != -1 {
				t.Fatalf("unreached dest %d carries hops %d", st.Dest, st.Hops)
			}
		}
	}
	if delivered != rep.Delivered || degraded != rep.Degraded || unreached != rep.Unreached {
		t.Fatalf("counts (%d,%d,%d) != records (%d,%d,%d)",
			rep.Delivered, rep.Degraded, rep.Unreached, delivered, degraded, unreached)
	}
	if rep.Delivered+rep.Degraded+rep.Unreached != len(rep.Dests) {
		t.Fatalf("partition broken: %d+%d+%d != %d dests",
			rep.Delivered, rep.Degraded, rep.Unreached, len(rep.Dests))
	}
}

// TestServeBroadcastBasic: a fault-free served broadcast delivers to
// every node at tree depth, and the collective metrics account it.
func TestServeBroadcastBasic(t *testing.T) {
	cube := gc.New(6, 2)
	s := mustServer(t, Config{Cube: cube, Shards: 3})
	resp, err := s.SubmitBroadcast(context.Background(), 5)
	if err != nil {
		t.Fatal(err)
	}
	checkCollectiveAgainstOracle(t, cube, nil, resp)
	rep := resp.Report
	if rep.ReRooted || rep.Root != 5 || rep.Unreached != 0 || rep.Degraded != 0 {
		t.Fatalf("fault-free broadcast: %+v", rep)
	}
	if len(rep.Dests) != cube.Nodes()-1 {
		t.Fatalf("broadcast answered %d dests, want %d", len(rep.Dests), cube.Nodes()-1)
	}
	m := s.Metrics()
	if m.Collectives == nil || m.Collectives.Served != 1 || m.Collectives.Delivered != int64(cube.Nodes()-1) {
		t.Fatalf("collective metrics: %+v", m.Collectives)
	}
	if m.Accepted != m.Served || m.Served != 1 {
		t.Fatalf("conservation: accepted=%d served=%d", m.Accepted, m.Served)
	}
}

// TestServeMulticastOrderAndValidation: request order (with duplicates)
// is preserved, and out-of-range nodes are refused at submission.
func TestServeMulticastOrderAndValidation(t *testing.T) {
	cube := gc.New(6, 2)
	s := mustServer(t, Config{Cube: cube, Shards: 2})
	dests := []gc.NodeID{9, 1, 9, 63, 0}
	resp, err := s.SubmitMulticast(context.Background(), 0, dests)
	if err != nil {
		t.Fatal(err)
	}
	checkCollectiveAgainstOracle(t, cube, nil, resp)
	for i, st := range resp.Report.Dests {
		if st.Dest != dests[i] {
			t.Fatalf("record %d answers %d, want request order %d", i, st.Dest, dests[i])
		}
	}
	if _, err := s.SubmitMulticast(context.Background(), 0, []gc.NodeID{999}); err == nil {
		t.Fatal("out-of-range dest accepted")
	}
	if _, err := s.SubmitBroadcast(context.Background(), gc.NodeID(cube.Nodes())); err == nil {
		t.Fatal("out-of-range root accepted")
	}
}

// TestServeBroadcastReRooted: a faulted root re-roots via the
// closed-form rule and every delivery is marked degraded.
func TestServeBroadcastReRooted(t *testing.T) {
	cube := gc.New(6, 2)
	fs := fault.NewSet(cube)
	fs.AddNode(7)
	s := mustServer(t, Config{Cube: cube, Shards: 2, Faults: fs})
	resp, err := s.SubmitBroadcast(context.Background(), 7)
	if err != nil {
		t.Fatal(err)
	}
	checkCollectiveAgainstOracle(t, cube, s.FaultSet(), resp)
	rep := resp.Report
	if !rep.ReRooted || rep.Root == 7 {
		t.Fatalf("faulted root must re-root: %+v", rep)
	}
	if rep.Delivered != 0 {
		t.Fatalf("re-rooted deliveries must all be degraded, %d clean", rep.Delivered)
	}
	if rep.Degraded == 0 {
		t.Fatal("re-rooted broadcast delivered nothing")
	}
}

// TestServeCollectiveAdaptiveMode: collectives are whole-plan requests
// even when the unicast path runs adaptive per-hop discovery.
func TestServeCollectiveAdaptiveMode(t *testing.T) {
	cube := gc.New(6, 2)
	s := mustServer(t, Config{Cube: cube, Shards: 2, Adaptive: true})
	resp, err := s.SubmitBroadcast(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	checkCollectiveAgainstOracle(t, cube, nil, resp)
	if resp.Report.Unreached != 0 {
		t.Fatalf("adaptive-mode broadcast unreached %d", resp.Report.Unreached)
	}
}

// TestHTTPCollectiveEndpoints drives POST /broadcast and
// POST /multicast end to end: verdict documents carry the conservation
// partition, out-of-range is a 400, and re-rooting surfaces.
func TestHTTPCollectiveEndpoints(t *testing.T) {
	cube := gc.New(5, 2)
	fs := fault.NewSet(cube)
	fs.AddNode(3)
	s := mustServer(t, Config{Cube: cube, Shards: 2, Faults: fs})
	srv := httptest.NewServer(NewHandler(s))
	defer srv.Close()

	post := func(path string, body any) (*http.Response, CollectiveReply) {
		t.Helper()
		raw, _ := json.Marshal(body)
		resp, err := http.Post(srv.URL+path, "application/json", bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out CollectiveReply
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil && resp.StatusCode == http.StatusOK {
			t.Fatal(err)
		}
		return resp, out
	}

	resp, out := post("/broadcast", CollectiveRequest{Root: 3})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("broadcast status %d", resp.StatusCode)
	}
	if !out.ReRooted || out.Root == 3 || out.Origin != 3 {
		t.Fatalf("faulted-root broadcast reply: %+v", out)
	}
	if out.Delivered+out.DegradedN+out.Unreached != len(out.Dests) {
		t.Fatalf("reply partition broken: %d+%d+%d != %d",
			out.Delivered, out.DegradedN, out.Unreached, len(out.Dests))
	}

	resp, out = post("/multicast", CollectiveRequest{Root: 0, Dests: []gc.NodeID{5, 9, 5}})
	if resp.StatusCode != http.StatusOK || len(out.Dests) != 3 {
		t.Fatalf("multicast status %d reply %+v", resp.StatusCode, out)
	}
	if out.Dests[0].Dest != 5 || out.Dests[1].Dest != 9 || out.Dests[2].Dest != 5 {
		t.Fatalf("multicast reply order: %+v", out.Dests)
	}

	if resp, _ := post("/broadcast", CollectiveRequest{Root: 999}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("out-of-range root answered %d, want 400", resp.StatusCode)
	}
}

// TestWireCollective drives the binary frames end to end: broadcast,
// multicast in request order, the NoForward pin, and the error frame
// for an out-of-range root.
func TestWireCollective(t *testing.T) {
	cube := gc.New(6, 2)
	s := mustServer(t, Config{Cube: cube, Shards: 2})
	addr := startWire(t, s)
	c, err := DialWire(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	reply, err := c.Broadcast(9)
	if err != nil {
		t.Fatal(err)
	}
	if reply.Origin != 9 || reply.Root != 9 || reply.ReRooted ||
		reply.Delivered != cube.Nodes()-1 || reply.Unreached != 0 {
		t.Fatalf("wire broadcast: %+v", reply)
	}
	if reply.Delivered+reply.DegradedN+reply.Unreached != len(reply.Dests) {
		t.Fatalf("wire broadcast partition broken: %+v", reply)
	}

	dests := []gc.NodeID{1, 40, 1}
	mreply, err := c.Multicast(9, dests)
	if err != nil {
		t.Fatal(err)
	}
	if len(mreply.Dests) != 3 || mreply.Dests[0].Dest != 1 || mreply.Dests[1].Dest != 40 || mreply.Dests[2].Dest != 1 {
		t.Fatalf("wire multicast records: %+v", mreply.Dests)
	}
	if mreply.Delivered+mreply.DegradedN+mreply.Unreached != len(mreply.Dests) {
		t.Fatalf("wire multicast partition broken: %+v", mreply)
	}

	var wse *WireStatusError
	if _, err := c.Broadcast(gc.NodeID(cube.Nodes())); !errors.As(err, &wse) || wse.Code != wire.CodeBadRequest {
		t.Fatalf("out-of-range broadcast: %v", err)
	}
	// The error frame must not desync the stream.
	if _, err := c.Broadcast(0); err != nil {
		t.Fatalf("stream desynced after error frame: %v", err)
	}
}

// TestCollectiveChurnSoak is the PR's acceptance gate: concurrent
// broadcast and multicast clients race 64 copy-on-write fault epochs
// (some with deadlines short enough to die before planning), every
// answered collective is validated against the BFS delivery oracle for
// the exact epoch it was served under, and after the drain the
// accepted == served conservation law holds with the collective ladder
// accounted.
func TestCollectiveChurnSoak(t *testing.T) {
	cube := gc.New(5, 2)
	s, err := New(Config{
		Cube:            cube,
		Shards:          4,
		QueueDepth:      64,
		TraceEvery:      32,
		DefaultDeadline: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}

	const (
		clients = 6
		perC    = 150
		epochs  = 64
	)

	// snaps[e] is the frozen fault set of epoch e; the churner (the sole
	// mutator) records each one as it creates it.
	snaps := make([]*fault.Set, epochs+1)
	snaps[0] = s.FaultSet()

	type answer struct {
		resp *CollectiveResponse
	}
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		answers  []answer
		refused  atomic.Int64
		canceled atomic.Int64
	)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < perC; i++ {
				root := gc.NodeID(rng.Intn(cube.Nodes()))
				ctx := context.Background()
				var cancel context.CancelFunc
				if rng.Intn(4) == 0 {
					// A deadline short enough to kill some requests unplanned:
					// the racing-cancellation arm of the soak.
					ctx, cancel = context.WithTimeout(ctx, time.Duration(rng.Intn(300))*time.Microsecond)
				}
				var resp *CollectiveResponse
				var err error
				if rng.Intn(2) == 0 {
					resp, err = s.SubmitBroadcast(ctx, root)
				} else {
					dests := make([]gc.NodeID, 1+rng.Intn(8))
					for j := range dests {
						dests[j] = gc.NodeID(rng.Intn(cube.Nodes()))
					}
					resp, err = s.SubmitMulticast(ctx, root, dests)
				}
				if cancel != nil {
					cancel()
				}
				switch {
				case errors.Is(err, ErrBackpressure) || errors.Is(err, ErrDraining):
					refused.Add(1)
				case err != nil:
					t.Errorf("submit: %v", err)
					return
				default:
					if len(resp.Report.Dests) > 0 && resp.Report.Dests[0].Outcome == core.OutcomeCanceled {
						canceled.Add(1)
					}
					mu.Lock()
					answers = append(answers, answer{resp: resp})
					mu.Unlock()
				}
			}
		}(int64(4000 + c))
	}

	churn := make(chan struct{})
	go func() {
		defer close(churn)
		rng := rand.New(rand.NewSource(99))
		for e := 1; e <= epochs; e++ {
			node := gc.NodeID(rng.Intn(cube.Nodes()))
			op := OpInject
			if s.FaultSet().NodeFaulty(node) {
				op = OpRepair
			}
			epoch, _, err := s.ApplyFaults([]FaultOp{{Op: op, Kind: KindNode, Node: node}})
			if err != nil {
				t.Errorf("churn step %d: %v", e, err)
				return
			}
			snaps[epoch] = s.FaultSet()
			time.Sleep(200 * time.Microsecond)
		}
	}()

	wg.Wait()
	<-churn
	ctx, cancelDrain := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancelDrain()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}

	// Oracle pass: every answered collective, against the fault set of
	// the exact epoch it reports.
	for _, a := range answers {
		e := a.resp.Epoch
		if e >= uint64(len(snaps)) || snaps[e] == nil {
			t.Fatalf("answer at unknown epoch %d", e)
		}
		checkCollectiveAgainstOracle(t, cube, snaps[e], a.resp)
	}

	m := s.Metrics()
	if int64(len(answers)) != m.Accepted || m.Served != m.Accepted {
		t.Fatalf("conservation broken: answered=%d accepted=%d served=%d",
			len(answers), m.Accepted, m.Served)
	}
	if m.Rejected != refused.Load() {
		t.Fatalf("rejected=%d, clients saw %d refusals", m.Rejected, refused.Load())
	}
	if m.Collectives == nil || m.Collectives.Served != m.Served {
		t.Fatalf("collective ladder: %+v of %d served", m.Collectives, m.Served)
	}
	var ladder int64
	for _, v := range m.Outcomes {
		ladder += v
	}
	if ladder+m.Errors != m.Served {
		t.Fatalf("outcome ladder %d + errors %d != served %d", ladder, m.Errors, m.Served)
	}
	if s.Epoch() != epochs {
		t.Fatalf("epoch %d after %d churn steps", s.Epoch(), epochs)
	}
	t.Logf("soak: %d answered (%d canceled in flight), %d refused, %d epochs",
		len(answers), canceled.Load(), refused.Load(), epochs)
}

// BenchmarkServeBroadcast measures served broadcasts per second on
// GC(8, 2^2) with parallel submitters — the collective throughput
// reference for BENCH_9.
func BenchmarkServeBroadcast(b *testing.B) {
	cube := gc.New(8, 2)
	s, err := New(Config{Cube: cube, Shards: 4, QueueDepth: 1024})
	if err != nil {
		b.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	}()
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		root := gc.NodeID(0)
		for pb.Next() {
			resp, err := s.SubmitBroadcast(context.Background(), root)
			if err != nil && !errors.Is(err, ErrBackpressure) {
				b.Fatal(err)
			}
			if resp != nil && resp.Report.Unreached != 0 {
				b.Fatalf("unreached %d", resp.Report.Unreached)
			}
			root = (root + 37) & gc.NodeID(cube.Nodes()-1)
		}
	})
}
