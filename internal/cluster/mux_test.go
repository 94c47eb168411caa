package cluster

import (
	"context"
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"gaussiancube/internal/core"
	"gaussiancube/internal/gc"
	"gaussiancube/internal/serve"
	"gaussiancube/internal/wire"
)

// ---------------------------------------------------------------------
// Scripted peers: one real member whose three peers are fakes at the
// far end of net.Pipe, so a test decides exactly when and how each
// forwarded request is answered.

// fakeConn is one dialed connection to a scripted peer. next hides the
// gossip pulls (answered as an in-sync peer) and returns route
// requests only.
type fakeConn struct {
	net.Conn
	epoch uint64 // stamped on every answer, naming the peer that gave it
}

func (c *fakeConn) next() (uint64, wire.RouteReq, error) {
	var hdr [wire.HeaderSize]byte
	for {
		if _, err := io.ReadFull(c, hdr[:]); err != nil {
			return 0, wire.RouteReq{}, err
		}
		h, err := wire.ParseHeader(hdr[:])
		if err != nil {
			return 0, wire.RouteReq{}, err
		}
		p := make([]byte, h.Len)
		if _, err := io.ReadFull(c, p); err != nil {
			return 0, wire.RouteReq{}, err
		}
		switch h.Type {
		case wire.TypeEpochSyncReq:
			var req wire.EpochSyncReq
			if err := wire.DecodeEpochSyncReq(p, &req); err != nil {
				return 0, wire.RouteReq{}, err
			}
			resp := wire.EpochSyncResp{Epoch: req.Epoch, FP: req.FP}
			if _, err := c.Write(wire.AppendEpochSyncResp(nil, h.ID, &resp)); err != nil {
				return 0, wire.RouteReq{}, err
			}
		case wire.TypeRouteReq:
			var req wire.RouteReq
			return h.ID, req, wire.DecodeRouteReq(p, &req)
		default:
			return 0, wire.RouteReq{}, errors.New("fake peer: unexpected frame")
		}
	}
}

// answer replies with the two-node path src -> dst and this peer's
// epoch stamp.
func (c *fakeConn) answer(id uint64, req wire.RouteReq) error {
	res := wire.RouteResult{Outcome: uint8(core.OutcomeDelivered), Hops: 1, Epoch: c.epoch,
		Path: []gc.NodeID{req.Src, req.Dst}}
	_, err := c.Write(wire.AppendRouteResult(nil, id, &res))
	return err
}

// echo answers every route request as it arrives.
func echo(c *fakeConn) {
	for {
		id, req, err := c.next()
		if err != nil {
			return
		}
		if err := c.answer(id, req); err != nil {
			return
		}
	}
}

// fakePeer is one scripted member. script is read at dial time, so a
// test can change how new connections behave between phases.
type fakePeer struct {
	epoch uint64

	mu     sync.Mutex
	dials  int
	refuse bool
	script func(c *fakeConn)
	conns  []net.Conn
}

func (p *fakePeer) setScript(s func(c *fakeConn)) {
	p.mu.Lock()
	p.script = s
	p.mu.Unlock()
}

func (p *fakePeer) dialCount() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.dials
}

// cut refuses every later dial and hangs up the live connections.
func (p *fakePeer) cut() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.refuse = true
	for _, c := range p.conns {
		c.Close()
	}
}

func (p *fakePeer) dial() (net.Conn, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.refuse {
		return nil, errors.New("fake peer: refused")
	}
	p.dials++
	client, server := net.Pipe()
	p.conns = append(p.conns, server)
	fc := &fakeConn{Conn: server, epoch: p.epoch}
	script := p.script
	go func() {
		defer server.Close()
		script(fc)
	}()
	return client, nil
}

// scriptedCluster starts a real member A owning class 0 of GC(6,2^2),
// with scripted peers B, C and D owning classes 1, 2 and 3 in that ring
// order. Each peer stamps its answers with epoch 100 + its index, and
// echoes until a test gives it a script. Gossip runs once at start.
func scriptedCluster(t *testing.T, forwardTimeout time.Duration) (*Node, []*fakePeer) {
	t.Helper()
	cube := gc.New(6, 2)
	addrs := []string{"a:1", "b:1", "c:1", "d:1"}
	members := make([]Member, len(addrs))
	peers := make(map[string]*fakePeer, len(addrs)-1)
	fakes := make([]*fakePeer, len(addrs))
	for i, a := range addrs {
		members[i] = Member{Addr: a, Lo: i, Hi: i}
		if i > 0 {
			fakes[i] = &fakePeer{epoch: uint64(100 + i), script: echo}
			peers[a] = fakes[i]
		}
	}
	topo, err := New(cube, members)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := serve.New(serve.Config{Cube: cube, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	node, err := Start(Config{
		Server:         srv,
		Topology:       topo,
		Self:           addrs[0],
		GossipInterval: time.Hour,
		ForwardTimeout: forwardTimeout,
		Dial: func(addr string) (net.Conn, error) {
			p, ok := peers[addr]
			if !ok {
				return nil, errors.New("fake peer: unknown address")
			}
			return p.dial()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		node.Close()
		for _, p := range fakes[1:] {
			p.cut()
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	})
	waitFor(t, 5*time.Second, "first gossip round", func() bool {
		for _, p := range node.snapshot().PerPeer {
			if !p.Reachable {
				return false
			}
		}
		return true
	})
	return node, fakes
}

// classOne returns the i-th node of ending class 1 (owned by B).
func classOne(i int) gc.NodeID { return gc.NodeID(4*i + 1) }

// forwardAll runs Forward for sources classOne(0..calls-1)
// concurrently.
func forwardAll(node *Node, calls int) ([]*serve.Response, []error) {
	resps := make([]*serve.Response, calls)
	errs := make([]error, calls)
	var wg sync.WaitGroup
	for i := 0; i < calls; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resps[i], errs[i] = node.Forward(context.Background(), classOne(i), gc.NodeID(60-i), core.TreeAuto)
		}(i)
	}
	wg.Wait()
	return resps, errs
}

// checkAnsweredBy requires resp to be the scripted answer for (src,
// dst) from the peer stamping epoch.
func checkAnsweredBy(t *testing.T, i int, resp *serve.Response, err error, src, dst gc.NodeID, epoch uint64) {
	t.Helper()
	if err != nil {
		t.Fatalf("forward %d: %v", i, err)
	}
	if resp.Err != nil || resp.Report == nil {
		t.Fatalf("forward %d: %+v", i, resp)
	}
	p := resp.Report.Path
	if resp.Epoch != epoch || len(p) != 2 || p[0] != src || p[1] != dst {
		t.Fatalf("forward %d: epoch %d path %v, want epoch %d path [%d %d]", i, resp.Epoch, p, epoch, src, dst)
	}
}

// TestClusterMuxPipelinedForwards: B answers nothing until it has read
// 8 forwarded requests, then replies in reverse order. All 8 concurrent
// forwards must come back from B with their own answers inside the
// forward timeout — one peer round trip at a time would time every
// one of them out onto the successor.
func TestClusterMuxPipelinedForwards(t *testing.T) {
	const calls = 8
	node, fakes := scriptedCluster(t, time.Second)
	fakes[1].setScript(func(c *fakeConn) {
		var ids []uint64
		var reqs []wire.RouteReq
		for len(ids) < calls {
			id, req, err := c.next()
			if err != nil {
				return
			}
			ids, reqs = append(ids, id), append(reqs, req)
		}
		for i := calls - 1; i >= 0; i-- {
			if err := c.answer(ids[i], reqs[i]); err != nil {
				return
			}
		}
		echo(c)
	})

	start := time.Now()
	resps, errs := forwardAll(node, calls)
	if took := time.Since(start); took >= time.Second {
		t.Fatalf("8 pipelined forwards took %v, past the 1s forward timeout", took)
	}
	for i := range resps {
		checkAnsweredBy(t, i, resps[i], errs[i], classOne(i), gc.NodeID(60-i), fakes[1].epoch)
	}
	if r, f := node.forwardRetries.Value(), node.forwardFallbacks.Value(); r != 0 || f != 0 {
		t.Fatalf("retries %d fallbacks %d, want 0 0", r, f)
	}
	if got := node.forwarded.Value(); got != calls {
		t.Fatalf("forwarded %d, want %d", got, calls)
	}
}

// TestClusterMuxTornConnection: B hangs up with 4 forwards in flight.
// Every one fails over to the successor C (forward_retries ticks per
// call), the next forward redials B through Dial, and when B tears
// again with C cut off too, the forward takes the degraded local
// fallback.
func TestClusterMuxTornConnection(t *testing.T) {
	const calls = 4
	node, fakes := scriptedCluster(t, 2*time.Second)
	b, c := fakes[1], fakes[2]
	tearAfter := func(n int) func(*fakeConn) {
		return func(fc *fakeConn) {
			for i := 0; i < n; i++ {
				if _, _, err := fc.next(); err != nil {
					return
				}
			}
		} // returning closes the connection
	}
	baseDials := b.dialCount() // the gossip client's connection

	// Phase 1: the successor rung.
	b.setScript(tearAfter(calls))
	resps, errs := forwardAll(node, calls)
	for i := range resps {
		checkAnsweredBy(t, i, resps[i], errs[i], classOne(i), gc.NodeID(60-i), c.epoch)
	}
	if got := node.forwardRetries.Value(); got != calls {
		t.Fatalf("forward_retries %d, want %d", got, calls)
	}
	if got := b.dialCount() - baseDials; got != 1 {
		t.Fatalf("forwarding dialed B %d times, want 1 shared connection", got)
	}

	// Phase 2: the next forward redials B.
	b.setScript(echo)
	resp, err := node.Forward(context.Background(), classOne(5), 7, core.TreeAuto)
	checkAnsweredBy(t, 5, resp, err, classOne(5), 7, b.epoch)
	if got := b.dialCount() - baseDials; got != 2 {
		t.Fatalf("B dialed %d times after the tear, want 2", got)
	}

	// Phase 3: the fallback rung. B tears again and C is cut off, so
	// the ladder runs out on D's side of the ring and A computes the
	// route itself, degrade-marked.
	b.setScript(tearAfter(1))
	b.cut()
	b.mu.Lock()
	b.refuse = false // cut hangs up B's live connection; redials still work
	b.mu.Unlock()
	c.cut()
	src, dst := classOne(6), gc.NodeID(40)
	resp, err = node.Forward(context.Background(), src, dst, core.TreeAuto)
	if err != nil || resp.Err != nil || resp.Report == nil {
		t.Fatalf("fallback forward: %v %+v", err, resp)
	}
	if resp.Report.Outcome != core.OutcomeDeliveredDegraded {
		t.Fatalf("fallback outcome %v, want delivered-degraded", resp.Report.Outcome)
	}
	if p := resp.Report.Path; len(p) == 0 || p[0] != src || p[len(p)-1] != dst {
		t.Fatalf("fallback path %v", p)
	}
	if got := node.forwardFallbacks.Value(); got != 1 {
		t.Fatalf("forward_fallbacks %d, want 1", got)
	}
	if got := node.forwardRetries.Value(); got != calls+1 {
		t.Fatalf("forward_retries %d, want %d", got, calls+1)
	}
}

// TestClusterMuxErrorFrames: the owner's error frames map back onto
// the Server's errors — backpressure and draining as the submit error,
// a faulty endpoint as the response's error — without touching the
// failover ladder.
func TestClusterMuxErrorFrames(t *testing.T) {
	node, fakes := scriptedCluster(t, 2*time.Second)
	codes := map[gc.NodeID]uint16{
		classOne(0): wire.CodeBackpressure,
		classOne(1): wire.CodeFaultyNode,
		classOne(2): wire.CodeDraining,
	}
	fakes[1].setScript(func(c *fakeConn) {
		for {
			id, req, err := c.next()
			if err != nil {
				return
			}
			if _, err := c.Write(wire.AppendError(nil, id, codes[req.Src], "scripted")); err != nil {
				return
			}
		}
	})
	ctx := context.Background()
	if _, err := node.Forward(ctx, classOne(0), 9, core.TreeAuto); !errors.Is(err, serve.ErrBackpressure) {
		t.Fatalf("backpressure frame: err = %v, want ErrBackpressure", err)
	}
	resp, err := node.Forward(ctx, classOne(1), 9, core.TreeAuto)
	if err != nil || resp == nil || !errors.Is(resp.Err, core.ErrFaultyEndpoint) {
		t.Fatalf("faulty-endpoint frame: resp %+v err %v, want ErrFaultyEndpoint", resp, err)
	}
	if _, err := node.Forward(ctx, classOne(2), 9, core.TreeAuto); !errors.Is(err, serve.ErrDraining) {
		t.Fatalf("draining frame: err = %v, want ErrDraining", err)
	}
	if r, f := node.forwardRetries.Value(), node.forwardFallbacks.Value(); r != 0 || f != 0 {
		t.Fatalf("retries %d fallbacks %d: an answered error must not fail over", r, f)
	}
}
