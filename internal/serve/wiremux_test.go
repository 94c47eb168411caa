package serve

import (
	"context"
	"errors"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gaussiancube/internal/gc"
	"gaussiancube/internal/wire"
)

// muxPeer is the scripted far end of a WireMux under test. Every dial
// hands the script a fresh net.Pipe end.
type muxPeer struct {
	dials  atomic.Int32
	script func(c net.Conn)
}

func (p *muxPeer) dialOpts(callTimeout time.Duration) WireDialOptions {
	opts := fastDialOpts()
	opts.CallTimeout = callTimeout
	opts.Dial = func(string) (net.Conn, error) {
		client, server := net.Pipe()
		p.dials.Add(1)
		go p.script(server)
		return client, nil
	}
	return opts
}

// readMuxFrame reads one request frame off a scripted connection.
func readMuxFrame(c net.Conn) (wire.Header, []byte, error) {
	var hdr [wire.HeaderSize]byte
	if _, err := io.ReadFull(c, hdr[:]); err != nil {
		return wire.Header{}, nil, err
	}
	h, err := wire.ParseHeader(hdr[:])
	if err != nil {
		return h, nil, err
	}
	p := make([]byte, h.Len)
	_, err = io.ReadFull(c, p)
	return h, p, err
}

// readRouteReq reads one RouteReq frame.
func readRouteReq(c net.Conn) (uint64, wire.RouteReq, error) {
	h, p, err := readMuxFrame(c)
	if err != nil {
		return 0, wire.RouteReq{}, err
	}
	var req wire.RouteReq
	if h.Type != wire.TypeRouteReq {
		return h.ID, req, errors.New("not a route request")
	}
	return h.ID, req, wire.DecodeRouteReq(p, &req)
}

// echoResult answers a request with the two-node path src -> dst, so a
// caller can tell its own answer from anyone else's.
func echoResult(id uint64, req wire.RouteReq) []byte {
	res := wire.RouteResult{Outcome: 1, Hops: 1, Epoch: 5, Path: []gc.NodeID{req.Src, req.Dst}}
	return wire.AppendRouteResult(nil, id, &res)
}

// echoScript answers every route request as it arrives.
func echoScript(c net.Conn) {
	defer c.Close()
	for {
		id, req, err := readRouteReq(c)
		if err != nil {
			return
		}
		if _, err := c.Write(echoResult(id, req)); err != nil {
			return
		}
	}
}

func pendingCalls(m *WireMux) int {
	mc := m.cur.Load()
	if mc == nil {
		return 0
	}
	mc.mu.Lock()
	defer mc.mu.Unlock()
	return len(mc.pending)
}

// TestWireMuxPipelined: the peer answers nothing until it has read 8
// requests, then replies in reverse order. Every concurrent caller must
// get its own answer, which a connection carrying one round trip at a
// time cannot deliver before its deadline.
func TestWireMuxPipelined(t *testing.T) {
	const calls = 8
	peer := &muxPeer{script: func(c net.Conn) {
		defer c.Close()
		ids := make([]uint64, 0, calls)
		reqs := make([]wire.RouteReq, 0, calls)
		for len(ids) < calls {
			id, req, err := readRouteReq(c)
			if err != nil {
				return
			}
			ids, reqs = append(ids, id), append(reqs, req)
		}
		for i := calls - 1; i >= 0; i-- {
			if _, err := c.Write(echoResult(ids[i], reqs[i])); err != nil {
				return
			}
		}
		_, _ = io.Copy(io.Discard, c)
	}}
	m := NewWireMux("peer", peer.dialOpts(2*time.Second))
	defer m.Close()

	var wg sync.WaitGroup
	errs := make([]error, calls)
	outs := make([]WireRoute, calls)
	for i := 0; i < calls; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req := wire.RouteReq{Src: gc.NodeID(i), Dst: gc.NodeID(100 + i)}
			errs[i] = m.Route(context.Background(), req, &outs[i])
		}(i)
	}
	wg.Wait()
	for i := 0; i < calls; i++ {
		if errs[i] != nil {
			t.Fatalf("call %d: %v", i, errs[i])
		}
		p := outs[i].Path
		if len(p) != 2 || p[0] != gc.NodeID(i) || p[1] != gc.NodeID(100+i) {
			t.Fatalf("call %d got path %v, want [%d %d]", i, p, i, 100+i)
		}
	}
	if got := peer.dials.Load(); got != 1 {
		t.Fatalf("%d dials, want 1 shared connection", got)
	}
}

// countingConn counts Write calls on the client end.
type countingConn struct {
	net.Conn
	writes *atomic.Int32
}

func (c countingConn) Write(b []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(b)
}

// TestWireMuxWriteCombining: while one caller's write is blocked, the
// frames of every caller behind it queue up and leave in a single
// second write.
func TestWireMuxWriteCombining(t *testing.T) {
	const calls = 8
	release := make(chan struct{})
	var writes atomic.Int32
	opts := fastDialOpts()
	opts.CallTimeout = 5 * time.Second
	opts.Dial = func(string) (net.Conn, error) {
		client, server := net.Pipe()
		go func() {
			<-release // read nothing until every caller has queued
			echoScript(server)
		}()
		return countingConn{Conn: client, writes: &writes}, nil
	}
	m := NewWireMux("peer", opts)
	defer m.Close()

	var wg sync.WaitGroup
	errs := make([]error, calls)
	for i := 0; i < calls; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var out WireRoute
			errs[i] = m.Route(context.Background(), wire.RouteReq{Src: gc.NodeID(i), Dst: 9}, &out)
			if errs[i] == nil && (len(out.Path) != 2 || out.Path[0] != gc.NodeID(i)) {
				errs[i] = errors.New("got someone else's answer")
			}
		}(i)
	}
	deadline := time.Now().Add(5 * time.Second)
	for pendingCalls(m) < calls {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d calls registered", pendingCalls(m), calls)
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	if got := writes.Load(); got != 2 {
		t.Fatalf("%d writes for %d calls, want 2 (the blocked one and one combined)", got, calls)
	}
}

// TestWireMuxLateReply: a call that times out withdraws its id; the
// reply that arrives afterwards is read and dropped, never written
// into the abandoned slot, and the connection keeps serving.
func TestWireMuxLateReply(t *testing.T) {
	late := make(chan struct{})
	peer := &muxPeer{script: func(c net.Conn) {
		defer c.Close()
		idA, reqA, err := readRouteReq(c)
		if err != nil {
			return
		}
		<-late // hold A's answer until its caller has given up
		if _, err := c.Write(echoResult(idA, reqA)); err != nil {
			return
		}
		echoScript(c)
	}}
	m := NewWireMux("peer", peer.dialOpts(5*time.Second))
	defer m.Close()

	var a WireRoute
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	err := m.Route(ctx, wire.RouteReq{Src: 1, Dst: 99}, &a)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("timed-out call: err = %v, want DeadlineExceeded", err)
	}
	if pendingCalls(m) != 0 {
		t.Fatal("timed-out call left its id pending")
	}
	close(late)
	for i := 0; i < 4; i++ {
		var b WireRoute
		src := gc.NodeID(2 + i)
		if err := m.Route(context.Background(), wire.RouteReq{Src: src, Dst: 3}, &b); err != nil {
			t.Fatalf("call after the late reply: %v", err)
		}
		if len(b.Path) != 2 || b.Path[0] != src || b.Path[1] != 3 {
			t.Fatalf("call after the late reply got %v, want [%d 3]", b.Path, src)
		}
	}
	if a.Path != nil || a.Hops != 0 {
		t.Fatalf("late reply landed in the abandoned slot: %+v", a)
	}
	if got := peer.dials.Load(); got != 1 {
		t.Fatalf("%d dials: a timeout must not tear the connection", got)
	}
}

// TestWireMuxDeadlines: a call waits for whichever comes first, its
// ctx or CallTimeout, and a ctx already done fails before any dial.
func TestWireMuxDeadlines(t *testing.T) {
	peer := &muxPeer{script: func(c net.Conn) { _, _ = io.Copy(io.Discard, c) }} // never answers
	m := NewWireMux("peer", peer.dialOpts(10*time.Second))
	defer m.Close()

	done, cancel := context.WithCancel(context.Background())
	cancel()
	var out WireRoute
	if err := m.Route(done, wire.RouteReq{Src: 1, Dst: 2}, &out); !errors.Is(err, context.Canceled) {
		t.Fatalf("done ctx: err = %v, want Canceled", err)
	}
	if got := peer.dials.Load(); got != 0 {
		t.Fatalf("a call with a done ctx dialed %d times", got)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	if err := m.Route(ctx, wire.RouteReq{Src: 1, Dst: 2}, &out); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("ctx deadline: err = %v, want DeadlineExceeded", err)
	}
	if waited := time.Since(start); waited > 5*time.Second {
		t.Fatalf("waited %v: the ctx deadline was ignored", waited)
	}

	short := NewWireMux("peer", peer.dialOpts(30*time.Millisecond))
	defer short.Close()
	if err := short.Route(context.Background(), wire.RouteReq{Src: 1, Dst: 2}, &out); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("CallTimeout: err = %v, want DeadlineExceeded", err)
	}
}

// TestWireMuxTornConnection: a connection that dies with calls in
// flight fails every one of them with ErrConnClosed, and the next call
// redials through Dial.
func TestWireMuxTornConnection(t *testing.T) {
	const calls = 4
	peer := &muxPeer{}
	peer.script = func(c net.Conn) {
		if peer.dials.Load() > 1 {
			echoScript(c)
			return
		}
		for i := 0; i < calls; i++ {
			if _, _, err := readRouteReq(c); err != nil {
				break
			}
		}
		c.Close() // hang up with every call in flight
	}
	m := NewWireMux("peer", peer.dialOpts(5*time.Second))
	defer m.Close()

	var wg sync.WaitGroup
	errs := make([]error, calls)
	for i := 0; i < calls; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var out WireRoute
			errs[i] = m.Route(context.Background(), wire.RouteReq{Src: gc.NodeID(i), Dst: 9}, &out)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if !errors.Is(err, ErrConnClosed) {
			t.Fatalf("call %d on the torn connection: err = %v, want ErrConnClosed", i, err)
		}
	}
	var out WireRoute
	if err := m.Route(context.Background(), wire.RouteReq{Src: 7, Dst: 9}, &out); err != nil {
		t.Fatalf("call after the tear: %v", err)
	}
	if got := peer.dials.Load(); got != 2 {
		t.Fatalf("%d dials, want 2 (the torn connection and one redial)", got)
	}
	if len(out.Path) != 2 || out.Path[0] != 7 {
		t.Fatalf("call after the tear got %v", out.Path)
	}
}

// TestWireMuxErrorFrames: an error frame answering a route request
// lands in the slot's ErrCode and ErrMsg. A reply of the wrong type
// tears the connection.
func TestWireMuxErrorFrames(t *testing.T) {
	peer := &muxPeer{script: func(c net.Conn) {
		defer c.Close()
		for {
			h, p, err := readMuxFrame(c)
			if err != nil {
				return
			}
			var out []byte
			var req wire.RouteReq
			_ = wire.DecodeRouteReq(p, &req)
			switch req.Src {
			case 1:
				out = wire.AppendError(nil, h.ID, wire.CodeBackpressure, "queue full")
			case 2:
				out = wire.AppendError(nil, h.ID, wire.CodeFaultyNode, "faulty endpoint")
			case 3:
				out = wire.AppendError(nil, h.ID, wire.CodeDraining, "draining")
			default:
				out = wire.AppendPong(nil, h.ID, 0) // not a route reply
			}
			if _, err := c.Write(out); err != nil {
				return
			}
		}
	}}
	m := NewWireMux("peer", peer.dialOpts(5*time.Second))
	defer m.Close()
	ctx := context.Background()

	for src, code := range map[gc.NodeID]uint16{1: wire.CodeBackpressure, 2: wire.CodeFaultyNode, 3: wire.CodeDraining} {
		var out WireRoute
		if err := m.Route(ctx, wire.RouteReq{Src: src, Dst: 9}, &out); err != nil {
			t.Fatalf("src %d: %v", src, err)
		}
		if out.ErrCode != code || len(out.ErrMsg) == 0 || out.Delivered() {
			t.Fatalf("src %d: ErrCode %d (%q), want %d", src, out.ErrCode, out.ErrMsg, code)
		}
	}

	var out WireRoute
	if err := m.Route(ctx, wire.RouteReq{Src: 4, Dst: 9}, &out); !errors.Is(err, ErrConnClosed) {
		t.Fatalf("wrong reply type: err = %v, want ErrConnClosed", err)
	}
	if err := m.Route(ctx, wire.RouteReq{Src: 1, Dst: 9}, &out); err != nil || out.ErrCode != wire.CodeBackpressure {
		t.Fatalf("call after the tear: err = %v, ErrCode %d", err, out.ErrCode)
	}
	if got := peer.dials.Load(); got != 2 {
		t.Fatalf("%d dials, want 2", got)
	}
}

// TestWireMuxClose: Close fails the calls in flight and every later
// call, without redialing.
func TestWireMuxClose(t *testing.T) {
	peer := &muxPeer{script: func(c net.Conn) { _, _ = io.Copy(io.Discard, c) }}
	m := NewWireMux("peer", peer.dialOpts(10*time.Second))
	errc := make(chan error, 1)
	go func() {
		var out WireRoute
		errc <- m.Route(context.Background(), wire.RouteReq{Src: 1, Dst: 2}, &out)
	}()
	deadline := time.Now().Add(5 * time.Second)
	for pendingCalls(m) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("call never went out")
		}
		time.Sleep(time.Millisecond)
	}
	_ = m.Close()
	if err := <-errc; !errors.Is(err, ErrConnClosed) {
		t.Fatalf("in-flight call at Close: err = %v, want ErrConnClosed", err)
	}
	var out WireRoute
	if err := m.Route(context.Background(), wire.RouteReq{Src: 1, Dst: 2}, &out); !errors.Is(err, ErrConnClosed) {
		t.Fatalf("call after Close: err = %v, want ErrConnClosed", err)
	}
	if got := peer.dials.Load(); got != 1 {
		t.Fatalf("%d dials: Close must stop redialing", got)
	}
}

// TestWireMuxServer drives the multiplexed connection against the real
// wire server: concurrent route calls, each answered with its own
// verdict.
func TestWireMuxServer(t *testing.T) {
	cube := gc.New(6, 2)
	s := mustServer(t, Config{Cube: cube, Shards: 2})
	addr := startWire(t, s)
	m := NewWireMux(addr, WireDialOptions{CallTimeout: 5 * time.Second})
	defer m.Close()

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			src, dst := gc.NodeID(i), gc.NodeID(63-i)
			var out WireRoute
			if err := m.Route(context.Background(), wire.RouteReq{Src: src, Dst: dst}, &out); err != nil {
				errs <- err
				return
			}
			if !out.Delivered() || out.Hops != cube.Distance(src, dst) || out.Path[0] != src || out.Path[len(out.Path)-1] != dst {
				errs <- errors.New("wrong route verdict")
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
