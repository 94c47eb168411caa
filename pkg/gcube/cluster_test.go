package gcube_test

import (
	"context"
	"net"
	"testing"
	"time"

	"gaussiancube/pkg/gcube"
)

// TestClusterFacade boots a two-member cluster entirely through the
// public facade: ownership-routed client traffic, a request sent to
// the wrong member answered where it landed, and gossip convergence of
// a fault injected at one member only.
func TestClusterFacade(t *testing.T) {
	cube := gcube.NewCube(6, 2) // 4 ending classes, 64 nodes

	lns := make([]net.Listener, 2)
	members := make([]gcube.ClusterMember, 2)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		members[i] = gcube.ClusterMember{Addr: ln.Addr().String(), Lo: 2 * i, Hi: 2*i + 1}
	}
	topo, err := gcube.NewClusterTopology(cube, members)
	if err != nil {
		t.Fatal(err)
	}

	srvs := make([]*gcube.Server, 2)
	for i := range srvs {
		srv, err := gcube.NewServer(gcube.ServerConfig{Cube: cube, Shards: 2})
		if err != nil {
			t.Fatal(err)
		}
		srvs[i] = srv
		ws := gcube.NewWireServer(srv, lns[i])
		go func() { _ = ws.Serve() }()
		node, err := gcube.StartCluster(gcube.ClusterConfig{
			Server:         srv,
			Topology:       topo,
			Self:           members[i].Addr,
			GossipInterval: 20 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer func() {
			node.Close()
			_ = ws.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			_ = srv.Shutdown(ctx)
		}()
	}

	// Ownership-following client: each request lands at the owner of
	// its source ending class, no proxy hop.
	cl := gcube.NewClusterClient(topo, gcube.WireDialOptions{})
	defer cl.Close()
	for _, src := range []gcube.NodeID{0, 2} { // classes 0 and 2: one per member
		r, err := cl.Route(src, 33)
		if err != nil || r.Outcome != "delivered" {
			t.Fatalf("route from %d: %+v, %v", src, r, err)
		}
	}
	if a0, a1 := srvs[0].Metrics().Accepted, srvs[1].Metrics().Accepted; a0 != 1 || a1 != 1 {
		t.Fatalf("ownership routing: accepted = %d/%d, want 1/1", a0, a1)
	}

	// A request at the wrong member is answered there: member 0
	// receives src of class 2 and computes and counts it itself.
	wc, err := gcube.DialWire(members[0].Addr)
	if err != nil {
		t.Fatal(err)
	}
	defer wc.Close()
	r, err := wc.Route(6, 40) // class 2, owned by member 1
	if err != nil || r.Outcome != "delivered" {
		t.Fatalf("wrong-member route: %+v, %v", r, err)
	}
	if a0, a1 := srvs[0].Metrics().Accepted, srvs[1].Metrics().Accepted; a0 != 2 || a1 != 1 {
		t.Fatalf("wrong-member request counted where it landed: accepted = %d/%d, want 2/1", a0, a1)
	}

	// A fault injected at member 1 gossips to member 0.
	if _, err := cl.Route(50, 9); err != nil { // warm nothing in particular; exercises class 3
		t.Fatal(err)
	}
	w1, err := gcube.DialWire(members[1].Addr)
	if err != nil {
		t.Fatal(err)
	}
	defer w1.Close()
	if _, err := w1.ApplyFaults([]gcube.FaultOp{{Op: gcube.OpInject, Kind: gcube.KindNode, Node: 40}}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		e0, f0 := srvs[0].Frontier()
		e1, f1 := srvs[1].Frontier()
		if e0 == e1 && f0 == f1 && e0 == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("gossip did not converge: (%d,%#x) vs (%d,%#x)", e0, f0, e1, f1)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !srvs[0].FaultSet().NodeFaulty(40) {
		t.Fatal("member 0 never learned about node 40")
	}
}
