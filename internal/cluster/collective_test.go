package cluster

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"gaussiancube/internal/core"
	"gaussiancube/internal/gc"
	"gaussiancube/internal/serve"
)

func isDeliveredOutcome(o core.Outcome) bool {
	return o == core.OutcomeDelivered || o == core.OutcomeDeliveredDegraded
}

// collectivesServed reads each member's Collectives.Served.
func collectivesServed(insts []*instance) []int64 {
	out := make([]int64, len(insts))
	for i, in := range insts {
		if m := in.srv.Metrics(); m.Collectives != nil {
			out[i] = m.Collectives.Served
		}
	}
	return out
}

// TestClusterBroadcastCrossRange: a broadcast submitted at one member
// spans every class range and is planned there, with the
// per-destination conservation law intact — every node but the origin
// answered exactly once, in ascending order, and the counts add up.
func TestClusterBroadcastCrossRange(t *testing.T) {
	cube := gc.New(6, 2) // 64 nodes, 4 ending classes
	insts, _ := startCluster(t, cube, [][2]int{{0, 1}, {2, 2}, {3, 3}}, 50*time.Millisecond)

	origin := gc.NodeID(3) // class 3: owned by instance 2, submitted at 0
	before := collectivesServed(insts)
	resp, err := insts[0].srv.SubmitBroadcast(context.Background(), origin)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Err != nil || resp.Report == nil {
		t.Fatalf("broadcast failed: %+v", resp)
	}
	rep := resp.Report
	if len(rep.Dests) != cube.Nodes()-1 {
		t.Fatalf("broadcast answered %d dests, want %d", len(rep.Dests), cube.Nodes()-1)
	}
	seen := make(map[gc.NodeID]bool, len(rep.Dests))
	prev := gc.NodeID(0)
	for i, st := range rep.Dests {
		if st.Dest == origin {
			t.Fatalf("broadcast lists its own origin at %d", i)
		}
		if seen[st.Dest] {
			t.Fatalf("dest %d answered twice", st.Dest)
		}
		seen[st.Dest] = true
		if i > 0 && st.Dest <= prev {
			t.Fatalf("dests out of order at %d: %d after %d", i, st.Dest, prev)
		}
		prev = st.Dest
		if !isDeliveredOutcome(st.Outcome) {
			t.Fatalf("fault-free broadcast left dest %d at %v", st.Dest, st.Outcome)
		}
	}
	if rep.Delivered+rep.Degraded+rep.Unreached != len(rep.Dests) {
		t.Fatalf("conservation broken: %+v", rep)
	}
	// Only the receiving member served it.
	after := collectivesServed(insts)
	for i := range insts {
		want := before[i]
		if i == 0 {
			want++
		}
		if after[i] != want {
			t.Fatalf("instance %d served %d collectives, want %d", i, after[i]-before[i], want-before[i])
		}
	}

	// A multicast whose dests span all three class ranges, duplicates
	// included, is answered in request order.
	dests := []gc.NodeID{40, 5, 40, 18, origin}
	mresp, err := insts[1].srv.SubmitMulticast(context.Background(), origin, dests)
	if err != nil || mresp.Err != nil {
		t.Fatalf("multicast: %v %+v", err, mresp)
	}
	mrep := mresp.Report
	if len(mrep.Dests) != len(dests) {
		t.Fatalf("multicast answered %d dests, want %d", len(mrep.Dests), len(dests))
	}
	for i, st := range mrep.Dests {
		if st.Dest != dests[i] {
			t.Fatalf("multicast order broken at %d: got %d want %d", i, st.Dest, dests[i])
		}
		if !isDeliveredOutcome(st.Outcome) {
			t.Fatalf("fault-free multicast left dest %d at %v", st.Dest, st.Outcome)
		}
	}
	if mrep.Delivered+mrep.Degraded+mrep.Unreached != len(mrep.Dests) {
		t.Fatalf("multicast conservation broken: %+v", mrep)
	}
}

// TestClusterBroadcastIsLocalPlan: a collective's answer does not
// depend on the member that receives it. Once gossip has converged on
// a seeded node-fault set, one fault on the origin so that it re-roots,
// every broadcast and multicast submitted at any member equals the
// single-router plan over that fault set and is not degraded. Only the
// receiving member plans it.
func TestClusterBroadcastIsLocalPlan(t *testing.T) {
	cube := gc.New(8, 2) // 256 nodes, 4 ending classes
	insts, _ := startCluster(t, cube, [][2]int{{0, 1}, {2, 2}, {3, 3}}, 20*time.Millisecond)

	origin := gc.NodeID(7) // class 3, faulty: every plan from it re-roots
	ops := []serve.FaultOp{{Op: serve.OpInject, Kind: serve.KindNode, Node: origin}}
	faulty := map[gc.NodeID]bool{origin: true}
	rng := rand.New(rand.NewSource(21))
	for len(ops) < 13 {
		v := gc.NodeID(rng.Intn(cube.Nodes()))
		if !faulty[v] {
			faulty[v] = true
			ops = append(ops, serve.FaultOp{Op: serve.OpInject, Kind: serve.KindNode, Node: v})
		}
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
	if rep, err := oracle.BroadcastPlan(origin); err != nil || !rep.ReRooted {
		t.Fatalf("the faulty origin must re-root: %v %+v", err, rep)
	}

	same := func(what string, got *serve.CollectiveResponse, err error, want *core.CollectiveReport) {
		t.Helper()
		if err != nil || got.Err != nil {
			t.Fatalf("%s: %v %+v", what, err, got)
		}
		if got.Degraded {
			t.Fatalf("%s: degraded on a converged cluster: %s", what, got.Reason)
		}
		r := got.Report
		if r.Root != want.Root || r.ReRooted != want.ReRooted ||
			r.Delivered != want.Delivered || r.Degraded != want.Degraded || r.Unreached != want.Unreached {
			t.Fatalf("%s: root %d re-rooted %v counts %d/%d/%d, want root %d re-rooted %v counts %d/%d/%d", what,
				r.Root, r.ReRooted, r.Delivered, r.Degraded, r.Unreached,
				want.Root, want.ReRooted, want.Delivered, want.Degraded, want.Unreached)
		}
		if len(r.Dests) != len(want.Dests) {
			t.Fatalf("%s: %d dests, want %d", what, len(r.Dests), len(want.Dests))
		}
		for i := range want.Dests {
			if r.Dests[i] != want.Dests[i] {
				t.Fatalf("%s: dest %d = %+v, want %+v", what, i, r.Dests[i], want.Dests[i])
			}
		}
	}

	// One origin per ending class, plus a multicast list spanning the
	// class ranges with a duplicate and a faulty destination.
	origins := []gc.NodeID{origin, 0, 101, 162}
	dests := []gc.NodeID{200, 3, origin, 200, 64, 129, 18}
	ctx := context.Background()
	for i, in := range insts {
		before := collectivesServed(insts)
		for _, o := range origins {
			want, err := oracle.BroadcastPlan(o)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := in.srv.SubmitBroadcast(ctx, o)
			same(fmt.Sprintf("member %d broadcast from %d", i, o), resp, err, want)

			if want, err = oracle.MulticastPlan(o, dests); err != nil {
				t.Fatal(err)
			}
			resp, err = in.srv.SubmitMulticast(ctx, o, dests)
			same(fmt.Sprintf("member %d multicast from %d", i, o), resp, err, want)
		}
		after := collectivesServed(insts)
		for j := range insts {
			want := before[j]
			if j == i {
				want += int64(2 * len(origins))
			}
			if after[j] != want {
				t.Fatalf("submitting at member %d: member %d served %d collectives, want %d", i, j, after[j]-before[j], want-before[j])
			}
		}
	}
}

// TestClusterBroadcastReRootedAndPartitioned: after the origin is
// faulted and gossip converges, a broadcast re-roots away from it.
// After a member is cut off from every peer, it still plans every
// broadcast itself; once it has marked itself stale, the verdict is
// degrade-marked with the stale reason, never silently dropped.
func TestClusterBroadcastReRootedAndPartitioned(t *testing.T) {
	cube := gc.New(6, 2)
	insts, g := startCluster(t, cube, [][2]int{{0, 0}, {1, 1}, {2, 2}, {3, 3}}, 20*time.Millisecond)

	origin := gc.NodeID(7)
	if _, _, err := insts[0].srv.ApplyFaults([]serve.FaultOp{
		{Op: serve.OpInject, Kind: serve.KindNode, Node: origin},
	}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "gossip convergence", func() bool { return stableConverged(insts, 40*time.Millisecond) })

	resp, err := insts[0].srv.SubmitBroadcast(context.Background(), origin)
	if err != nil || resp.Err != nil {
		t.Fatalf("re-rooted broadcast: %v %+v", err, resp)
	}
	if !resp.Report.ReRooted || resp.Report.Root == origin {
		t.Fatalf("broadcast did not re-root off the faulted origin: %+v", resp.Report)
	}
	if resp.Report.Delivered != 0 {
		t.Fatalf("re-rooted deliveries must all be degraded: %+v", resp.Report)
	}
	if resp.Report.Delivered+resp.Report.Degraded+resp.Report.Unreached != len(resp.Report.Dests) {
		t.Fatalf("conservation broken: %+v", resp.Report)
	}

	// Cut instance 0 off from every peer. After StaleAfter missed
	// gossip rounds it marks itself stale, and from then on its
	// collectives carry the stale reason.
	g.cut(0, 1)
	g.cut(0, 2)
	g.cut(0, 3)
	waitFor(t, 10*time.Second, "cut member marks itself stale", func() bool {
		stale, _ := insts[0].srv.EpochStale()
		return stale
	})
	staleBefore := insts[0].srv.Metrics().Cluster.DegradedStaleEpoch
	resp, err = insts[0].srv.SubmitBroadcast(context.Background(), gc.NodeID(4))
	if err != nil || resp.Err != nil {
		t.Fatalf("partitioned broadcast: %v %+v", err, resp)
	}
	// The reason names the missed-round count, which moves each round.
	if !resp.Degraded || !strings.Contains(resp.Reason, "unreachable") {
		t.Fatalf("partitioned broadcast not stale-marked: %+v", resp)
	}
	if got := insts[0].srv.Metrics().Cluster.DegradedStaleEpoch; got <= staleBefore {
		t.Fatalf("degraded_stale_epoch %d did not rise from %d", got, staleBefore)
	}
	if len(resp.Report.Dests) != cube.Nodes()-1 {
		t.Fatalf("partitioned broadcast dropped dests: %d", len(resp.Report.Dests))
	}
	if resp.Report.Delivered+resp.Report.Degraded+resp.Report.Unreached != len(resp.Report.Dests) {
		t.Fatalf("conservation broken under partition: %+v", resp.Report)
	}
}
