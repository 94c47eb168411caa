package cluster

import (
	"context"
	"fmt"
	"sync"
	"time"

	"gaussiancube/internal/core"
	"gaussiancube/internal/gc"
	"gaussiancube/internal/serve"
	"gaussiancube/internal/wire"
)

// Collective fan-out (serve.CollectiveForwarder): a broadcast or
// multicast arriving at any member is partitioned by the owner of each
// destination's ending class, each owner computes the plan for its
// subset (pinned with NoForward — one hop, no loops), and the
// per-destination results are merged back in request order. Every
// requested destination is answered by exactly one member, so the
// merged reply keeps the delivered + degraded + unreached == requested
// conservation law cluster-wide. A subset whose owner is unreachable is
// computed locally and degrade-marked, exactly like unicast fallback.

// ForwardCollective implements serve.CollectiveForwarder.
func (n *Node) ForwardCollective(ctx context.Context, origin gc.NodeID, dests []gc.NodeID, multicast bool) (*serve.CollectiveResponse, error) {
	n.collectivesForwarded.Inc()
	nodes := n.srv.Cube().Nodes()
	if int(origin) >= nodes {
		return nil, fmt.Errorf("cluster: node %d out of range", origin)
	}
	var all []gc.NodeID
	if multicast {
		for _, d := range dests {
			if int(d) >= nodes {
				return nil, fmt.Errorf("cluster: destination %d out of range", d)
			}
		}
		all = dests
	} else {
		all = make([]gc.NodeID, 0, nodes-1)
		for v := 0; v < nodes; v++ {
			if gc.NodeID(v) != origin {
				all = append(all, gc.NodeID(v))
			}
		}
	}

	// Partition the destinations by class-range owner.
	subsets := make([][]gc.NodeID, len(n.peers))
	for _, d := range all {
		o := n.topo.OwnerOf(d)
		subsets[o] = append(subsets[o], d)
	}

	// Remote subsets fan out concurrently; the local subset (always
	// submitted, even when empty, to anchor the epoch and the re-rooting
	// verdict) is computed on this goroutine meanwhile.
	type subsetAnswer struct {
		resp *serve.CollectiveResponse
		err  error
	}
	answers := make([]subsetAnswer, len(subsets))
	var wg sync.WaitGroup
	deadlineMS := uint32(n.cfg.ForwardTimeout / time.Millisecond)
	for owner, subset := range subsets {
		if owner == n.self || len(subset) == 0 {
			continue
		}
		wg.Add(1)
		go func(owner int, subset []gc.NodeID) {
			defer wg.Done()
			resp, err := n.collectiveSubset(ctx, origin, subset, deadlineMS)
			answers[owner] = subsetAnswer{resp: resp, err: err}
		}(owner, subset)
	}
	local, err := n.srv.SubmitCollectiveLocal(ctx, origin, subsets[n.self], true)
	wg.Wait()
	if err != nil {
		return nil, err
	}
	for owner := range answers {
		if answers[owner].err != nil {
			return nil, answers[owner].err
		}
	}

	// Merge: each destination was answered by exactly one owner.
	got := make(map[gc.NodeID]core.DestStatus, len(all))
	merged := &serve.CollectiveResponse{Epoch: local.Epoch, Degraded: local.Degraded, Reason: local.Reason}
	rep := &core.CollectiveReport{Origin: origin, Root: local.Report.Root, ReRooted: local.Report.ReRooted}
	collect := func(r *serve.CollectiveResponse) {
		for _, st := range r.Report.Dests {
			got[st.Dest] = st
		}
		rep.ReRooted = rep.ReRooted || r.Report.ReRooted
		if r.Degraded && !merged.Degraded {
			merged.Degraded, merged.Reason = true, r.Reason
		}
		if r.Epoch != local.Epoch && !merged.Degraded {
			merged.Degraded = true
			merged.Reason = fmt.Sprintf("cluster epochs diverged: local %d, subset %d", local.Epoch, r.Epoch)
		}
	}
	collect(local)
	for owner := range answers {
		if answers[owner].resp != nil {
			collect(answers[owner].resp)
		}
	}
	rep.Dests = make([]core.DestStatus, 0, len(all))
	for _, d := range all {
		st, ok := got[d]
		if !ok {
			// Unanswerable destination (no owner reply carried it) — never
			// dropped silently: it is accounted unreached.
			st = core.DestStatus{Dest: d, Outcome: core.OutcomeUndeliverable, Hops: -1}
		}
		switch st.Outcome {
		case core.OutcomeDelivered:
			rep.Delivered++
		case core.OutcomeDeliveredDegraded:
			rep.Degraded++
		default:
			rep.Unreached++
		}
		rep.Dests = append(rep.Dests, st)
	}
	merged.Report = rep
	return merged, nil
}

// collectiveSubset asks subset's owner for its slice of the plan, with
// one failover retry on the ring successor and a degraded local
// fallback — the collective twin of Forward's ladder.
func (n *Node) collectiveSubset(ctx context.Context, origin gc.NodeID, subset []gc.NodeID, deadlineMS uint32) (*serve.CollectiveResponse, error) {
	target := n.topo.OwnerOf(subset[0])
	req := wire.MulticastReq{Root: origin, DeadlineMS: deadlineMS, Flags: wire.RouteFlagNoForward, Dests: subset}
	for attempt := 0; attempt < 2; attempt++ {
		if target == n.self {
			break // ring wrapped back home: compute locally, undegraded
		}
		if attempt > 0 {
			n.forwardRetries.Inc()
		}
		var res wire.CollectiveResult
		if err := n.peers[target].fwd.Multicast(ctx, &req, &res); err == nil {
			return collectiveResponse(&res), nil
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		target = n.topo.Successor(target)
	}
	resp, err := n.srv.SubmitCollectiveLocal(ctx, origin, subset, true)
	if err != nil || resp == nil {
		return resp, err
	}
	if target != n.self {
		n.forwardFallbacks.Inc()
		resp = serve.DegradeCollective(resp, fmt.Sprintf(
			"class owner %s unreachable; subset served by non-owner %s",
			n.topo.Members()[n.topo.OwnerOf(subset[0])].Addr, n.cfg.Self))
	}
	return resp, nil
}

// collectiveResponse maps a proxied wire collective verdict back onto
// the Server's response shape.
func collectiveResponse(res *wire.CollectiveResult) *serve.CollectiveResponse {
	rep := &core.CollectiveReport{
		Origin:    res.Origin,
		Root:      res.Root,
		ReRooted:  res.Flags&wire.CollectiveFlagReRooted != 0,
		Delivered: int(res.Delivered),
		Degraded:  int(res.Degraded),
		Unreached: int(res.Unreached),
		Dests:     make([]core.DestStatus, len(res.Dests)),
	}
	for i, d := range res.Dests {
		rep.Dests[i] = core.DestStatus{Dest: d.Dest, Outcome: core.Outcome(d.Outcome), Hops: int32(d.Hops)}
	}
	out := &serve.CollectiveResponse{Report: rep, Epoch: res.Epoch}
	if res.Flags&wire.CollectiveFlagDegradedEpoch != 0 {
		out.Degraded = true
		out.Reason = "subset served under a stale fault view"
	}
	return out
}
