package serve

import (
	"context"
	"fmt"
	"time"

	"gaussiancube/internal/core"
	"gaussiancube/internal/gc"
	"gaussiancube/internal/trace"
)

// Collective serving: broadcast and multicast as first-class request
// types riding the same sharded pipeline as unicast routes. A
// collective is planned on the goroutine that submits it; it counts
// against its root shard's in-flight bound (so backpressure applies),
// is planned against one epoch snapshot (so a fault swap mid-flight is
// invisible), and is accounted exactly once in the accepted == served
// conservation law. The per-destination outcome ladder lives inside
// the CollectiveReport; the response-level outcome the metrics tally
// is the summary rung.

// CollectiveResponse is the served verdict for one broadcast or
// multicast request.
type CollectiveResponse struct {
	// Report is the per-destination delivery plan (nil when Err is set).
	Report *core.CollectiveReport
	// Err is a request-level failure (out-of-range nodes). Delivery
	// failures are per-destination outcomes inside Report.
	Err error
	// Epoch is the fault epoch the plan was computed against.
	Epoch uint64
	// Degraded marks a verdict served under a known-behind fault view
	// (journal replay window, stale gossip frontier); Reason says why.
	// Delivered destinations are demoted to DeliveredDegraded when set.
	Degraded bool
	// Reason carries the degrade reason when Degraded is set.
	Reason string
}

// SubmitBroadcast serves one broadcast: a delivery plan reaching every
// node of the cube from root, re-rooted when root is faulted.
func (s *Server) SubmitBroadcast(ctx context.Context, root gc.NodeID) (*CollectiveResponse, error) {
	return s.submitCollective(ctx, root, nil, false)
}

// SubmitMulticast serves one multicast to an explicit destination
// list, answered in request order (duplicates answered consistently).
func (s *Server) SubmitMulticast(ctx context.Context, root gc.NodeID, dests []gc.NodeID) (*CollectiveResponse, error) {
	return s.submitCollective(ctx, root, dests, true)
}

// submitCollective validates, admits and plans on the caller.
// Out-of-range nodes are submission errors (the HTTP 400 class),
// checked before admission so a bad request never costs an in-flight
// slot. dests is nil for a broadcast; multicast distinguishes an
// explicit empty list. A collective is always planned here, on the
// member that receives it: its verdict depends on the origin and the
// fault set only, and every member holds the fault set. The answer
// gets the same replay-window and stale-frontier marking markDegraded
// gives unicast responses.
func (s *Server) submitCollective(ctx context.Context, root gc.NodeID, dests []gc.NodeID, multicast bool) (*CollectiveResponse, error) {
	if int(root) >= s.cube.Nodes() {
		return nil, fmt.Errorf("serve: node out of range for GC(%d,2^%d)", s.cube.N(), s.cube.Alpha())
	}
	for _, d := range dests {
		if int(d) >= s.cube.Nodes() {
			return nil, fmt.Errorf("serve: destination %d out of range for GC(%d,2^%d)", d, s.cube.N(), s.cube.Alpha())
		}
	}
	sh := s.shardFor(root)
	if err := s.admit(sh); err != nil {
		return nil, err
	}
	defer s.release(sh)
	r := s.newRequest(ctx, 0, root, 0, core.TreeAuto)
	resp := s.processCollective(sh, sh.state.Load(), &r, dests, multicast)
	if s.Replaying() {
		resp = degradeCollective(resp, "journal replay in progress; verdict from seed fault state")
	} else if m := s.stale.Load(); m != nil {
		if d, marked := degradeCollectiveIf(resp, m.reason); marked {
			s.degradedStale.Inc()
			resp = d
		}
	}
	return resp, nil
}

// processCollective is the one step of every collective request, run
// on the goroutine that submitted it, against es (the epoch its shard
// serves): the deadline check, the plan on es's planner, its narration
// into the shard's ring when sampled, and the accounting
// (finishCollective). r.src is the root; dests is the multicast list
// (nil, with multicast unset, for a broadcast). The request must
// already be counted accepted.
func (s *Server) processCollective(sh *shard, es *epochState, r *request, dests []gc.NodeID, multicast bool) *CollectiveResponse {
	if testHookProcess != nil {
		testHookProcess()
	}
	if err := r.ctx.Err(); err != nil {
		return s.finishCollective(sh, r, CollectiveResponse{Report: s.canceledCollective(r.src, dests, multicast), Epoch: es.epoch})
	}
	n, sampled := s.sample(sh)
	if sampled {
		sh.sampled.Inc()
		sh.ring.Emit(trace.Event{Kind: trace.KindPacket, From: uint32(r.src), To: uint32(r.src), Arg: int32(n)})
	}
	var rep *core.CollectiveReport
	var err error
	if multicast {
		rep, err = es.router.MulticastPlan(r.src, dests)
	} else {
		rep, err = es.router.BroadcastPlan(r.src)
	}
	if err != nil {
		return s.finishCollective(sh, r, CollectiveResponse{Err: err, Epoch: es.epoch})
	}
	if sampled {
		rep.Trace(s.cube, sh.ring)
	}
	return s.finishCollective(sh, r, CollectiveResponse{Report: rep, Epoch: es.epoch})
}

// canceledCollective builds the all-canceled report for a collective
// whose deadline died before it was planned: every requested
// destination is answered OutcomeCanceled — answered, counted, never
// dropped. The canceled destinations tally as Unreached, keeping the
// partition law (delivered + degraded + unreached == requested) intact.
func (s *Server) canceledCollective(root gc.NodeID, dests []gc.NodeID, multicast bool) *core.CollectiveReport {
	rep := &core.CollectiveReport{Origin: root, Root: root}
	defer func() { rep.Unreached = len(rep.Dests) }()
	if multicast {
		rep.Dests = make([]core.DestStatus, len(dests))
		for i, d := range dests {
			rep.Dests[i] = core.DestStatus{Dest: d, Outcome: core.OutcomeCanceled, Hops: -1}
		}
	} else {
		rep.Dests = make([]core.DestStatus, 0, s.cube.Nodes()-1)
		for v := 0; v < s.cube.Nodes(); v++ {
			if gc.NodeID(v) != root {
				rep.Dests = append(rep.Dests, core.DestStatus{Dest: gc.NodeID(v), Outcome: core.OutcomeCanceled, Hops: -1})
			}
		}
	}
	return rep
}

// finishCollective records one served collective, releases any
// deadline the server set on it and returns its verdict — once through
// here per accepted collective, the same conservation law finish
// enforces for unicast requests.
func (s *Server) finishCollective(sh *shard, req *request, r CollectiveResponse) *CollectiveResponse {
	sh.served.Inc()
	sh.collectives.Inc()
	sh.latency.Add(float64(time.Since(req.enq).Microseconds()))
	if r.Err != nil {
		sh.errored.Inc()
	} else {
		sh.outcomes[int(collectiveSummaryOutcome(r.Report))].Inc()
		sh.collDelivered.Add(int64(r.Report.Delivered))
		sh.collDegraded.Add(int64(r.Report.Degraded))
		sh.collUnreached.Add(int64(r.Report.Unreached))
	}
	if req.cancel != nil {
		req.cancel()
	}
	return &r
}

// collectiveSummaryOutcome folds a per-destination ladder into the one
// response-level rung the shard outcome counters tally.
func collectiveSummaryOutcome(rep *core.CollectiveReport) core.Outcome {
	switch {
	case len(rep.Dests) > 0 && rep.Dests[0].Outcome == core.OutcomeCanceled:
		return core.OutcomeCanceled
	case rep.Delivered+rep.Degraded == 0:
		return core.OutcomeUndeliverable
	case rep.Degraded > 0 || rep.Unreached > 0 || rep.ReRooted:
		return core.OutcomeDeliveredDegraded
	default:
		return core.OutcomeDelivered
	}
}

// degradeCollective returns r with every delivered destination demoted
// to DeliveredDegraded and the response marked, preserving per-
// destination conservation (the counts move between rungs, their sum
// is untouched).
func degradeCollective(r *CollectiveResponse, reason string) *CollectiveResponse {
	out, _ := degradeCollectiveIf(r, reason)
	return out
}

// degradeCollectiveIf is degradeCollective reporting whether a marked
// copy was made (nothing to demote leaves r untouched).
func degradeCollectiveIf(r *CollectiveResponse, reason string) (*CollectiveResponse, bool) {
	if r.Err != nil || r.Report == nil || r.Degraded {
		return r, false
	}
	rep := *r.Report
	if rep.Delivered > 0 {
		rep.Dests = append([]core.DestStatus(nil), rep.Dests...)
		for i := range rep.Dests {
			if rep.Dests[i].Outcome == core.OutcomeDelivered {
				rep.Dests[i].Outcome = core.OutcomeDeliveredDegraded
			}
		}
		rep.Degraded += rep.Delivered
		rep.Delivered = 0
	}
	cp := *r
	cp.Report = &rep
	cp.Degraded = true
	cp.Reason = reason
	return &cp, true
}

// ---------------------------------------------------------------------
// JSON surface (the /broadcast and /multicast documents).

// CollectiveRequest is the body of POST /broadcast and POST /multicast
// (the latter requires Dests).
type CollectiveRequest struct {
	Root gc.NodeID `json:"root"`
	// Dests is the multicast destination list (ignored by /broadcast).
	Dests []gc.NodeID `json:"dests,omitempty"`
	// DeadlineMS optionally bounds this request in milliseconds.
	DeadlineMS int `json:"deadline_ms,omitempty"`
}

// DestOutcome is one destination's slice of a collective reply.
type DestOutcome struct {
	Dest    gc.NodeID `json:"dest"`
	Outcome string    `json:"outcome"`
	Hops    int       `json:"hops"`
}

// CollectiveReply is the JSON verdict for one collective request. The
// three counters always sum to len(Dests) — per-destination
// conservation, checkable from the document alone.
type CollectiveReply struct {
	Origin gc.NodeID `json:"origin"`
	// Root is the effective source: Origin, unless re-rooting moved
	// the injection point.
	Root     gc.NodeID `json:"root"`
	ReRooted bool      `json:"re_rooted,omitempty"`
	// Degraded marks a verdict served under a known-behind fault view;
	// Reason says why.
	Degraded  bool          `json:"degraded,omitempty"`
	Reason    string        `json:"reason,omitempty"`
	Epoch     uint64        `json:"epoch"`
	Delivered int           `json:"delivered"`
	DegradedN int           `json:"degraded_dests"`
	Unreached int           `json:"unreached"`
	Dests     []DestOutcome `json:"dests"`
	Error     string        `json:"error,omitempty"`
}

// BuildCollectiveReply flattens a served CollectiveResponse onto the
// JSON wire.
func BuildCollectiveReply(origin gc.NodeID, r *CollectiveResponse) CollectiveReply {
	out := CollectiveReply{Origin: origin, Root: origin, Epoch: r.Epoch, Degraded: r.Degraded, Reason: r.Reason}
	if r.Err != nil {
		out.Error = r.Err.Error()
		return out
	}
	rep := r.Report
	out.Root = rep.Root
	out.ReRooted = rep.ReRooted
	out.Delivered = rep.Delivered
	out.DegradedN = rep.Degraded
	out.Unreached = rep.Unreached
	out.Dests = make([]DestOutcome, len(rep.Dests))
	for i, st := range rep.Dests {
		out.Dests[i] = DestOutcome{Dest: st.Dest, Outcome: st.Outcome.String(), Hops: int(st.Hops)}
	}
	return out
}
