package serve

import (
	"errors"
	"fmt"
	"time"

	"gaussiancube/internal/core"
	"gaussiancube/internal/fault"
	"gaussiancube/internal/gc"
	"gaussiancube/internal/journal"
	"gaussiancube/internal/wire"
)

// This file is the Server's cluster surface: the ownership predicate a
// gccluster node installs, the stale-epoch degrade marking, and the
// epoch-sync apply/serve paths the anti-entropy gossip rides on
// (DESIGN.md §13). The Server itself stays cluster-agnostic — it
// answers every request it receives, marks staleness it is told about,
// and exchanges journal suffixes; who owns what and when to gossip live
// in internal/cluster.

// ErrSyncDiverged reports that an epoch-sync batch, applied to this
// instance's state, produced a fingerprint different from the one the
// batch records: the two instances' histories diverged below the
// requested horizon. The gossip layer falls back to a full snapshot
// pull on this error.
var ErrSyncDiverged = errors.New("serve: epoch sync diverged")

// staleMark is the published stale-epoch state: non-nil means every
// delivered response is stamped DeliveredDegraded with this reason.
type staleMark struct{ reason string }

// SetOwnership installs (or, with nil, removes) the cluster's
// class-ownership predicate that OwnsLocally reports. No serving path
// reads it: the topology only tells clients where a request's cache
// is warm. Safe to call while serving.
func (s *Server) SetOwnership(owns func(src gc.NodeID) bool) {
	if owns == nil {
		s.owns.Store(nil)
		return
	}
	s.owns.Store(&owns)
}

// SetEpochStale marks (reason != "") or clears (reason == "") the
// stale-epoch condition. While stale, delivered responses are degraded
// to DeliveredDegraded carrying the reason — typically the stale
// fingerprint and the peer frontier that outran it — and the fast path
// is disabled so every answer funnels through the marking. Setting the
// reason already in force keeps the current mark.
func (s *Server) SetEpochStale(reason string) {
	if reason == "" {
		s.stale.Store(nil)
		return
	}
	if m := s.stale.Load(); m != nil && m.reason == reason {
		return
	}
	s.stale.Store(&staleMark{reason: reason})
}

// EpochStale reports the current stale-epoch condition.
func (s *Server) EpochStale() (bool, string) {
	m := s.stale.Load()
	if m == nil {
		return false, ""
	}
	return true, m.reason
}

// OwnsLocally reports whether the cluster topology assigns src's
// ending class to this instance: true with no cluster attached, or
// when src is out of range (the local error path owns the rejection).
// The instance answers every request either way.
func (s *Server) OwnsLocally(src gc.NodeID) bool {
	owns := s.owns.Load()
	if owns == nil || int(src) >= s.cube.Nodes() {
		return true
	}
	return (*owns)(src)
}

// Frontier returns the current (epoch, fingerprint) gossip stamp in
// one consistent read.
func (s *Server) Frontier() (epoch, fp uint64) {
	es := s.state.Load()
	return es.epoch, es.fp
}

// degrade demotes r's delivered outcome to DeliveredDegraded for the
// given reason (an already-set reason is kept), in place; other
// verdicts are left as they are. It is the shared degrade-marking core
// (replay window, stale epoch) and reports whether it marked r.
func degrade(r *Response, reason string) bool {
	if r.Err != nil || r.Report == nil {
		return false
	}
	if r.Report.Outcome.Undeliverable() || r.Report.Outcome == core.OutcomeCanceled {
		return false
	}
	r.Report.Outcome = core.OutcomeDeliveredDegraded
	if r.Report.Reason == "" {
		r.Report.Reason = reason
	}
	return true
}

// ---------------------------------------------------------------------
// Epoch sync: applying a peer's history, serving ours.

// ApplySyncBatch applies one epoch-sync step pulled from a peer as a
// copy-on-write epoch swap, durable-before-ack exactly like
// ApplyFaults. Incremental batches must extend the local frontier by
// exactly one epoch; the fingerprint recorded in the batch is checked
// against the state that results, and any mismatch is ErrSyncDiverged
// (no mutation happens). A snapshot batch replaces the fault set
// outright: stamped at the peer's epoch when it is ahead, or re-minted
// at local epoch+1 when resolving a same-epoch fingerprint conflict —
// either way the journal's strict epoch monotonicity holds and both
// sides converge on identical content.
func (s *Server) ApplySyncBatch(epoch, fp uint64, events []fault.Event, snapshot bool) (applied uint64, err error) {
	if s.cfg.Journal != nil {
		<-s.jready
		if s.jerr != nil {
			cur := s.state.Load()
			return cur.epoch, s.jerr
		}
	}
	s.faultsMu.Lock()
	defer s.faultsMu.Unlock()
	cur := s.state.Load()
	for _, e := range events {
		if err := s.validateEvent(e); err != nil {
			return cur.epoch, err
		}
	}
	target := epoch
	var next *fault.Set
	if snapshot {
		if epoch <= cur.epoch {
			if fp == cur.fp {
				return cur.epoch, nil // already identical content
			}
			// Same-epoch conflict (or a stray behind-snapshot the gossip
			// layer decided wins): adopt the content, mint a fresh epoch.
			target = cur.epoch + 1
		}
		ns := fault.NewSet(s.cube)
		for _, e := range events {
			applyEvent(ns, e)
		}
		next = ns.Freeze()
	} else {
		if epoch != cur.epoch+1 {
			return cur.epoch, fmt.Errorf("%w: batch epoch %d does not extend local epoch %d", ErrSyncDiverged, epoch, cur.epoch)
		}
		next = cur.faults.MutateCopy(func(fs *fault.Set) {
			for _, e := range events {
				applyEvent(fs, e)
			}
		})
	}
	if got := next.Fingerprint(); got != fp {
		return cur.epoch, fmt.Errorf("%w: applied state %#x, batch records %#x at epoch %d", ErrSyncDiverged, got, fp, epoch)
	}
	if s.cfg.Journal != nil {
		b := journal.Batch{
			Epoch:  target,
			FP:     fp,
			Events: journal.DiffEvents(cur.faults, next, int(time.Now().Unix())),
		}
		if err := s.journalCommit(&b); err != nil {
			return cur.epoch, err
		}
	}
	es := s.buildEpoch(target, next)
	s.epoch.Store(target)
	s.state.Store(es)
	s.swapShards(es)
	return target, nil
}

// validateEvent rejects events referencing components outside the
// served cube before any of a sync batch is applied.
func (s *Server) validateEvent(e fault.Event) error {
	if int(e.Fault.Node) >= s.cube.Nodes() {
		return fmt.Errorf("serve: sync event node %d out of range", e.Fault.Node)
	}
	if e.Fault.Kind == fault.KindLink && !s.cube.HasLinkDim(e.Fault.Node, e.Fault.Dim) {
		return fmt.Errorf("serve: sync event link (%d,%d) not in cube", e.Fault.Node, e.Fault.Dim)
	}
	return nil
}

// applyEvent applies one pre-validated fault event to a mutable set.
// Redundant transitions are no-ops (idempotent application is what
// makes snapshot and suffix replay converge on the same content).
func applyEvent(fs *fault.Set, e fault.Event) {
	switch {
	case e.Op == fault.OpInject && e.Fault.Kind == fault.KindNode:
		fs.AddNode(e.Fault.Node)
	case e.Op == fault.OpInject:
		fs.AddLink(e.Fault.Node, e.Fault.Dim)
	case e.Fault.Kind == fault.KindNode:
		fs.RemoveNode(e.Fault.Node)
	default:
		fs.RemoveLink(e.Fault.Node, e.Fault.Dim)
	}
}

// ReadJournalSince returns the local journal's batches after
// afterEpoch, or ok=false when they cannot be served event-wise: no
// journal, replay still running or failed, compaction covered the
// horizon, or a read error. The epoch-sync responder then falls back
// to a snapshot.
func (s *Server) ReadJournalSince(afterEpoch uint64) ([]journal.Batch, bool) {
	if s.cfg.Journal == nil || s.jphase.Load() != jstateOK || s.jnl == nil {
		return nil, false
	}
	batches, ok, err := s.jnl.ReadSince(afterEpoch)
	if err != nil {
		return nil, false
	}
	return batches, ok
}

// SnapshotEvents returns the current fault set as inject events plus
// the (epoch, fingerprint) stamp it carries — one consistent read, the
// payload of a snapshot-mode epoch-sync response.
func (s *Server) SnapshotEvents() (epoch, fp uint64, events []fault.Event) {
	es := s.state.Load()
	for _, f := range es.faults.RawFaults() {
		events = append(events, fault.Event{Op: fault.OpInject, Fault: f})
	}
	return es.epoch, es.fp, events
}

// ---------------------------------------------------------------------
// Wire conversions shared by the epoch-sync server and client sides.

// WireSyncEvents converts fault events into their wire form.
func WireSyncEvents(events []fault.Event) []wire.SyncEvent {
	if len(events) == 0 {
		return nil
	}
	out := make([]wire.SyncEvent, len(events))
	for i, e := range events {
		w := wire.SyncEvent{Time: int64(e.Time), Node: e.Fault.Node, Dim: uint16(e.Fault.Dim)}
		if e.Op == fault.OpRepair {
			w.Op = wire.OpRepair
		} else {
			w.Op = wire.OpInject
		}
		if e.Fault.Kind == fault.KindLink {
			w.Kind = wire.KindLink
		} else {
			w.Kind = wire.KindNode
		}
		out[i] = w
	}
	return out
}

// FaultEventsFromWire converts wire sync events back into fault
// events, rejecting unknown op or kind codes.
func FaultEventsFromWire(in []wire.SyncEvent) ([]fault.Event, error) {
	if len(in) == 0 {
		return nil, nil
	}
	out := make([]fault.Event, len(in))
	for i, w := range in {
		e := fault.Event{Time: int(w.Time)}
		switch w.Op {
		case wire.OpInject:
			e.Op = fault.OpInject
		case wire.OpRepair:
			e.Op = fault.OpRepair
		default:
			return nil, fmt.Errorf("serve: unknown sync event op %d", w.Op)
		}
		switch w.Kind {
		case wire.KindNode:
			e.Fault.Kind = fault.KindNode
		case wire.KindLink:
			e.Fault.Kind = fault.KindLink
		default:
			return nil, fmt.Errorf("serve: unknown sync event kind %d", w.Kind)
		}
		e.Fault.Node = w.Node
		e.Fault.Dim = uint(w.Dim)
		out[i] = e
	}
	return out, nil
}

// ---------------------------------------------------------------------
// Cluster observability.

// ClusterPeer is one peer's slice of the cluster scrape.
type ClusterPeer struct {
	Addr      string `json:"addr"`
	Epoch     uint64 `json:"epoch"`
	FP        uint64 `json:"fingerprint"`
	EpochLag  int64  `json:"epoch_lag"`
	Reachable bool   `json:"reachable"`
}

// ClusterSnapshot is the cluster section of /metrics and /healthz:
// peer count and lag, epoch syncs, and the stale-epoch degrade tally.
// Filled by the cluster node's snapshot hook (SetClusterInfo); the
// Server stamps in the fields it owns.
type ClusterSnapshot struct {
	Self     string `json:"self"`
	Peers    int    `json:"cluster_peers"`
	EpochLag int64  `json:"cluster_epoch_lag"`
	// Forwarded and ForwardFallbacks are always 0: every member
	// answers every request it receives, so none is forwarded.
	Forwarded          int64         `json:"forwarded"`
	ForwardFallbacks   int64         `json:"forward_fallbacks"`
	EpochSyncs         int64         `json:"epoch_syncs"`
	DegradedStaleEpoch int64         `json:"degraded_stale_epoch"`
	Stale              bool          `json:"stale,omitempty"`
	StaleReason        string        `json:"stale_reason,omitempty"`
	PerPeer            []ClusterPeer `json:"per_peer,omitempty"`
}

// SetClusterInfo installs (or, with nil, removes) the cluster snapshot
// provider surfaced under /metrics and /healthz.
func (s *Server) SetClusterInfo(fn func() *ClusterSnapshot) {
	if fn == nil {
		s.clusterFn.Store(nil)
		return
	}
	s.clusterFn.Store(&fn)
}

// clusterSnapshot assembles the cluster scrape section, nil when no
// cluster is attached.
func (s *Server) clusterSnapshot() *ClusterSnapshot {
	fnp := s.clusterFn.Load()
	if fnp == nil {
		return nil
	}
	cs := (*fnp)()
	if cs == nil {
		return nil
	}
	cs.DegradedStaleEpoch = s.degradedStale.Value()
	if stale, reason := s.EpochStale(); stale {
		cs.Stale, cs.StaleReason = true, reason
	}
	return cs
}
