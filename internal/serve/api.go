package serve

import (
	"encoding/json"
	"time"

	"gaussiancube/internal/core"
	"gaussiancube/internal/gc"
	"gaussiancube/internal/metrics"
	"gaussiancube/internal/trace"
)

// Wire types for the HTTP layer and any other serialized front end.
// They live here — not in pkg/gcube — so the public facade can alias
// them without an import cycle.

// Shard histogram shapes: latency in microseconds over [0, 100ms),
// hops over [0, TTL) where TTL is the adaptive hop bound 8*(n+1).
const (
	latencyHi      = 100_000
	latencyBuckets = 64
	hopsBuckets    = 32
)

// FaultOp verbs.
const (
	// OpInject marks a component faulty.
	OpInject = "inject"
	// OpRepair marks a component healthy again.
	OpRepair = "repair"
	// OpClear empties the whole fault set (Node/Kind/Dim ignored).
	OpClear = "clear"
)

// FaultOp kinds.
const (
	// KindNode targets a node (all incident links fail with it).
	KindNode = "node"
	// KindLink targets the single link at (Node, Dim).
	KindLink = "link"
)

// FaultOp is one mutation in a POST /faults batch. A batch is atomic:
// every op is validated before any is applied, and all of them land in
// one epoch bump.
type FaultOp struct {
	Op   string    `json:"op"`             // inject | repair | clear
	Kind string    `json:"kind,omitempty"` // node | link (default node)
	Node gc.NodeID `json:"node"`
	Dim  uint      `json:"dim,omitempty"` // link dimension (kind=link)
}

// RouteRequest is the body of POST /route (GET query params map onto
// the same fields).
type RouteRequest struct {
	Src gc.NodeID `json:"src"`
	Dst gc.NodeID `json:"dst"`
	// DeadlineMS optionally bounds this request in milliseconds,
	// overriding the server's default deadline.
	DeadlineMS int `json:"deadline_ms,omitempty"`
	// Tree optionally pins the request to one multipath tree; absent
	// means the server's per-flow striping (or single-tree serving).
	Tree *int `json:"tree,omitempty"`
}

// RouteResponse is the JSON verdict for one routed request.
type RouteResponse struct {
	Src     gc.NodeID   `json:"src"`
	Dst     gc.NodeID   `json:"dst"`
	Outcome string      `json:"outcome"`
	Reason  string      `json:"reason,omitempty"`
	Path    []gc.NodeID `json:"path,omitempty"`
	Hops    int         `json:"hops"`
	// Degraded flags delivery on a longer-than-distance path (detours,
	// repair crossings or the BFS last resort).
	Degraded     bool `json:"degraded,omitempty"`
	DetourHops   int  `json:"detour_hops,omitempty"`
	Retries      int  `json:"retries,omitempty"`
	Replans      int  `json:"replans,omitempty"`
	WaitCycles   int  `json:"wait_cycles,omitempty"`
	UsedFallback bool `json:"used_fallback,omitempty"`
	// Discovered counts faults the adaptive flight learned en route.
	Discovered int    `json:"discovered,omitempty"`
	Epoch      uint64 `json:"epoch"`
	CacheHit   bool   `json:"cache_hit,omitempty"`
	// Tree is the multipath tree the route was planned on (absent on
	// single-tree servers).
	Tree  *int   `json:"tree,omitempty"`
	Error string `json:"error,omitempty"`
}

// buildRouteResponse flattens a served Response onto the wire.
func buildRouteResponse(src, dst gc.NodeID, r *Response) RouteResponse {
	out := RouteResponse{Src: src, Dst: dst, Epoch: r.Epoch, CacheHit: r.CacheHit}
	if r.Err != nil {
		out.Outcome = "error"
		out.Error = r.Err.Error()
		return out
	}
	rep := r.Report
	out.Outcome = rep.Outcome.String()
	out.Reason = rep.Reason
	out.Path = rep.Path
	out.Hops = rep.Hops
	out.Degraded = rep.Outcome == core.OutcomeDeliveredDegraded
	out.DetourHops = rep.DetourHops
	out.Retries = rep.Retries
	out.Replans = rep.Replans
	out.WaitCycles = rep.WaitCycles
	out.UsedFallback = rep.UsedFallback
	out.Discovered = len(rep.Discovered)
	if rep.TreeID >= 0 {
		tree := rep.TreeID
		out.Tree = &tree
	}
	return out
}

// FaultsResponse answers POST /faults and GET /faults.
type FaultsResponse struct {
	Epoch  uint64 `json:"epoch"`
	Faults int    `json:"faults"`
	// Applied is the op count of the accepted batch (POST only).
	Applied int `json:"applied,omitempty"`
}

// ShardSnapshot is one shard's slice of the metrics scrape.
type ShardSnapshot struct {
	Shard        int                `json:"shard"`
	Served       int64              `json:"served"`
	CacheHits    int64              `json:"cache_hits"`
	CacheMisses  int64              `json:"cache_misses"`
	FastPathHits int64              `json:"fast_path_hits"`
	Sampled      int64              `json:"sampled"`
	Errors       int64              `json:"errors"`
	Outcomes     map[string]int64   `json:"outcomes"`
	Queue        int                `json:"queue"`
	Collectives  int64              `json:"collectives,omitempty"`
	Latency      *metrics.Histogram `json:"latency_us"`
	Hops         *metrics.Histogram `json:"hops"`
}

// CollectiveTotals is the collective slice of the metrics scrape: the
// served request count and the per-destination outcome partition summed
// over every successfully planned collective.
type CollectiveTotals struct {
	Served    int64 `json:"served"`
	Delivered int64 `json:"delivered"`
	Degraded  int64 `json:"degraded"`
	Unreached int64 `json:"unreached"`
}

// MetricsSnapshot is the GET /metrics document: totals plus the
// per-shard breakdown, with the shard histograms merged into the
// top-level aggregates.
type MetricsSnapshot struct {
	Epoch    uint64 `json:"epoch"`
	Faults   int    `json:"faults"`
	Shards   int    `json:"shards"`
	UptimeMS int64  `json:"uptime_ms"`

	Accepted int64 `json:"accepted"`
	Rejected int64 `json:"rejected"`
	Served   int64 `json:"served"`
	Errors   int64 `json:"errors"`
	// FastPathHits counts cache hits answered on the submitter's
	// goroutine without ever enqueueing.
	FastPathHits int64 `json:"fast_path_hits"`
	// Coalesced is always 0: the server merges no requests (DESIGN.md
	// §11). The field is kept only because the bench/ module reads it.
	Coalesced int64 `json:"coalesced"`

	// Trees is the multipath tree count (0 single-tree); TreeRoutes is
	// the per-tree verdict tally — the balance view of flow striping.
	Trees      int     `json:"trees,omitempty"`
	TreeRoutes []int64 `json:"tree_routes,omitempty"`

	// Collectives aggregates broadcast/multicast serving (nil until the
	// first collective is served).
	Collectives *CollectiveTotals `json:"collectives,omitempty"`

	Outcomes map[string]int64 `json:"outcomes"`
	// Latency is the merged end-to-end service latency in microseconds
	// (enqueue to verdict).
	Latency *metrics.Histogram `json:"latency_us"`
	// Hops is the merged hop-count distribution over delivered routes.
	Hops *metrics.Histogram `json:"hops"`

	// Journal is the durability slice of the scrape (nil when no
	// journal is configured): append/fsync counters, the not-yet-
	// durable event lag, and the replaying/ok/lagging/failed state.
	Journal *JournalSnapshot `json:"journal,omitempty"`

	// Cluster is the gccluster slice of the scrape (nil when this
	// instance is not clustered): peer frontiers and lag, forwarding
	// counters, and the stale-epoch degrade tally.
	Cluster *ClusterSnapshot `json:"cluster,omitempty"`

	PerShard []ShardSnapshot `json:"per_shard"`
}

// Metrics assembles a consistent-enough point-in-time scrape: each
// shard's gauges are snapshotted lock-free and merged. The
// conservation law — Served equals the latency histogram's count, and
// equals Accepted once the server has drained — is what the soak test
// asserts on this very structure.
func (s *Server) Metrics() *MetricsSnapshot {
	es := s.state.Load()
	m := &MetricsSnapshot{
		Epoch:    es.epoch,
		Faults:   es.faults.Count(),
		Shards:   len(s.shards),
		UptimeMS: time.Since(s.started).Milliseconds(),
		Accepted: s.accepted.Value(),
		Rejected: s.rejected.Value(),
		Outcomes: make(map[string]int64),
		Latency:  metrics.NewHistogram(0, latencyHi, latencyBuckets),
		Hops:     metrics.NewHistogram(0, s.maxHops, hopsBuckets),
		Journal:  s.JournalStatus(),
		Cluster:  s.clusterSnapshot(),
		PerShard: make([]ShardSnapshot, 0, len(s.shards)),
	}
	if s.trees != nil {
		m.Trees = s.trees.K()
		m.TreeRoutes = make([]int64, s.trees.K())
		for i := range s.treeServed {
			m.TreeRoutes[i] = s.treeServed[i].Value()
		}
	}
	for _, sh := range s.shards {
		ss := ShardSnapshot{
			Shard:        sh.id,
			Served:       sh.served.Value(),
			CacheHits:    sh.cacheHits.Value(),
			CacheMisses:  sh.cacheMisses.Value(),
			FastPathHits: sh.fastHits.Value(),
			Sampled:      sh.sampled.Value(),
			Errors:       sh.errored.Value(),
			Outcomes:     make(map[string]int64),
			Queue:        len(sh.ch),
			Collectives:  sh.collectives.Value(),
			Latency:      sh.latency.Snapshot(),
			Hops:         sh.hops.Snapshot(),
		}
		for o := range sh.outcomes {
			if v := sh.outcomes[o].Value(); v > 0 {
				ss.Outcomes[core.Outcome(o).String()] = v
			}
		}
		m.Served += ss.Served
		m.Errors += ss.Errors
		m.FastPathHits += ss.FastPathHits
		if ss.Collectives > 0 {
			if m.Collectives == nil {
				m.Collectives = &CollectiveTotals{}
			}
			m.Collectives.Served += ss.Collectives
			m.Collectives.Delivered += sh.collDelivered.Value()
			m.Collectives.Degraded += sh.collDegraded.Value()
			m.Collectives.Unreached += sh.collUnreached.Value()
		}
		for k, v := range ss.Outcomes {
			m.Outcomes[k] += v
		}
		// Shapes are identical by construction, so Merge cannot fail.
		_ = m.Latency.Merge(ss.Latency)
		_ = m.Hops.Merge(ss.Hops)
		m.PerShard = append(m.PerShard, ss)
	}
	return m
}

// TracesSnapshot is the GET /debug/traces document.
type TracesSnapshot struct {
	Shard   int           `json:"shard"`
	Total   uint64        `json:"total"`
	Dropped uint64        `json:"dropped"`
	Events  []trace.Event `json:"events"`
}

// Traces drains a sampled-event snapshot from every shard ring.
// Returns nil when tracing is disabled.
func (s *Server) Traces() []TracesSnapshot {
	if s.cfg.TraceEvery <= 0 {
		return nil
	}
	out := make([]TracesSnapshot, 0, len(s.shards))
	for _, sh := range s.shards {
		out = append(out, TracesSnapshot{
			Shard:   sh.id,
			Total:   sh.ring.Total(),
			Dropped: sh.ring.Dropped(),
			Events:  sh.ring.Events(),
		})
	}
	return out
}

// MarshalJSON keeps the scrape self-contained for expvar-style
// publication.
func (m *MetricsSnapshot) JSON() ([]byte, error) { return json.Marshal(m) }
