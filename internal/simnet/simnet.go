// Package simnet is the discrete-event network simulator behind the
// paper's Section 6 evaluation.
//
// Model, following the paper's stated assumptions:
//
//  1. source and destination of every packet are non-faulty;
//  2. eager readership — each node's service capacity exceeds the
//     packet arrival rate, modelled as an infinite-server fixed
//     per-hop processing delay, so input buffers never push back
//     (and the deadlock question reduces to the route structure);
//  3. a faulty node makes all of its incident links faulty;
//  4. nodes know their own link status and the class-local fault
//     state — realized by routing each packet with the core strategy
//     over the shared fault set.
//
// Each directed link is a single-server FIFO resource that transfers
// one packet per cycle; contention queues packets in arrival order.
// Routes are computed at the source with the paper's strategy (the
// packet carries its path, O(n)-scale state).
//
// Metrics (Section 6): average latency LP/DP over delivered packets,
// and throughput DP/PT. The authors' PT ("total processing time taken
// by all nodes") is not precisely recoverable from the text; this
// simulator reports both DP/makespan (packets per cycle, whose log2
// reproduces the Figure 6/8 growth) and DP divided by total busy node
// time (work efficiency). DESIGN.md records the substitution.
package simnet

import (
	"errors"
	"fmt"
	"math/rand"

	"gaussiancube/internal/bitutil"
	"gaussiancube/internal/core"
	"gaussiancube/internal/fault"
	"gaussiancube/internal/gc"
	"gaussiancube/internal/metrics"
	"gaussiancube/internal/mtree"
	"gaussiancube/internal/trace"
	"gaussiancube/internal/workload"
)

// Config parameterizes one simulation run.
type Config struct {
	N     uint // network dimension
	Alpha uint // modulus exponent: M = 2^Alpha

	// Arrival is the per-node per-cycle packet generation probability
	// during the generation window.
	Arrival float64
	// GenCycles is the length of the generation window.
	GenCycles int
	// ServiceCycles is the fixed per-hop node processing delay
	// (default 1).
	ServiceCycles int
	// MaxPackets caps the total generated packets (0 = no cap).
	MaxPackets int
	// Warmup excludes packets created before this cycle from the
	// latency/hop statistics (they still occupy links).
	Warmup int
	// HistBuckets, when positive, collects a latency histogram with
	// this many buckets over [0, HistMax).
	HistBuckets int
	// HistMax is the top of the histogram range (default 256 cycles).
	HistMax float64
	// CacheRoutes memoizes route computations per (src, dst) pair —
	// profitable for permutation traffic where pairs repeat. The run
	// uses a private bounded cache (DefaultRouteCacheCapacity entries)
	// unless RouteCache supplies one.
	CacheRoutes bool
	// RouteCache, when non-nil, is used (and implies CacheRoutes) in
	// place of the private per-run cache. It may be shared across runs
	// that use the same topology and fault configuration — e.g. the
	// sequential seed replicates of one sweep point.
	RouteCache *RouteCache

	// FaultAtCycle, when positive, makes the Faults set take effect
	// only from that cycle on: packets routed earlier carry routes that
	// may cross components that have since died. At the moment such a
	// packet would use a dead component, it is rerouted from its
	// current node (counted in Rerouted) or, if no healthy route
	// remains, dropped (counted in Dropped). It is the all-at-once
	// special case of the Dynamic timeline and is implemented by
	// bridging onto it (fault.BatchInject).
	FaultAtCycle int

	// Dynamic, when non-nil, drives a full fault event timeline:
	// components fail and heal at scheduled times while traffic is in
	// flight. Routes are planned against the fault state at emission
	// time; packets that would traverse a component that has since died
	// are rerouted from their current node or dropped, and every epoch
	// transition flushes the route cache (counted in
	// CacheInvalidations) so a stale cached plan is never replayed
	// across a fault transition. Run never mutates the supplied
	// instance — it replays forks of its schedule — so one Dynamic can
	// parameterize many runs. Mutually exclusive with FaultAtCycle;
	// Faults is ignored when Dynamic is set.
	Dynamic *fault.Dynamic

	// Adaptive switches packet forwarding from source-planned paths to
	// the per-hop core.AdaptiveRouter stepper: each packet discovers
	// faults locally, detours by fault category, waits out transient
	// faults with bounded exponential backoff, and is terminally
	// classified on the Delivered / DeliveredDegraded / Undeliverable
	// ladder. Route caching does not apply (there is no source plan to
	// cache).
	Adaptive bool

	// Trees, when greater than one, stripes traffic over that many
	// frame-striped multipath spanning trees (internal/mtree): every
	// planner gets the tree set, each flow is hashed onto a tree
	// (mtree.TreeSet.Resolve), and the route cache keys entries per tree.
	// Must be a power of two no larger than 2^(N-Alpha). Zero or one
	// means single-tree routing, bit-for-bit the pre-multipath behavior.
	Trees int

	// Repair enables the tree-repair subsystem: a tree-edge health map
	// (internal/repair) aggregated from the run's fault state is handed
	// to every planner, so dead tree-edge crossings are detoured
	// through surviving realizations and provably partitioned
	// destinations are refused with a proof (counted in
	// Stats.Partitioned) instead of burning a BFS.
	Repair bool

	Seed    int64
	Pattern workload.Pattern // defaults to Uniform over the cube
	Faults  *fault.Set       // optional fault set

	// Trace, when non-nil, replaces random generation with an explicit
	// packet list — used for paired fault/no-fault comparisons where
	// both runs must see identical offered traffic. Packets whose
	// source or destination is faulty are skipped (assumption 1).
	Trace []Packet

	// TraceEvery, when positive, samples every TraceEvery-th generated
	// packet for route tracing: the sampled packet's route narrative —
	// a trace.KindPacket marker carrying (src, dst, sample index),
	// the cache consultation as KindCacheHit/KindCacheMiss, and the
	// hop-by-hop events of the routing strategy — is emitted to Tracer.
	// Unsampled packets route through the untraced hot path, so
	// sampling leaves the run's throughput character intact. Requires
	// Tracer to be set.
	TraceEvery int
	// Tracer receives the sampled packets' event streams. Each sampled
	// packet's segment is contiguous (adaptive flights buffer into a
	// private ring and flush at termination), so trace.SplitPackets
	// recovers per-packet narratives.
	Tracer trace.Tracer

	Substrate core.Substrate
}

// Packet is one offered packet of an explicit traffic trace.
type Packet struct {
	Src, Dst gc.NodeID
	Time     int
}

// Stats is the outcome of a run.
type Stats struct {
	Generated     int
	Delivered     int
	Undeliverable int // packets whose route computation failed
	// Partitioned counts packets refused or dropped with a proven
	// partition verdict — the tree-edge health map showed the
	// destination's class severed from the source's (Config.Repair
	// only). Always a subset of Undeliverable plus Dropped.
	Partitioned int

	// Latency is the per-packet delivery latency distribution, cycles.
	Latency metrics.Stream
	// Hops is the per-packet hop count distribution.
	Hops metrics.Stream

	// Makespan is the cycle of the last delivery.
	Makespan int
	// NodeBusy is the total node processing time spent, node-cycles.
	NodeBusy float64
	// FallbackRoutes counts packets routed by the BFS fallback.
	FallbackRoutes int
	// Measured counts the delivered packets included in the latency
	// statistics (those created at or after the warmup cycle).
	Measured int
	// Rerouted counts in-flight reroutes after a fault transition
	// (FaultAtCycle or Dynamic timeline); Dropped counts packets
	// stranded in flight.
	Rerouted, Dropped int
	// Epochs is the number of fault-state transitions the run observed
	// (Dynamic timeline only).
	Epochs int
	// CacheInvalidations counts route-cache flushes forced by fault
	// epoch transitions during this run.
	CacheInvalidations int
	// Retries counts transient-fault wait-and-retry attempts and
	// Replans counts post-discovery replans (Adaptive only).
	Retries, Replans int
	// WaitCycles totals the backoff cycles packets spent holding
	// position (Adaptive only).
	WaitCycles int
	// Degraded counts packets delivered on the degraded rung of the
	// outcome ladder (Adaptive only).
	Degraded int
	// DetourHops is the distribution, over delivered packets, of hops
	// taken beyond the fault-free optimum (Adaptive only).
	DetourHops metrics.Stream
	// DropReasons tallies terminal failure reasons (Adaptive only).
	DropReasons map[string]int
	// LinkLoad is the distribution of traversal counts over the
	// directed links that carried at least one packet; its Max against
	// its Mean exposes hot spots.
	LinkLoad metrics.Stream
	// Hottest lists the most-traversed directed links, descending (at
	// most five).
	Hottest []LinkLoad
	// LatencyHist is the latency distribution when Config.HistBuckets
	// is positive, nil otherwise.
	LatencyHist *metrics.Histogram
	// HopHist is the delivered-packet hop-count distribution in
	// unit-width buckets, collected alongside LatencyHist when
	// Config.HistBuckets is positive; nil otherwise.
	HopHist *metrics.Histogram
	// RouteCacheHits counts cache hits when route caching is enabled
	// (Config.CacheRoutes or Config.RouteCache).
	RouteCacheHits int
	// Traced counts the packets sampled for route tracing
	// (Config.TraceEvery).
	Traced int
	// TreeRoutes counts the route lookups striped onto each multipath
	// tree (Config.Trees > 1 only; nil otherwise). A roughly flat
	// profile is the load-balance check for the flow hash.
	TreeRoutes []int
}

// AvgLatency returns LP/DP, the paper's average latency metric.
func (s *Stats) AvgLatency() float64 { return s.Latency.Mean() }

// DeliveryRate returns Delivered/Generated (zero with no traffic).
func (s *Stats) DeliveryRate() float64 {
	if s.Generated == 0 {
		return 0
	}
	return float64(s.Delivered) / float64(s.Generated)
}

// Throughput returns DP per cycle of makespan (the Figure 6/8 metric).
func (s *Stats) Throughput() float64 {
	if s.Makespan == 0 {
		return 0
	}
	return float64(s.Delivered) / float64(s.Makespan)
}

// Log2Throughput returns log2 of Throughput.
func (s *Stats) Log2Throughput() float64 { return metrics.Log2(s.Throughput()) }

// Efficiency returns DP per node-cycle of processing work.
func (s *Stats) Efficiency() float64 {
	if s.NodeBusy == 0 {
		return 0
	}
	return float64(s.Delivered) / s.NodeBusy
}

// Run executes one simulation and returns its statistics.
func Run(cfg Config) (*Stats, error) {
	if cfg.GenCycles <= 0 {
		return nil, errors.New("simnet: GenCycles must be positive")
	}
	if cfg.Arrival <= 0 || cfg.Arrival > 1 {
		return nil, fmt.Errorf("simnet: arrival rate %v out of (0,1]", cfg.Arrival)
	}
	if cfg.TraceEvery > 0 && cfg.Tracer == nil {
		return nil, errors.New("simnet: TraceEvery requires a Tracer")
	}
	service := cfg.ServiceCycles
	if service <= 0 {
		service = 1
	}
	cube := gc.New(cfg.N, cfg.Alpha)
	var trees *mtree.TreeSet
	if cfg.Trees > 1 {
		var err error
		trees, err = mtree.New(cube, cfg.Trees)
		if err != nil {
			return nil, err
		}
	}
	e := &engine{cfg: &cfg, cube: cube, service: service, trees: trees}
	return e.run(), nil
}

// initHists allocates the optional latency and hop histograms when
// Config.HistBuckets asks for them. Latency buckets span [0, HistMax);
// hop buckets are unit-width up to four tree traversals' worth of hops
// (the adaptive TTL scale), so no realistic route lands in the
// overflow bucket.
func initHists(stats *Stats, cfg *Config) {
	if cfg.HistBuckets <= 0 {
		return
	}
	top := cfg.HistMax
	if top <= 0 {
		top = 256
	}
	stats.LatencyHist = metrics.NewHistogram(0, top, cfg.HistBuckets)
	hopTop := 4 * (int(cfg.N) + 1)
	stats.HopHist = metrics.NewHistogram(0, float64(hopTop), hopTop)
}

// narrateCached emits the narrative of a cache-served route: the hit
// marker followed by the cached path replayed hop by hop, so a sampled
// packet's segment is complete (and replayable) without re-running the
// strategy.
func narrateCached(t trace.Tracer, c *gc.Cube, src, dst gc.NodeID, path []gc.NodeID) {
	t.Emit(trace.Event{Kind: trace.KindCacheHit, From: uint32(src), To: uint32(dst)})
	emitPathHops(t, c, path)
	t.Emit(trace.Event{Kind: trace.KindOutcome, Arg: trace.OutcomeOK, Note: "cached"})
}

// emitPathHops replays a concrete path as hop/flip events (split at
// alpha, like the router's own narration).
func emitPathHops(t trace.Tracer, c *gc.Cube, path []gc.NodeID) {
	for i := 1; i < len(path); i++ {
		dim := uint(bitutil.LowestBit(uint64(path[i-1] ^ path[i])))
		k := trace.KindFlip
		if dim < c.Alpha() {
			k = trace.KindHop
		}
		t.Emit(trace.Event{Kind: k, Dim: uint8(dim), From: uint32(path[i-1]), To: uint32(path[i])})
	}
}

// LinkLoad reports the traversal count of one directed link.
type LinkLoad struct {
	From, To gc.NodeID
	Count    int
}

// pickDest samples a destination per the pattern, resampling when the
// pick is the source or faulty at cycle t per the predicate; it gives
// up after a bounded number of attempts (possible only under
// adversarial patterns).
func pickDest(rng *rand.Rand, p workload.Pattern, src gc.NodeID, faultyAt func(gc.NodeID, int) bool, t, nodes int) (gc.NodeID, bool) {
	for attempt := 0; attempt < 64; attempt++ {
		d := p.Dest(rng, src)
		if int(d) >= nodes || d == src {
			continue
		}
		if faultyAt(d, t) {
			continue
		}
		return d, true
	}
	return 0, false
}
