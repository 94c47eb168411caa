// Package serve is the concurrent route-serving subsystem: a
// long-running service that accepts route requests, plans them against
// a live, mutating fault state on sharded routers, and answers them
// over HTTP/JSON, the gcwire binary protocol or in process.
//
// # Architecture (DESIGN.md §10, §11)
//
// Requests are sharded by the source node's ending class — the
// quantity the whole FFGCR strategy is keyed on. Each fault epoch has
// one planner Router (and, in adaptive mode, one AdaptiveRouter), built
// against the epoch's frozen fault.Set and shared by every shard: a
// route's multipath tree and its tracer are per-request inputs of the
// planner, not router identities. Each shard owns:
//
//   - a pointer to the epoch it currently serves, published after its
//     route cache is re-stamped for that epoch;
//   - a private trace.Ring into which every TraceEvery-th request is
//     narrated (sampled observability, simnet-style);
//   - an in-flight count of the SubmitTree (and so HTTP) and
//     collective requests planning on it, bounded by QueueDepth
//     (backpressure: a request over the bound is refused with
//     ErrBackpressure, which the HTTP layer turns into 429 +
//     Retry-After);
//   - a lock-free route cache stamped with the epoch's fault
//     fingerprint and a generation, so a fault mutation atomically
//     invalidates stale paths;
//   - per-shard metrics.AtomicHistogram for latency and hops, merged
//     lock-free at scrape time.
//
// No shard has a goroutine of its own. Every request is planned on the
// goroutine that submits it, through one step: serveRoute for a
// unicast route that missed the route cache, processCollective for a
// broadcast or multicast. The route is a pure function of (source,
// destination, tree, frozen fault set), so callers share the epoch's
// planner without a lock. A gcwire reader plans its connection's
// misses itself, outside the in-flight bound (TCP flow control paces
// it instead).
//
// Fault state evolves by copy-on-write (fault.Set.MutateCopy): a
// mutation builds the next frozen set and its planner, bumps the
// epoch, re-stamps each shard's cache and swaps the shard's epoch
// pointer. In-flight requests finish against the epoch they started
// with; there is no epoch lock on the hot path.
//
// Shutdown drains: new submissions are refused with ErrDraining, and it
// returns once every request already accepted is answered. The soak
// test pins the conservation law — accepted == served, and the latency
// histogram counts every served request exactly once.
package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"gaussiancube/internal/core"
	"gaussiancube/internal/fault"
	"gaussiancube/internal/gc"
	"gaussiancube/internal/journal"
	"gaussiancube/internal/metrics"
	"gaussiancube/internal/mtree"
	"gaussiancube/internal/repair"
	"gaussiancube/internal/trace"
)

// Submission errors. Routing-level failures are not errors: they are
// rungs on the core.Outcome ladder inside the Response.
var (
	// ErrBackpressure: the target shard already has QueueDepth requests
	// in flight. The caller should retry after RetryAfter.
	ErrBackpressure = errors.New("serve: shard at its in-flight bound")
	// ErrDraining: the server is shutting down and accepts no new work.
	ErrDraining = errors.New("serve: server draining")
)

// RetryAfter is the backoff hint attached to backpressure rejections
// (the HTTP layer's Retry-After header): a shard over its in-flight
// bound frees a slot as soon as one of its requests is answered.
const RetryAfter = 1 * time.Second

// Config parameterizes a Server. Zero values pick the documented
// defaults.
type Config struct {
	// Cube is the topology served. Required.
	Cube *gc.Cube
	// Faults seeds the initial fault state (cloned; nil means fault-free).
	Faults *fault.Set
	// Shards is the shard count; requests map to shards by source
	// ending class modulo Shards. Default min(GOMAXPROCS, 2^alpha).
	Shards int
	// QueueDepth bounds each shard's SubmitTree and collective requests
	// in flight (default 256); one more is refused with ErrBackpressure.
	QueueDepth int
	// CacheCapacity is the per-shard route-cache entry bound. 0 picks
	// 4096; negative disables caching.
	// The cache serves planner mode only — adaptive flights rediscover.
	CacheCapacity int
	// TraceEvery narrates every Nth request per shard into the shard's
	// ring (0 disables).
	TraceEvery int
	// TraceRing is the per-shard ring capacity (default 4096).
	TraceRing int
	// Adaptive routes with per-hop local discovery (AdaptiveRouter)
	// instead of whole-path planning.
	Adaptive bool
	// Substrate selects the intra-GEEC fault-tolerant router.
	Substrate core.Substrate
	// Repair maintains a tree-edge health map per epoch, enabling
	// repair detours and partition proofs (core.WithRepair).
	Repair bool
	// Trees activates multipath serving over that many frame-striped
	// spanning trees (internal/mtree): flows stripe across trees by the
	// deterministic flow hash, and a request may pin one tree explicitly
	// (SubmitTree, wire.RouteFlagTree, HTTP tree=). Must be a power of
	// two no larger than the cube's frame count; 0 or 1 keeps
	// single-tree serving byte for byte.
	Trees int
	// DefaultDeadline bounds each request when the submitter's context
	// carries no earlier deadline (0 means none).
	DefaultDeadline time.Duration
	// Journal, when non-nil, makes every fault mutation durable before
	// it is acknowledged, and replays the journal at startup to the
	// exact epoch/fingerprint the previous process last acked
	// (DESIGN.md §12). While the startup replay runs, the server serves
	// its seed state with responses marked DeliveredDegraded.
	Journal *JournalConfig
}

func (c *Config) fill() error {
	if c.Cube == nil {
		return errors.New("serve: Config.Cube is required")
	}
	if c.Shards <= 0 {
		c.Shards = runtime.GOMAXPROCS(0)
		if classes := 1 << c.Cube.Alpha(); c.Shards > classes {
			c.Shards = classes
		}
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.CacheCapacity == 0 {
		c.CacheCapacity = defaultCacheCapacity
	}
	if c.TraceRing <= 0 {
		c.TraceRing = 4096
	}
	if c.Journal != nil && c.Journal.Dir == "" {
		return errors.New("serve: Config.Journal.Dir is required")
	}
	return nil
}

// Response is the served verdict for one request.
type Response struct {
	// Report is the unified routing envelope (nil when Err is set).
	Report *core.RouteReport
	// Err is a request-level failure: faulty endpoint or out-of-range
	// node. Routing outcomes live on Report.Outcome instead.
	Err error
	// Epoch is the fault epoch the request was served against.
	Epoch uint64
	// CacheHit reports the path came from the shard's route cache.
	CacheHit bool
}

// request is one route or collective request from submission until
// its verdict is delivered, kept on its planning goroutine's stack.
type request struct {
	ctx context.Context
	// cancel releases a deadline the server set on ctx (the wire
	// DeadlineMS or DefaultDeadline); nil otherwise.
	cancel context.CancelFunc
	// src is the source, or a collective's root; a collective leaves
	// dst and tree unused.
	src, dst gc.NodeID
	// tree is the requested multipath tree: an explicit pin in
	// [0, Trees.K()), or TreeAuto (-1) for per-flow striping (and for
	// single-tree servers, where it is ignored).
	tree int
	enq  time.Time
}

// epochState is the immutable fault state of one epoch and its
// planners, shared by all shards. Each request passes the planners its
// resolved tree and, when sampled, its shard's ring.
type epochState struct {
	epoch  uint64
	faults *fault.Set // frozen; never nil (may be empty)
	fp     uint64
	health *repair.Health // nil unless Config.Repair
	// router plans every planner-mode route and, in adaptive mode too,
	// every collective: a broadcast tree is inherently a global plan.
	router *core.Router
	// adaptive flies every unicast route under Config.Adaptive (nil
	// otherwise).
	adaptive *core.AdaptiveRouter
}

// shard is one slice of the source ending classes and its routing
// state, metrics and in-flight bound.
type shard struct {
	id int
	// state is the epoch this shard serves, published by swapShards
	// only after the shard's cache carries the epoch's stamp.
	state atomic.Pointer[epochState]
	cache *routeCache // nil when disabled
	ring  *trace.Ring // nil when TraceEvery == 0
	// inflight counts the admitted SubmitTree and collective requests
	// not yet answered (admit, release); QueueDepth bounds it.
	inflight atomic.Int64

	latency *metrics.AtomicHistogram // microseconds
	hops    *metrics.AtomicHistogram

	seq         atomic.Uint64 // sampling ordinal; advanced only with tracing on
	served      metrics.Counter
	cacheHits   metrics.Counter
	cacheMisses metrics.Counter
	fastHits    metrics.Counter // cache hits answered on the submitter
	sampled     metrics.Counter
	errored     metrics.Counter
	// outcomes tallies ladder rungs; index core.Outcome.
	outcomes [int(core.OutcomeCanceled) + 1]metrics.Counter

	// Collective tallies: requests served, and their per-destination
	// outcome partition (delivered + degraded + unreached sums to the
	// destinations of every successfully planned collective).
	collectives   metrics.Counter
	collDelivered metrics.Counter
	collDegraded  metrics.Counter
	collUnreached metrics.Counter
}

// Server is the route-serving subsystem. Construct with New, submit
// with SubmitTree (or the HTTP layer of NewHandler), mutate faults with
// ApplyFaults, stop with Shutdown.
type Server struct {
	cfg  Config
	cube *gc.Cube
	// trees is the multipath tree set (nil for single-tree serving).
	trees *mtree.TreeSet
	// treeServed tallies non-error verdicts per tree (len K; nil when
	// single-tree) — the balance view of the flow striping.
	treeServed []metrics.Counter

	// mu guards draining against admit and holdDrain (RLock), so
	// Shutdown can Wait for wg without racing an Add.
	mu       sync.RWMutex
	draining bool
	// drain mirrors draining for lock-free reads on the cache-hit fast
	// path and on a gcwire reader that already holds a drain pass, which
	// add nothing to wg and so need no ordering against Shutdown's Wait,
	// only a refusal bit.
	drain atomic.Bool

	// faultsMu serializes ApplyFaults; readers go through state.
	faultsMu sync.Mutex
	state    atomic.Pointer[epochState]
	epoch    atomic.Uint64

	shards   []*shard
	wg       sync.WaitGroup // admitted requests and readers holding a drain pass
	accepted metrics.Counter
	rejected metrics.Counter
	started  time.Time
	maxHops  float64 // shard hop-histogram upper bound, for merged scrapes

	// Durable journal state (nil/zero unless Config.Journal is set).
	// jready closes when the startup replay finishes; jerr (written
	// before the close) holds its failure; jphase tracks the
	// off/replaying/ok/failed lifecycle for /healthz.
	jnl    *journal.Journal
	jphase atomic.Int32
	jready chan struct{}
	jerr   error

	// Cluster hooks (nil unless a cluster.Node is attached — see
	// cluster.go). owns is the topology's class-ownership predicate
	// OwnsLocally reports; stale forces degrade marking while this
	// instance trails the gossip frontier; clusterFn provides the
	// /metrics cluster section; degradedStale tallies responses
	// stale-marked.
	owns          atomic.Pointer[func(gc.NodeID) bool]
	stale         atomic.Pointer[staleMark]
	clusterFn     atomic.Pointer[func() *ClusterSnapshot]
	degradedStale metrics.Counter
}

// New builds a server, ready to serve on return. It starts no goroutine
// unless a journal is configured, which replays in the background.
func New(cfg Config) (*Server, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	s := &Server{cfg: cfg, cube: cfg.Cube, started: time.Now()}
	if cfg.Trees > 1 {
		ts, err := mtree.New(cfg.Cube, cfg.Trees)
		if err != nil {
			return nil, fmt.Errorf("serve: %w", err)
		}
		s.trees = ts
		s.treeServed = make([]metrics.Counter, ts.K())
	}

	seed := fault.NewSet(s.cube)
	if cfg.Faults != nil {
		seed = cfg.Faults.Clone()
	}
	es := s.buildEpoch(0, seed.Freeze())
	s.state.Store(es)

	s.shards = make([]*shard, cfg.Shards)
	s.maxHops = float64(8 * (int(s.cube.N()) + 1))
	for i := range s.shards {
		sh := &shard{
			id:      i,
			latency: metrics.NewAtomicHistogram(0, latencyHi, latencyBuckets),
			hops:    metrics.NewAtomicHistogram(0, s.maxHops, hopsBuckets),
		}
		if cfg.CacheCapacity > 0 {
			sh.cache = newRouteCache(cfg.CacheCapacity)
			// Stamp the cache with the seed epoch's fingerprint so the
			// token-checked Get/Put pairs work from the first request even
			// when the server starts with a non-empty fault set.
			sh.cache.InvalidateTo(es.fp)
		}
		if cfg.TraceEvery > 0 {
			sh.ring = trace.NewRing(cfg.TraceRing)
		}
		sh.state.Store(es)
		s.shards[i] = sh
	}
	if cfg.Journal != nil {
		// The journal opens and replays in the background: the server is
		// already answering (degraded-marked, against the seed) while
		// history streams in. finishReplay installs the reconstructed
		// state in one swap; ApplyFaults waits for it.
		s.startJournal()
	}
	return s, nil
}

// Cube returns the served topology.
func (s *Server) Cube() *gc.Cube { return s.cube }

// Trees returns the multipath tree set requests stripe over (nil for a
// single-tree server).
func (s *Server) Trees() *mtree.TreeSet { return s.trees }

// validateTree rejects an explicit pin the server cannot honor.
func (s *Server) validateTree(tree int) error {
	if tree < 0 {
		return nil
	}
	if s.trees == nil {
		return fmt.Errorf("serve: tree %d requested on a single-tree server", tree)
	}
	if tree >= s.trees.K() {
		return fmt.Errorf("serve: tree %d out of range [0,%d)", tree, s.trees.K())
	}
	return nil
}

// countTree tallies the tree a verdict was planned on.
func (s *Server) countTree(tree int) {
	if tree >= 0 && tree < len(s.treeServed) {
		s.treeServed[tree].Inc()
	}
}

// Epoch returns the current fault epoch.
func (s *Server) Epoch() uint64 { return s.state.Load().epoch }

// FaultSet returns the current frozen fault set.
func (s *Server) FaultSet() *fault.Set { return s.state.Load().faults }

// buildEpoch assembles the immutable state of one epoch from a frozen
// fault set, planners included. An empty fault set is handed to the
// planner as nil, which keeps the fault-free zero-allocation path (and
// its speed) on the floor.
func (s *Server) buildEpoch(epoch uint64, frozen *fault.Set) *epochState {
	es := &epochState{epoch: epoch, faults: frozen, fp: frozen.Fingerprint()}
	if s.cfg.Repair {
		es.health = repair.NewHealth(s.cube)
		es.health.Rebuild(frozen)
	}
	// The adaptive router ignores WithFaults (the oracle is its ground
	// truth), and a repair map over an empty fault set is inert.
	var oracle core.Oracle
	opts := []core.Option{core.WithSubstrate(s.cfg.Substrate)}
	if frozen.Count() > 0 {
		oracle = frozen
		opts = append(opts, core.WithFaults(frozen))
		if s.cfg.Repair {
			opts = append(opts, core.WithRepair(es.health))
		}
	}
	if s.trees != nil {
		opts = append(opts, core.WithTrees(s.trees))
	}
	es.router = core.NewRouter(s.cube, opts...)
	if s.cfg.Adaptive {
		es.adaptive = core.NewAdaptiveRouter(s.cube, oracle, opts...)
	}
	return es
}

// shardFor maps a source node to its shard: ending class modulo the
// shard count.
func (s *Server) shardFor(src gc.NodeID) *shard {
	return s.shards[int(s.cube.EndingClass(src))%len(s.shards)]
}

// SubmitTree routes one request through the serving pipeline and waits
// for its verdict. tree in [0, Trees().K()) plans the route on that
// multipath tree; core.TreeAuto (-1) uses the per-flow stripe (the only
// choice on a single-tree server). The returned error is
// submission-level only (backpressure, draining, out-of-range nodes,
// an invalid tree); request-level failures arrive on Response.Err and
// routing verdicts on Response.Report.Outcome. ctx bounds the request;
// Config.DefaultDeadline applies when ctx carries no deadline.
//
// The request is answered on this goroutine: from the route cache when
// it holds the path (FastRouteTree, planner mode only), otherwise
// planned here. While QueueDepth requests are already in flight on the
// source's shard it is refused with ErrBackpressure.
//
// In a cluster the request is answered here whoever owns src's ending
// class: every member holds the global fault set. Responses served
// while the journal replays or while the instance trails the gossip
// frontier are degrade-marked.
func (s *Server) SubmitTree(ctx context.Context, src, dst gc.NodeID, tree int) (*Response, error) {
	if ans, ok := s.FastRouteTree(src, dst, tree); ok {
		resp := responseFromCached(&ans)
		s.markDegraded(resp)
		return resp, nil
	}
	if err := s.validate(src, dst, tree); err != nil {
		return nil, err
	}
	sh := s.shardFor(src)
	if err := s.admit(sh); err != nil {
		return nil, err
	}
	defer s.release(sh)
	// The caller keeps the verdict, so it gets a planBuf of its own.
	return s.serveMiss(ctx, 0, sh, src, dst, tree, new(planBuf)), nil
}

// validate is the submission-level check of a unicast request:
// out-of-range nodes and a tree pin the server cannot honor.
func (s *Server) validate(src, dst gc.NodeID, tree int) error {
	if int(src) >= s.cube.Nodes() || int(dst) >= s.cube.Nodes() {
		return fmt.Errorf("serve: node out of range for GC(%d,2^%d)", s.cube.N(), s.cube.Alpha())
	}
	return s.validateTree(tree)
}

// newRequest stamps a validated request (a collective's src is its
// root; its dst and tree go unused). timeout, when positive, bounds it
// (the wire's DeadlineMS); otherwise Config.DefaultDeadline applies
// when ctx has no deadline. finish or finishCollective releases the
// deadline.
func (s *Server) newRequest(ctx context.Context, timeout time.Duration, src, dst gc.NodeID, tree int) request {
	if ctx == nil {
		ctx = context.Background()
	}
	r := request{src: src, dst: dst, tree: tree}
	if timeout > 0 {
		ctx, r.cancel = context.WithTimeout(ctx, timeout)
	} else if _, has := ctx.Deadline(); !has && s.cfg.DefaultDeadline > 0 {
		ctx, r.cancel = context.WithTimeout(ctx, s.cfg.DefaultDeadline)
	}
	r.ctx = ctx
	r.enq = time.Now()
	return r
}

// admit accepts one SubmitTree or collective request onto sh without
// waiting: ErrDraining once Shutdown has begun, ErrBackpressure
// (counted rejected) when QueueDepth requests are already in flight on
// sh. An admitted request is counted accepted and holds a drain pass
// until its release, so Shutdown waits for its answer — which always
// comes, during a drain too, and with OutcomeCanceled rather than
// abandoned once its ctx expires: that keeps accepted == served exact.
func (s *Server) admit(sh *shard) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.draining {
		return ErrDraining
	}
	if sh.inflight.Add(1) > int64(s.cfg.QueueDepth) {
		sh.inflight.Add(-1)
		s.rejected.Inc()
		return ErrBackpressure
	}
	s.wg.Add(1) // ordered before Shutdown's Wait: see holdDrain
	s.accepted.Inc()
	return nil
}

// release ends an admitted request once it is answered.
func (s *Server) release(sh *shard) {
	sh.inflight.Add(-1)
	s.wg.Done()
}

// markDegraded demotes a delivered verdict to DeliveredDegraded while
// the startup journal replays (the verdict was computed against the
// seed state, not yet the reconstructed history, so it is honest but
// provisional) or while the instance trails the cluster's gossip
// frontier (honest for the epoch it was computed against, but a peer
// holds newer fault history — never silently wrong). resp's report
// belongs to the caller, so it is marked in place.
func (s *Server) markDegraded(resp *Response) {
	if s.Replaying() {
		degrade(resp, replayDegradedReason)
	} else if m := s.stale.Load(); m != nil && degrade(resp, m.reason) {
		s.degradedStale.Inc()
	}
}

// CachedAnswer is a fast-path verdict: a cache-hit route answered on
// the submitter's goroutine. It is returned by value, and its Path is
// the shared read-only cached slice, so a steady-state hit performs no
// allocation at all — the property the binary wire front end's
// throughput rests on.
type CachedAnswer struct {
	Path       []gc.NodeID
	Epoch      uint64
	DetourHops int
	// Tree is the multipath tree the path was planned on (-1 on a
	// single-tree server).
	Tree int
}

// FastRouteTree answers (src, dst) from the shard's route cache without
// planning, or reports ok=false when the request must be planned:
// adaptive mode, draining, cache disabled, out-of-range nodes, an
// invalid tree pin (the submission path raises the error), or a miss.
// An explicit tree pin looks up only paths planned on that tree;
// core.TreeAuto resolves the flow's stripe first (a no-op on
// single-tree servers). The cache lookup takes no lock: it is
// token-checked against the shard's current epoch fingerprint and the
// cache's generation stamp, so a copy-on-write fault swap atomically
// invalidates fast-path answers: a hit is guaranteed planned against
// exactly the fault state it is served under. A hit is fully accounted
// (accepted, served, outcomes, hops, latency, sampling) exactly like a
// planned request, and at once: it is the lookup a gcwire reader
// makes plus the publish of a one-hit tally (see hitTally), which the
// reader defers to its next write.
func (s *Server) FastRouteTree(src, dst gc.NodeID, tree int) (CachedAnswer, bool) {
	sh, ans, ok := s.lookupHit(src, dst, tree)
	if ok {
		var one shardHits
		one.add(sh, &ans)
		s.publishHits(sh, &one)
		s.countTree(ans.Tree)
	}
	return ans, ok
}

// lookupHit is FastRouteTree's cache lookup without the hit's
// accounting: the caller owes it to the answer's shard, sh. It takes no
// lock and, past the cache's reference bit, writes no shared word
// unless tracing samples the request.
func (s *Server) lookupHit(src, dst gc.NodeID, tree int) (*shard, CachedAnswer, bool) {
	if s.cfg.Adaptive || s.drain.Load() {
		return nil, CachedAnswer{}, false
	}
	if s.degrading() {
		return nil, CachedAnswer{}, false
	}
	if int(src) >= s.cube.Nodes() || int(dst) >= s.cube.Nodes() {
		return nil, CachedAnswer{}, false
	}
	if s.validateTree(tree) != nil {
		return nil, CachedAnswer{}, false
	}
	sh := s.shardFor(src)
	if sh.cache == nil {
		return nil, CachedAnswer{}, false
	}
	rt := s.trees.Resolve(tree, src, dst)
	es := sh.state.Load()
	path, tag, ok := sh.cache.GetTagged(src, dst, rt, es.fp)
	if !ok || len(path) == 0 {
		// Not counted as a shard cache miss here: the request falls
		// through to serveRoute, which tallies the miss once without
		// probing the cache again. The cache only stores delivered
		// (non-empty) paths, but an empty one would underflow every hops
		// computation downstream, so it is treated as a miss rather than
		// trusted.
		return nil, CachedAnswer{}, false
	}
	if n, sampled := s.sample(sh); sampled {
		sh.sampled.Inc()
		sh.ring.Emit(trace.Event{Kind: trace.KindPacket, From: uint32(src), To: uint32(dst), Arg: int32(n)})
		sh.ring.Emit(trace.Event{Kind: trace.KindCacheHit, From: uint32(src), To: uint32(dst)})
	}
	return sh, CachedAnswer{Path: path, Epoch: es.epoch, DetourHops: int(tag), Tree: rt}, true
}

// degrading reports whether every answer must now carry a degrade marking,
// which only markDegraded applies: during the startup journal replay
// (the verdict is computed against the seed, not yet the reconstructed
// history) and while this instance trails the cluster's gossip
// frontier. The fast path refuses to answer then, so serveRoute makes
// the request's only cache probe. One predictable-branch atomic load is
// the hot-path cost of each window; with no journal (or once caught up)
// and no cluster, neither word changes.
func (s *Server) degrading() bool {
	return s.jphase.Load() == jstateReplay || s.stale.Load() != nil
}

// sample advances sh's sampling ordinal and reports it and whether the
// request it numbers is traced. With tracing off it touches no shared
// state.
func (s *Server) sample(sh *shard) (uint64, bool) {
	if sh.ring == nil || s.cfg.TraceEvery <= 0 {
		return 0, false
	}
	n := sh.seq.Add(1)
	return n, n%uint64(s.cfg.TraceEvery) == 0
}

// hitTally is one gcwire reader's accounting of the cache hits it has
// answered but not yet written, indexed by shard. The reader counts on
// its own goroutine and publishes the tally just before each write of
// its replies (handleConn's flush), so a burst costs a few atomics per
// shard rather than a dozen per hit, and no client can read a reply
// that Served has not counted.
type hitTally struct {
	shards []shardHits
	trees  []int64 // hits per multipath tree; nil on a single-tree server
}

// shardHits is one shard's share of unpublished fast-path hits.
type shardHits struct {
	hits, degraded int64
	latency, hops  metrics.HistogramBuffer
}

func (s *Server) newHitTally() hitTally {
	t := hitTally{shards: make([]shardHits, len(s.shards))}
	if s.trees != nil {
		t.trees = make([]int64, s.trees.K())
	}
	return t
}

// add counts one hit of shard sh.
func (t *hitTally) add(sh *shard, a *CachedAnswer) {
	t.shards[sh.id].add(sh, a)
	if a.Tree >= 0 && a.Tree < len(t.trees) {
		t.trees[a.Tree]++
	}
}

// publish moves every count into the shared counters and empties t.
func (t *hitTally) publish(s *Server) {
	for i := range t.shards {
		if t.shards[i].hits > 0 {
			s.publishHits(s.shards[i], &t.shards[i])
		}
	}
	for i, n := range t.trees {
		if n > 0 {
			s.treeServed[i].Add(n)
			t.trees[i] = 0
		}
	}
}

// add stages one hit of sh.
func (h *shardHits) add(sh *shard, a *CachedAnswer) {
	h.hits++
	if a.DetourHops > 0 {
		h.degraded++
	}
	// Answered synchronously on the submitter: the service latency is
	// sub-microsecond by construction, i.e. bucket zero.
	sh.latency.Stage(&h.latency, 0)
	sh.hops.Stage(&h.hops, float64(len(a.Path)-1))
}

// publishHits is the one accounting routine of fast-path hits: it adds
// h into sh's shared counters and histograms and empties h. Accepted is
// added before Served, so a scrape never sees more served than
// accepted.
func (s *Server) publishHits(sh *shard, h *shardHits) {
	s.accepted.Add(h.hits)
	sh.served.Add(h.hits)
	sh.cacheHits.Add(h.hits)
	sh.fastHits.Add(h.hits)
	if d := h.hits - h.degraded; d > 0 {
		sh.outcomes[int(core.OutcomeDelivered)].Add(d)
	}
	if h.degraded > 0 {
		sh.outcomes[int(core.OutcomeDeliveredDegraded)].Add(h.degraded)
	}
	sh.latency.Flush(&h.latency)
	sh.hops.Flush(&h.hops)
	h.hits, h.degraded = 0, 0
}

// responseFromCached lifts a fast-path verdict into the Response
// envelope SubmitTree returns — byte-for-byte what serveRoute's
// cache-hit branch would have produced.
func responseFromCached(a *CachedAnswer) *Response {
	rep := cachedReport(a.Path, uint32(a.DetourHops), a.Tree)
	return &Response{Report: &rep, Epoch: a.Epoch, CacheHit: true}
}

// planBuf is a planned verdict's storage. serveRoute plans a
// planner-mode route into path and reports it in rep and resp, so a
// gcwire reader that reuses one planBuf for all its misses answers them
// without allocating; each miss overwrites the last. A SubmitTree call
// owns a fresh one, since its caller keeps the verdict.
type planBuf struct {
	path []gc.NodeID
	rep  core.RouteReport
	resp Response
}

// testHookProcess, when non-nil, runs at the top of every serveRoute
// and processCollective call, on the goroutine planning the request.
// Tests use it to hold requests mid-step and observe backpressure and
// drain deterministically.
var testHookProcess func()

// serveRoute is the one step of every unicast request that missed the
// fast path, run on the goroutine that submitted it (SubmitTree, and so
// HTTP) or on the gcwire reader that read it: the deadline check, the
// degrade-window cache probe, the plan on es's planner (on the
// request's resolved tree, narrated into the shard's ring when
// sampled), the cache store, the accounting and the degrade marking
// (finish). The request must already be counted accepted. The verdict
// returned lives in pb until pb's next use: a planner-mode route is
// planned into pb.path, and the cache copies the path only when it
// stores it.
func (s *Server) serveRoute(sh *shard, es *epochState, r *request, pb *planBuf) *Response {
	if testHookProcess != nil {
		testHookProcess()
	}
	resp := &pb.resp
	*resp = Response{Epoch: es.epoch}
	if err := r.ctx.Err(); err != nil {
		// Deadline died before planning: still answered, still counted.
		pb.rep = core.RouteReport{Outcome: core.OutcomeCanceled, Reason: err.Error(), TreeID: -1}
		resp.Report = &pb.rep
		return s.finish(sh, r, resp)
	}
	n, sampled := s.sample(sh)

	// rt is the tree the route is planned on and its cache entry keyed
	// under: the explicit pin, or the flow stripe.
	rt := s.trees.Resolve(r.tree, r.src, r.dst)
	caching := sh.cache != nil && !s.cfg.Adaptive
	if caching {
		// Every unicast request probed the cache before it got here
		// (lookupHit or FastRouteTree) unless a degrade-marking window
		// refused it (a draining server accepts nothing new), so only
		// then is it probed again; otherwise the miss is counted.
		// len(path) > 0 mirrors lookupHit's guard: only delivered paths
		// are ever stored, but an empty one must not reach cachedReport.
		if s.degrading() {
			if path, tag, ok := sh.cache.GetTagged(r.src, r.dst, rt, es.fp); ok && len(path) > 0 {
				sh.cacheHits.Inc()
				if sampled {
					sh.sampled.Inc()
					sh.ring.Emit(trace.Event{Kind: trace.KindPacket, From: uint32(r.src), To: uint32(r.dst), Arg: int32(n)})
					sh.ring.Emit(trace.Event{Kind: trace.KindCacheHit, From: uint32(r.src), To: uint32(r.dst)})
				}
				pb.rep = cachedReport(path, tag, rt)
				resp.Report, resp.CacheHit = &pb.rep, true
				return s.finish(sh, r, resp)
			}
		}
		sh.cacheMisses.Inc()
	}

	var tr trace.Tracer // nil unless sampled: the untraced hot path
	if sampled {
		tr = sh.ring
		sh.sampled.Inc()
		sh.ring.Emit(trace.Event{Kind: trace.KindPacket, From: uint32(r.src), To: uint32(r.dst), Arg: int32(n)})
		if caching {
			sh.ring.Emit(trace.Event{Kind: trace.KindCacheMiss, From: uint32(r.src), To: uint32(r.dst)})
		}
	}
	if es.adaptive != nil {
		var f *core.Flight
		if f, resp.Err = es.adaptive.StartTraced(r.src, r.dst, rt, tr); resp.Err == nil {
			resp.Report = f.Run(r.ctx, nil)
		}
	} else {
		path, m, err := es.router.AppendRoute(r.ctx, pb.path[:0], r.src, r.dst, rt, tr)
		pb.path = path
		if pb.rep, resp.Err = m.Report(path, err); resp.Err == nil {
			resp.Report = &pb.rep
		}
	}
	if resp.Err != nil {
		return s.finish(sh, r, resp)
	}
	if rep := resp.Report; caching && !rep.Outcome.Undeliverable() && rep.Outcome != core.OutcomeCanceled {
		// The detour tag is stamped once here, at insertion — the planner
		// already knows its hops beyond the fault-free optimum, so no
		// BFS ever runs on a hit, which is what lets FastRouteTree stay
		// allocation- and BFS-free. The epoch token pins the entry to the
		// fault state it was planned against: a Put racing a fault swap
		// is dropped instead of poisoning the new epoch.
		sh.cache.PutTagged(r.src, r.dst, rt, rep.Path, uint32(max(rep.DetourHops, 0)), es.fp)
	}
	return s.finish(sh, r, resp)
}

// cachedReport rebuilds a routing envelope from a cached path and its
// insertion-time detour tag. A path longer than the pair's distance
// was planned around faults, so it reports the degraded rung exactly
// like its original route did. tree is the multipath tree the entry is
// keyed under (-1 single-tree).
func cachedReport(path []gc.NodeID, tag uint32, tree int) core.RouteReport {
	rep := core.RouteReport{Outcome: core.OutcomeDelivered, Path: path, Hops: len(path) - 1, DetourHops: int(tag), TreeID: tree}
	if tag > 0 {
		rep.Outcome = core.OutcomeDeliveredDegraded
		rep.Reason = "cached detour"
	}
	return rep
}

// finish records one served request, releases any deadline the server
// set on it and applies the degrade marking. Every accepted unicast
// request that misses the fast path passes through here exactly once,
// before its answer can reach anyone — the conservation law the
// metrics and the drain tests rely on.
func (s *Server) finish(sh *shard, r *request, resp *Response) *Response {
	sh.served.Inc()
	sh.latency.Add(float64(time.Since(r.enq).Microseconds()))
	if resp.Err != nil {
		sh.errored.Inc()
	} else {
		sh.outcomes[int(resp.Report.Outcome)].Inc()
		s.countTree(resp.Report.TreeID)
		if !resp.Report.Outcome.Undeliverable() && resp.Report.Outcome != core.OutcomeCanceled {
			sh.hops.Add(float64(resp.Report.Hops))
		}
	}
	if r.cancel != nil {
		r.cancel()
	}
	s.markDegraded(resp)
	return resp
}

// holdDrain registers a gcwire reader's burst of misses with the drain:
// until the matching releaseDrain, Shutdown waits, so every miss the
// reader accepts under the hold is answered before Shutdown returns.
// It reports false once the drain has begun. One hold covers a whole
// burst, so the shared lock word is touched once per burst, never once
// per miss.
func (s *Server) holdDrain() bool {
	s.mu.RLock()
	ok := !s.draining
	if ok {
		// wg may be zero here, so this Add must happen before Shutdown's
		// Wait. It does: every Add (here and in admit) runs under
		// mu.RLock while draining is false, so it happens before
		// Shutdown's Lock, which sets draining, and so before its Wait.
		s.wg.Add(1)
	}
	s.mu.RUnlock()
	return ok
}

// releaseDrain ends a holdDrain.
func (s *Server) releaseDrain() { s.wg.Done() }

// routeHere answers one unicast request that missed the fast path on
// a gcwire reader holding a drain pass (holdDrain), outside the
// in-flight bound. The verdict lives in pb until its next use. A
// non-nil error is a submission-level refusal: out-of-range nodes, an
// invalid tree, or the drain.
func (s *Server) routeHere(timeout time.Duration, src, dst gc.NodeID, tree int, pb *planBuf) (*Response, error) {
	if err := s.validate(src, dst, tree); err != nil {
		return nil, err
	}
	if s.drain.Load() {
		return nil, ErrDraining
	}
	s.accepted.Inc()
	return s.serveMiss(context.Background(), timeout, s.shardFor(src), src, dst, tree, pb), nil
}

// serveMiss plans one accepted unicast request on the calling goroutine
// against sh's current epoch, through serveRoute, into pb: the one miss
// routine of SubmitTree and the gcwire reader.
func (s *Server) serveMiss(ctx context.Context, timeout time.Duration, sh *shard, src, dst gc.NodeID, tree int, pb *planBuf) *Response {
	r := s.newRequest(ctx, timeout, src, dst, tree)
	return s.serveRoute(sh, sh.state.Load(), &r, pb)
}

// ApplyFaults validates and applies a batch of fault mutations as one
// copy-on-write epoch step: the next frozen set is built with
// fault.Set.MutateCopy, and its planner with it, the epoch is bumped,
// and every shard's route cache is re-stamped with the new fault
// fingerprint before the shard's epoch pointer is swapped. In-flight
// requests complete against the epoch they loaded when planning began;
// later ones see the new one.
//
// With a journal configured the step is durable-before-ack: the event
// diff is committed (and fsynced, per the group-commit policy) before
// the new epoch becomes visible anywhere, so an acked mutation can
// never be lost to a crash, and an unjournaled one can never have
// served a request. A journal failure aborts the mutation with
// ErrJournal.
func (s *Server) ApplyFaults(ops []FaultOp) (epoch uint64, faults int, err error) {
	if s.cfg.Journal != nil {
		// Wait out the startup replay before taking faultsMu (which
		// finishReplay needs): mutations stack on the reconstructed
		// history, never fork from the seed.
		<-s.jready
		if s.jerr != nil {
			cur := s.state.Load()
			return cur.epoch, cur.faults.Count(), s.jerr
		}
	}
	s.faultsMu.Lock()
	defer s.faultsMu.Unlock()
	cur := s.state.Load()
	for _, op := range ops {
		if err := s.validateOp(cur.faults, op); err != nil {
			return cur.epoch, cur.faults.Count(), err
		}
	}
	next := cur.faults.MutateCopy(func(fs *fault.Set) {
		for _, op := range ops {
			applyOp(fs, op)
		}
	})
	if s.cfg.Journal != nil {
		b := journal.Batch{
			Epoch:  s.epoch.Load() + 1,
			FP:     next.Fingerprint(),
			Events: journal.DiffEvents(cur.faults, next, int(time.Now().Unix())),
		}
		if err := s.journalCommit(&b); err != nil {
			return cur.epoch, cur.faults.Count(), err
		}
	}
	es := s.buildEpoch(s.epoch.Add(1), next)
	s.state.Store(es)
	s.swapShards(es)
	return es.epoch, es.faults.Count(), nil
}

// swapShards publishes a new epoch to every shard — the second half of
// a copy-on-write fault swap, also used when the journal replay lands.
func (s *Server) swapShards(es *epochState) {
	for _, sh := range s.shards {
		// The cache is re-stamped BEFORE the shard's epoch is published.
		// The new stamp carries a new generation, and a hit
		// must match both its fingerprint and its generation, so entries
		// of every earlier generation stop being served at once, even
		// while InvalidateTo is still nilling their slots and even when
		// the new fingerprint equals an older one (an A→B→A toggle).
		// Readers still holding the old fingerprint fail the token check
		// (the stamp is already new), and stale PutTagged writes of
		// requests planned on the old epoch are dropped by the same
		// check — both directions of the swap stay atomic.
		if sh.cache != nil {
			sh.cache.InvalidateTo(es.fp)
		}
		sh.state.Store(es)
	}
}

// validateOp rejects malformed mutations before any of the batch is
// applied, so a bad batch is atomic: all or nothing.
func (s *Server) validateOp(cur *fault.Set, op FaultOp) error {
	switch op.Op {
	case OpClear:
		return nil
	case OpInject, OpRepair:
	default:
		return fmt.Errorf("serve: unknown fault op %q", op.Op)
	}
	if int(op.Node) >= s.cube.Nodes() {
		return fmt.Errorf("serve: fault node %d out of range", op.Node)
	}
	switch op.Kind {
	case KindNode:
		return nil
	case KindLink:
		if !s.cube.HasLinkDim(op.Node, op.Dim) {
			return fmt.Errorf("serve: node %d has no link in dimension %d", op.Node, op.Dim)
		}
		return nil
	default:
		return fmt.Errorf("serve: unknown fault kind %q", op.Kind)
	}
}

// applyOp applies one pre-validated mutation.
func applyOp(fs *fault.Set, op FaultOp) {
	switch op.Op {
	case OpClear:
		for _, f := range fs.RawFaults() {
			if f.Kind == fault.KindNode {
				fs.RemoveNode(f.Node)
			} else {
				fs.RemoveLink(f.Node, f.Dim)
			}
		}
	case OpInject:
		if op.Kind == KindNode {
			fs.AddNode(op.Node)
		} else {
			fs.AddLink(op.Node, op.Dim)
		}
	case OpRepair:
		if op.Kind == KindNode {
			fs.RemoveNode(op.Node)
		} else {
			fs.RemoveLink(op.Node, op.Dim)
		}
	}
}

// Shutdown drains the server: new submissions are refused with
// ErrDraining, and every request already accepted, by SubmitTree, a
// collective or a gcwire reader, is answered. It returns ctx's error
// if the drain outlives it (the accepted requests are answered
// regardless). Shutdown is idempotent; concurrent calls all wait for
// the one drain.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.drain.Store(true) // refuse fast-path answers from here on
	s.mu.Unlock()
	done := make(chan struct{})
	go func() {
		// Admitted requests and gcwire readers holding a drain pass count
		// in wg; none can join it now that draining is set.
		s.wg.Wait()
		// The journal outlives the requests by one step: every mutation
		// already acked is fsynced (Commit is synchronous), so this
		// close only seals the live segment.
		s.closeJournal()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Draining reports whether Shutdown has begun.
func (s *Server) Draining() bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.draining
}
