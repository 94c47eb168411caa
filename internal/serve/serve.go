// Package serve is the concurrent route-serving subsystem: a
// long-running service that accepts route requests, batches them onto
// a pool of sharded workers, and keeps routing against a live,
// mutating fault state.
//
// # Architecture (DESIGN.md §10)
//
// Requests are sharded by the source node's ending class — the
// quantity the whole FFGCR strategy is keyed on — so each worker's
// router keeps re-planning from a small, hot set of per-class topology
// tables, and its scratch pool (PR 1's zero-allocation hot path) never
// migrates between OS threads mid-route. Each shard owns:
//
//   - one planner Router and one adaptive AdaptiveRouter (both rebuilt
//     on every fault epoch, against the epoch's frozen fault.Set);
//   - a tracer-attached twin of each, writing into the shard's private
//     trace.Ring, used for every TraceEvery-th request (sampled
//     observability, simnet-style);
//   - a bounded task queue (backpressure: a full queue rejects with
//     ErrBackpressure, which the HTTP layer turns into 429 +
//     Retry-After);
//   - a RouteCache stamped with the epoch's fault fingerprint, so a
//     fault mutation atomically invalidates stale paths;
//   - per-shard metrics.AtomicHistogram for latency and hops, merged
//     lock-free at scrape time.
//
// Fault state evolves by copy-on-write (fault.Set.MutateCopy): a
// mutation builds the next frozen set, bumps the epoch, swaps each
// shard's router state through an atomic pointer and re-stamps the
// caches. In-flight requests finish against the epoch they started
// with; there is no epoch lock on the hot path.
//
// Shutdown drains: new submissions are refused with ErrDraining, every
// queued request is answered, then the workers exit. The soak test
// pins the conservation law — accepted == served, and the latency
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
	"gaussiancube/internal/simnet"
	"gaussiancube/internal/trace"
)

// Submission errors. Routing-level failures are not errors: they are
// rungs on the core.Outcome ladder inside the Response.
var (
	// ErrBackpressure: the target shard's queue is full. The caller
	// should retry after RetryAfter.
	ErrBackpressure = errors.New("serve: shard queue full")
	// ErrDraining: the server is shutting down and accepts no new work.
	ErrDraining = errors.New("serve: server draining")
)

// RetryAfter is the backoff hint attached to backpressure rejections
// (the HTTP layer's Retry-After header).
const RetryAfter = 1 * time.Second

// Config parameterizes a Server. Zero values pick the documented
// defaults.
type Config struct {
	// Cube is the topology served. Required.
	Cube *gc.Cube
	// Faults seeds the initial fault state (cloned; nil means fault-free).
	Faults *fault.Set
	// Shards is the worker count; requests map to shards by source
	// ending class modulo Shards. Default min(GOMAXPROCS, 2^alpha).
	Shards int
	// QueueDepth bounds each shard's pending queue (default 256).
	QueueDepth int
	// Batch bounds how many queued requests a worker drains per wakeup
	// (default 32). Batching amortizes the per-wakeup epoch-state load.
	Batch int
	// CacheCapacity is the per-shard route-cache entry bound. 0 picks
	// simnet.DefaultRouteCacheCapacity/16; negative disables caching.
	// The cache serves planner mode only — adaptive flights rediscover.
	CacheCapacity int
	// TraceEvery samples every Nth request per shard through a
	// tracer-attached router into the shard's ring (0 disables).
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
	if c.Batch <= 0 {
		c.Batch = 32
	}
	if c.CacheCapacity == 0 {
		c.CacheCapacity = simnet.DefaultRouteCacheCapacity / 16
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

// request is one unicast route request from submission until its
// verdict is delivered. A miss carries it by value into its queued
// task.
type request struct {
	ctx context.Context
	// cancel releases a deadline the server set on ctx (the wire
	// DeadlineMS or DefaultDeadline); nil otherwise.
	cancel   context.CancelFunc
	src, dst gc.NodeID
	// tree is the requested multipath tree: an explicit pin in
	// [0, Trees.K()), or TreeAuto (-1) for per-flow striping (and for
	// single-tree servers, where it is ignored).
	tree int
	enq  time.Time
	done completion
}

// completion is where a unicast verdict goes: the channel a blocking
// submitter waits on, or, for a gcwire request, the write queue of the
// connection it arrived on under its frame id.
type completion struct {
	ch chan *Response
	wc *wireConn
	id uint64
}

// task is one queued request. A task with cresp non-nil is a
// collective (src is the root; dests is the multicast list, nil with
// multicast unset for a broadcast) and is answered on cresp; otherwise
// it is a unicast route answered through its completion.
type task struct {
	request

	dests     []gc.NodeID
	multicast bool
	cresp     chan CollectiveResponse
}

// epochState is the immutable fault state of one epoch, shared by all
// shards.
type epochState struct {
	epoch  uint64
	faults *fault.Set // frozen; never nil (may be empty)
	fp     uint64
	health *repair.Health // nil unless Config.Repair
}

// shardRouters is a shard's routing state for one epoch, swapped
// atomically on fault mutation.
type shardRouters struct {
	es     *epochState
	plain  core.Routing // the serving router
	traced core.Routing // twin with the shard ring attached
	// coll is the collective planner — always a whole-plan *core.Router
	// even in adaptive mode, because a broadcast tree is inherently a
	// global plan. In planner mode it aliases plain.
	coll       *core.Router
	collTraced *core.Router
	// pinned holds one router per multipath tree for requests that pin a
	// tree explicitly (nil for single-tree servers); plain stripes
	// per-flow and serves everything else.
	pinned []core.Routing
}

// shard is one worker's private world.
type shard struct {
	id    int
	ch    chan *task
	state atomic.Pointer[shardRouters]
	cache *simnet.RouteCache // nil when disabled
	ring  *trace.Ring        // nil when TraceEvery == 0

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

	// mu guards draining against the enqueue fast path (RLock) so
	// Shutdown can close the shard channels without racing a send.
	mu       sync.RWMutex
	draining bool
	// drain mirrors draining for lock-free reads on the cache-hit fast
	// path, which never touches the shard channels and so needs no
	// ordering against their close — only a refusal bit.
	drain atomic.Bool

	// faultsMu serializes ApplyFaults; readers go through state.
	faultsMu sync.Mutex
	state    atomic.Pointer[epochState]
	epoch    atomic.Uint64

	shards   []*shard
	wg       sync.WaitGroup
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
	// cluster.go). fwd routes non-owned requests to their owner; stale
	// forces degrade marking while this instance trails the gossip
	// frontier; clusterFn provides the /metrics cluster section;
	// degradedStale tallies responses stale-marked.
	fwd           atomic.Pointer[forwarderBox]
	cfwd          atomic.Pointer[collectiveForwarderBox]
	stale         atomic.Pointer[staleMark]
	clusterFn     atomic.Pointer[func() *ClusterSnapshot]
	degradedStale metrics.Counter
}

// New builds and starts a server: workers are running on return.
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
			ch:      make(chan *task, cfg.QueueDepth),
			latency: metrics.NewAtomicHistogram(0, latencyHi, latencyBuckets),
			hops:    metrics.NewAtomicHistogram(0, s.maxHops, hopsBuckets),
		}
		if cfg.CacheCapacity > 0 {
			sh.cache = simnet.NewRouteCache(cfg.CacheCapacity)
			// Stamp the cache with the seed epoch's fingerprint so the
			// token-checked Get/Put pairs work from the first request even
			// when the server starts with a non-empty fault set.
			sh.cache.InvalidateTo(es.fp)
		}
		if cfg.TraceEvery > 0 {
			sh.ring = trace.NewRing(cfg.TraceRing)
		}
		sh.state.Store(s.buildShardRouters(sh, es))
		s.shards[i] = sh
		s.wg.Add(1)
		go s.worker(sh)
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

// resolveTree maps a requested tree onto the tree the route is planned
// for: -1 on a single-tree server, the explicit pin when valid, or the
// per-flow stripe otherwise — exactly the resolution the shard's
// striping router applies internally, so cache keys always agree with
// the plan.
func (s *Server) resolveTree(src, dst gc.NodeID, tree int) int {
	if s.trees == nil {
		return -1
	}
	if tree >= 0 && tree < s.trees.K() {
		return tree
	}
	return s.trees.TreeForFlow(src, dst)
}

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
// fault set.
func (s *Server) buildEpoch(epoch uint64, frozen *fault.Set) *epochState {
	es := &epochState{epoch: epoch, faults: frozen, fp: frozen.Fingerprint()}
	if s.cfg.Repair {
		es.health = repair.NewHealth(s.cube)
		es.health.Rebuild(frozen)
	}
	return es
}

// buildShardRouters constructs a shard's router pair for an epoch. An
// empty fault set is handed to the planner as nil, which keeps the
// PR 1 fault-free zero-allocation path (and its speed) on the floor.
func (s *Server) buildShardRouters(sh *shard, es *epochState) *shardRouters {
	var fs *fault.Set
	if es.faults.Count() > 0 {
		fs = es.faults
	}
	// base is the option slice every router of the epoch shares; the
	// adaptive router ignores WithFaults (the oracle is its ground
	// truth), and a repair map over an empty fault set is inert for it.
	var oracle core.Oracle
	base := []core.Option{core.WithSubstrate(s.cfg.Substrate)}
	if fs != nil {
		oracle = fs
		base = append(base, core.WithFaults(fs))
		if s.cfg.Repair {
			base = append(base, core.WithRepair(es.health))
		}
	}
	build := func(t trace.Tracer, tree int) core.Routing {
		opts := append(base[:len(base):len(base)], core.WithTracer(t))
		if s.trees != nil {
			opts = append(opts, core.WithTree(s.trees, tree))
		}
		if s.cfg.Adaptive {
			return core.NewAdaptiveRouter(s.cube, oracle, opts...)
		}
		return core.NewRouter(s.cube, opts...)
	}
	buildColl := func(t trace.Tracer) *core.Router {
		return core.NewRouter(s.cube, append(base[:len(base):len(base)], core.WithTracer(t))...)
	}
	rs := &shardRouters{es: es, plain: build(nil, core.TreeAuto)}
	if r, ok := rs.plain.(*core.Router); ok {
		rs.coll = r
	} else {
		rs.coll = buildColl(nil)
	}
	if sh.ring != nil {
		rs.traced = build(sh.ring, core.TreeAuto)
		if r, ok := rs.traced.(*core.Router); ok {
			rs.collTraced = r
		} else {
			rs.collTraced = buildColl(sh.ring)
		}
	} else {
		rs.traced = rs.plain
		rs.collTraced = rs.coll
	}
	if s.trees != nil {
		rs.pinned = make([]core.Routing, s.trees.K())
		for i := range rs.pinned {
			rs.pinned[i] = build(nil, i)
		}
	}
	return rs
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
// A planner-mode request is answered on this goroutine when the route
// cache holds its path (FastRouteTree); otherwise, and always in
// adaptive mode, it queues on its shard.
//
// With a cluster forwarder installed (SetForwarder), a request whose
// source ending class belongs to another instance is proxied to its
// owner instead; SubmitLocalTree pins a request to this instance.
func (s *Server) SubmitTree(ctx context.Context, src, dst gc.NodeID, tree int) (*Response, error) {
	if box := s.fwd.Load(); box != nil &&
		int(src) < s.cube.Nodes() && int(dst) < s.cube.Nodes() && !box.f.Owns(src) {
		return box.f.Forward(ctx, src, dst, tree)
	}
	return s.SubmitLocalTree(ctx, src, dst, tree)
}

// SubmitLocalTree serves one request on this instance regardless of
// cluster ownership — the landing path for requests a peer forwarded
// here (wire.RouteFlagNoForward) and for the cluster's local-compute
// fallback. Responses served while the journal replays or while the
// instance trails the gossip frontier are degrade-marked.
func (s *Server) SubmitLocalTree(ctx context.Context, src, dst gc.NodeID, tree int) (*Response, error) {
	ch := make(chan *Response, 1)
	if err := s.submitRoute(ctx, 0, src, dst, tree, completion{ch: ch}); err != nil {
		return nil, err
	}
	// Every accepted request is answered exactly once — including
	// during a drain, and with OutcomeCanceled once its deadline dies —
	// so this receive cannot leak.
	return <-ch, nil
}

// submitRoute is the enqueue core of every unicast request: blocking
// submitters pass a channel completion, the gcwire front end its
// connection. It never blocks. A non-nil error is a submission-level
// refusal (out-of-range nodes, an invalid tree, backpressure, drain)
// and done never fires; otherwise done receives the verdict exactly
// once, possibly before submitRoute returns (a cache hit). timeout,
// when positive, bounds the request (the wire's DeadlineMS);
// otherwise Config.DefaultDeadline applies when ctx has no deadline.
func (s *Server) submitRoute(ctx context.Context, timeout time.Duration, src, dst gc.NodeID, tree int, done completion) error {
	if int(src) >= s.cube.Nodes() || int(dst) >= s.cube.Nodes() {
		return fmt.Errorf("serve: node out of range for GC(%d,2^%d)", s.cube.N(), s.cube.Alpha())
	}
	if err := s.validateTree(tree); err != nil {
		return err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	r := request{src: src, dst: dst, tree: tree, done: done}
	if timeout > 0 {
		ctx, r.cancel = context.WithTimeout(ctx, timeout)
	} else if _, has := ctx.Deadline(); !has && s.cfg.DefaultDeadline > 0 {
		ctx, r.cancel = context.WithTimeout(ctx, s.cfg.DefaultDeadline)
	}
	r.ctx = ctx
	r.enq = time.Now()
	if ans, ok := s.FastRouteTree(src, dst, tree); ok {
		s.deliver(&r, responseFromCached(&ans), nil)
		return nil
	}
	err := s.enqueue(s.shardFor(src), &task{request: r})
	if err != nil && r.cancel != nil {
		r.cancel()
	}
	return err
}

// enqueue puts t on its shard queue without waiting: ErrDraining once
// Shutdown has begun, ErrBackpressure (counted rejected) when the queue
// is full. An accepted task is always answered by the worker —
// including during a drain, and an expired ctx with OutcomeCanceled
// rather than abandoned — which is what keeps accepted == served exact.
func (s *Server) enqueue(sh *shard, t *task) error {
	s.mu.RLock()
	if s.draining {
		s.mu.RUnlock()
		return ErrDraining
	}
	select {
	case sh.ch <- t:
		s.accepted.Inc()
		s.mu.RUnlock()
		return nil
	default:
		s.mu.RUnlock()
		s.rejected.Inc()
		return ErrBackpressure
	}
}

// deliver hands r its verdict, releasing any deadline the server set.
// Responses served while the journal replays or while the instance
// trails the gossip frontier are degrade-marked here.
func (s *Server) deliver(r *request, resp *Response, rb *replyBatch) {
	if r.cancel != nil {
		r.cancel()
	}
	if s.Replaying() {
		// Served during the startup journal replay: the verdict was
		// computed against the seed state, not yet the reconstructed
		// history, so it is honest but provisional.
		resp = degradeForReplay(resp)
	} else if m := s.stale.Load(); m != nil {
		// Served behind the cluster's gossip frontier: the verdict is
		// honest for the epoch it was computed against, but a peer
		// holds newer fault history — never silently wrong.
		if d, marked := degradeResponse(resp, m.reason); marked {
			s.degradedStale.Inc()
			resp = d
		}
	}
	if r.done.wc != nil {
		r.done.wc.reply(r.done.id, resp, nil, rb)
		return
	}
	cp := *resp
	r.done.ch <- &cp
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
// enqueueing, or reports ok=false when the pipeline must be used:
// adaptive mode, draining, cache disabled, out-of-range nodes, an
// invalid tree pin (the submission path raises the error), or a miss.
// An explicit tree pin looks up only paths planned on that tree;
// core.TreeAuto resolves the flow's stripe first (a no-op on
// single-tree servers). The cache lookup is token-checked against the
// shard's current epoch fingerprint inside the cache's shard lock, so a
// copy-on-write fault swap atomically invalidates fast-path answers: a
// hit is guaranteed planned against exactly the fault state it is
// served under. A hit is fully accounted (accepted, served, outcomes,
// hops, latency, sampling) exactly like a worker-served request, and at
// once: it is the lookup a gcwire reader makes plus the publish of a
// one-hit tally (see hitTally), which the reader defers to its next
// write.
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
// accounting: the caller owes it to the answer's shard, sh.
func (s *Server) lookupHit(src, dst gc.NodeID, tree int) (*shard, CachedAnswer, bool) {
	if s.cfg.Adaptive || s.drain.Load() {
		return nil, CachedAnswer{}, false
	}
	if s.jphase.Load() == jstateReplay {
		// During the startup replay every answer must carry the degraded
		// marking, which the fast path cannot: fall through to submit.
		// One predictable-branch atomic load is the entire hot-path cost
		// of journaling; with no journal (or once caught up) the phase
		// word never changes.
		return nil, CachedAnswer{}, false
	}
	if s.stale.Load() != nil {
		// Behind the cluster gossip frontier: same funneling as the
		// replay window — every answer must carry the stale-epoch
		// degrade marking, which only SubmitLocalTree can apply.
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
	rt := s.resolveTree(src, dst, tree)
	rs := sh.state.Load()
	path, tag, ok := sh.cache.GetTagged(src, dst, rt, rs.es.fp)
	if !ok || len(path) == 0 {
		// Not counted as a shard cache miss: the request falls through to
		// the worker, whose own lookup tallies the miss once. The cache
		// only stores delivered (non-empty) paths, but an empty one would
		// underflow every hops computation downstream, so it is treated
		// as a miss rather than trusted.
		return nil, CachedAnswer{}, false
	}
	if n, sampled := s.sample(sh); sampled {
		sh.sampled.Inc()
		sh.ring.Emit(trace.Event{Kind: trace.KindPacket, From: uint32(src), To: uint32(dst), Arg: int32(n)})
		sh.ring.Emit(trace.Event{Kind: trace.KindCacheHit, From: uint32(src), To: uint32(dst)})
	}
	return sh, CachedAnswer{Path: path, Epoch: rs.es.epoch, DetourHops: int(tag), Tree: rt}, true
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
// envelope SubmitTree returns — byte-for-byte what the worker's cache-hit
// branch would have produced.
func responseFromCached(a *CachedAnswer) *Response {
	return &Response{Report: cachedReport(a.Path, uint32(a.DetourHops), a.Tree), Epoch: a.Epoch, CacheHit: true}
}

// worker drains one shard's queue in batches until the channel closes.
func (s *Server) worker(sh *shard) {
	defer s.wg.Done()
	batch := make([]*task, 0, s.cfg.Batch)
	var replies replyBatch
	for {
		t, ok := <-sh.ch
		if !ok {
			return
		}
		batch = append(batch[:0], t)
	fill:
		for len(batch) < s.cfg.Batch {
			select {
			case t2, ok2 := <-sh.ch:
				if !ok2 {
					break fill
				}
				batch = append(batch, t2)
			default:
				break fill
			}
		}
		// One epoch-state load serves the whole batch: requests accepted
		// before a fault mutation may be answered against the new epoch,
		// which is the freshest — never a stale — view.
		rs := sh.state.Load()
		for _, tk := range batch {
			s.process(sh, rs, tk, &replies)
		}
		// One append and one signal per connection lets each
		// connection's writer send the batch's replies in one write. The
		// worker itself never touches a socket.
		replies.publish()
	}
}

// testHookProcess, when non-nil, runs at the top of every process call.
// Tests use it to hold a worker mid-task and observe backpressure
// deterministically.
var testHookProcess func()

// process serves one task on its shard's worker.
func (s *Server) process(sh *shard, rs *shardRouters, t *task, rb *replyBatch) {
	if testHookProcess != nil {
		testHookProcess()
	}
	if t.cresp != nil {
		s.processCollective(sh, rs, t)
		return
	}
	if err := t.ctx.Err(); err != nil {
		// Deadline died in the queue: still answered, still counted.
		rep := &core.RouteReport{Outcome: core.OutcomeCanceled, Reason: err.Error(), TreeID: -1}
		s.finish(sh, t, Response{Report: rep, Epoch: rs.es.epoch}, rb)
		return
	}
	n, sampled := s.sample(sh)

	// rt is the tree the plan lives under — the explicit pin, or the
	// flow stripe the auto routers resolve internally (same hash).
	rt := s.resolveTree(t.src, t.dst, t.tree)
	if sh.cache != nil && !s.cfg.Adaptive {
		// len(path) > 0 mirrors FastRouteTree's guard: only delivered paths
		// are ever stored, but an empty one must not reach cachedReport.
		if path, tag, ok := sh.cache.GetTagged(t.src, t.dst, rt, rs.es.fp); ok && len(path) > 0 {
			sh.cacheHits.Inc()
			if sampled {
				sh.sampled.Inc()
				sh.ring.Emit(trace.Event{Kind: trace.KindPacket, From: uint32(t.src), To: uint32(t.dst), Arg: int32(n)})
				sh.ring.Emit(trace.Event{Kind: trace.KindCacheHit, From: uint32(t.src), To: uint32(t.dst)})
			}
			s.finish(sh, t, Response{Report: cachedReport(path, tag, rt), Epoch: rs.es.epoch, CacheHit: true}, rb)
			return
		}
		sh.cacheMisses.Inc()
	}

	router := rs.plain
	if t.tree >= 0 && rs.pinned != nil && t.tree < len(rs.pinned) {
		router = rs.pinned[t.tree]
	} else if sampled {
		router = rs.traced
	}
	if sampled {
		sh.sampled.Inc()
		sh.ring.Emit(trace.Event{Kind: trace.KindPacket, From: uint32(t.src), To: uint32(t.dst), Arg: int32(n)})
		if sh.cache != nil && !s.cfg.Adaptive {
			sh.ring.Emit(trace.Event{Kind: trace.KindCacheMiss, From: uint32(t.src), To: uint32(t.dst)})
		}
	}
	rep, err := router.RouteContext(t.ctx, t.src, t.dst)
	if err != nil {
		s.finish(sh, t, Response{Err: err, Epoch: rs.es.epoch}, rb)
		return
	}
	if sh.cache != nil && !s.cfg.Adaptive && !rep.Outcome.Undeliverable() && rep.Outcome != core.OutcomeCanceled {
		// The detour tag is stamped once here, at insertion — the planner
		// already knows its hops beyond the fault-free optimum, so no
		// BFS ever runs on a hit, which is what lets FastRouteTree stay
		// allocation- and BFS-free. The epoch token pins the entry to the
		// fault state it was planned against: a Put racing a fault swap
		// is dropped instead of poisoning the new epoch.
		extra := rep.DetourHops
		if extra < 0 {
			extra = 0
		}
		sh.cache.PutTagged(t.src, t.dst, rt, rep.Path, uint32(extra), rs.es.fp)
	}
	s.finish(sh, t, Response{Report: rep, Epoch: rs.es.epoch}, rb)
}

// cachedReport rebuilds a routing envelope from a cached path and its
// insertion-time detour tag. A path longer than the pair's distance
// was planned around faults, so it reports the degraded rung exactly
// like its original route did. tree is the multipath tree the entry is
// keyed under (-1 single-tree).
func cachedReport(path []gc.NodeID, tag uint32, tree int) *core.RouteReport {
	rep := &core.RouteReport{Outcome: core.OutcomeDelivered, Path: path, Hops: len(path) - 1, DetourHops: int(tag), TreeID: tree}
	if tag > 0 {
		rep.Outcome = core.OutcomeDeliveredDegraded
		rep.Reason = "cached detour"
	}
	return rep
}

// finish records one served task and answers it. Every accepted task
// passes through here exactly once — the conservation law the metrics
// and the drain test rely on.
func (s *Server) finish(sh *shard, t *task, r Response, rb *replyBatch) {
	sh.served.Inc()
	sh.latency.Add(float64(time.Since(t.enq).Microseconds()))
	if r.Err != nil {
		sh.errored.Inc()
	} else {
		sh.outcomes[int(r.Report.Outcome)].Inc()
		s.countTree(r.Report.TreeID)
		if !r.Report.Outcome.Undeliverable() && r.Report.Outcome != core.OutcomeCanceled {
			sh.hops.Add(float64(r.Report.Hops))
		}
	}
	s.deliver(&t.request, &r, rb)
}

// ApplyFaults validates and applies a batch of fault mutations as one
// copy-on-write epoch step: the next frozen set is built with
// fault.Set.MutateCopy, the epoch is bumped, every shard's router
// state is swapped atomically and its route cache re-stamped with the
// new fault fingerprint. In-flight requests complete against whichever
// epoch their worker loaded; subsequent batches see the new one.
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
		// The cache is re-stamped and cleared BEFORE the shard's router
		// state is published: no reader can hold the new fingerprint
		// until every cache shard is empty, so a token-checked GetTagged
		// can never pass with the new token against a not-yet-cleared
		// shard and serve an old-epoch path as the new fault state.
		// Readers still holding the old fingerprint fail the token check
		// (the stamp is already new), and their workers' stale PutTagged
		// writes are dropped by the same check — both directions of the
		// swap stay atomic.
		if sh.cache != nil {
			sh.cache.InvalidateTo(es.fp)
		}
		sh.state.Store(s.buildShardRouters(sh, es))
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
// ErrDraining, every queued request is answered, workers exit. It
// returns ctx's error if the drain outlives it (workers keep draining
// regardless). Shutdown is idempotent; concurrent calls all wait for
// the one drain.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	first := !s.draining
	s.draining = true
	s.drain.Store(true) // refuse fast-path answers from here on
	s.mu.Unlock()
	if first {
		// No sender can be in flight: SubmitTree holds mu.RLock around its
		// send and re-checks draining under it.
		for _, sh := range s.shards {
			close(sh.ch)
		}
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		// The journal outlives the workers by one step: every mutation
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
