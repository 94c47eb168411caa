package simnet

import (
	"context"
	"errors"
	"math"
	"math/bits"
	"math/rand"
	"sort"
	"sync"

	"gaussiancube/internal/core"
	"gaussiancube/internal/fault"
	"gaussiancube/internal/gc"
	"gaussiancube/internal/mtree"
	"gaussiancube/internal/repair"
	"gaussiancube/internal/trace"
	"gaussiancube/internal/workload"
)

// engine is the discrete-event core behind Run. Packets live by value
// in one per-run slice, a cycle calendar orders their pending events,
// and a dense link ledger serializes every directed link.
type engine struct {
	cfg     *Config
	cube    *gc.Cube
	service int
	stats   *Stats
	pkts    []packet
	cal     calendar
	links   *ledger

	// Planning: router plans whole paths (narrating a sampled packet's
	// into the run's tracer); trees stripes flows; cache memoizes plans
	// across the run.
	router *core.Router
	trees  *mtree.TreeSet
	cache  *RouteCache
}

// packet is one offered packet's state.
type packet struct {
	path    []gc.NodeID // source plan (nil until planned, and after termination)
	idx     int         // position of node within path
	node    gc.NodeID   // current node
	dst     gc.NodeID
	created int
	// flight is the per-hop adaptive routing state (Config.Adaptive
	// only; nil otherwise and after termination).
	flight *core.Flight
	// sampled marks the packet for route tracing (Config.TraceEvery);
	// genIdx is its offered position, carried in the KindPacket marker.
	sampled bool
	genIdx  int32
	// ring buffers a sampled adaptive flight's events privately so
	// interleaved flights stay contiguous; flushed at termination.
	ring *trace.Ring
}

// run simulates the offered load and returns the run's statistics.
//
// With one fixed fault state and source routing the run is eager:
// every packet is planned as it is offered, in offer order. When the
// fault state evolves (Config.Dynamic / FaultAtCycle) or packets route
// per hop (Config.Adaptive), planning waits for the packet's first
// pop instead, so every plan (and every adaptive step) sees the fault
// state of its own cycle; in-flight packets whose planned next hop has
// died are rerouted from their current node or dropped.
//
// A fault timeline is replayed from two forks of its schedule: one
// during admission (which visits cycles in ascending order) and one
// inside the event loop (which does too). The caller's Dynamic
// instance is never mutated.
func (e *engine) run() *Stats {
	cfg, cube, trees := e.cfg, e.cube, e.trees
	stats := &Stats{}
	e.stats = stats
	initHists(stats, cfg)
	if trees != nil {
		stats.TreeRoutes = make([]int, trees.K())
	}
	e.links = newLedger(cube)
	// Size the packet slice for the whole offered load up front: the
	// trace length, or the Bernoulli count's mean plus four standard
	// deviations.
	n := len(cfg.Trace)
	if cfg.Trace == nil {
		mean := cfg.Arrival * float64(cube.Nodes()) * float64(cfg.GenCycles)
		n = int(mean + 4*math.Sqrt(mean))
		if cfg.MaxPackets > 0 && cfg.MaxPackets < n {
			n = cfg.MaxPackets
		}
	}
	e.pkts = make([]packet, 0, n)
	e.cal.link = make([]int32, 0, n)

	var loopDyn, admission *fault.Dynamic
	if cfg.Dynamic != nil {
		loopDyn = cfg.Dynamic.Fork()
		admission = cfg.Dynamic.Fork()
	} else if cfg.FaultAtCycle > 0 && cfg.Faults != nil {
		events := fault.BatchInject(cfg.Faults, cfg.FaultAtCycle)
		loopDyn = fault.NewDynamic(cube, events)
		admission = fault.NewDynamic(cube, events)
	}
	eager := loopDyn == nil && !cfg.Adaptive
	if !eager {
		stats.DropReasons = make(map[string]int)
	}

	// The tree-edge health map tracks the loop fork incrementally (one
	// counter bump per fault transition); with a static fault set it is
	// built once.
	var health *repair.Health
	if cfg.Repair {
		health = repair.NewHealth(cube)
		if loopDyn != nil {
			health.AttachDynamic(loopDyn)
		} else {
			health.Rebuild(cfg.Faults)
		}
	}
	var adaptive *core.AdaptiveRouter
	if cfg.Adaptive {
		// Ground truth for local discovery.
		var oracle core.Oracle
		switch {
		case loopDyn != nil:
			oracle = loopDyn
		case cfg.Faults != nil:
			oracle = cfg.Faults
		}
		opts := []core.Option{core.WithSubstrate(cfg.Substrate), core.WithRepair(health)}
		if trees != nil {
			opts = append(opts, core.WithTrees(trees)) // stripe per flow; failover rotates
		}
		adaptive = core.NewAdaptiveRouter(cube, oracle, opts...)
	}

	// The static planner routes whole paths against a frozen snapshot
	// of the current fault state; it is rebuilt on every epoch
	// transition.
	buildPlanner := func() {
		opts := []core.Option{core.WithSubstrate(cfg.Substrate)}
		switch {
		case loopDyn != nil:
			opts = append(opts, core.WithFaults(loopDyn.Snapshot()))
		case cfg.Faults != nil:
			opts = append(opts, core.WithFaults(cfg.Faults))
		}
		if health != nil {
			opts = append(opts, core.WithRepair(health))
		}
		if trees != nil {
			opts = append(opts, core.WithTrees(trees))
		}
		e.router = core.NewRouter(cube, opts...)
	}
	buildPlanner()

	// The route cache, when the run has one, is stamped with the fault
	// state the run starts from, so entries left by a run over a
	// different configuration are flushed, not replayed. Per-hop routing
	// has no source plan to cache.
	if !cfg.Adaptive {
		e.cache = cfg.RouteCache
		if e.cache == nil && cfg.CacheRoutes {
			e.cache = NewRouteCache(DefaultRouteCacheCapacity)
		}
	}
	var cacheBase int64
	if e.cache != nil {
		cacheBase = e.cache.Invalidations()
		token := uint64(0)
		if loopDyn != nil {
			token = loopDyn.Fingerprint()
		} else if cfg.Faults != nil {
			token = cfg.Faults.Fingerprint()
		}
		e.cache.InvalidateTo(token)
	}

	// Admission: assumption 1 filtering uses the fault state of the
	// emission cycle. A fault timeline's admission fork needs trace
	// times in non-decreasing order, so a timeline run sorts the trace;
	// an eager run plans in the trace's own order.
	faultyAt := func(v gc.NodeID, t int) bool {
		if admission != nil {
			admission.AdvanceTo(t)
			return admission.NodeFaulty(v)
		}
		return cfg.Faults != nil && cfg.Faults.NodeFaulty(v)
	}
	offered := cfg.Trace
	if !eager && !sort.SliceIsSorted(offered, func(i, j int) bool { return offered[i].Time < offered[j].Time }) {
		offered = append([]Packet(nil), offered...)
		sort.SliceStable(offered, func(i, j int) bool { return offered[i].Time < offered[j].Time })
	}
	e.admit(offered, faultyAt, func(src, dst gc.NodeID, t int) {
		stats.Generated++
		p := packet{node: src, dst: dst, created: t}
		if cfg.TraceEvery > 0 && (stats.Generated-1)%cfg.TraceEvery == 0 {
			stats.Traced++
			p.sampled, p.genIdx = true, int32(stats.Generated-1)
		}
		if eager && !e.plan(&p, "", &stats.Undeliverable) {
			return
		}
		e.pkts = append(e.pkts, p)
		e.cal.push(t, int32(len(e.pkts)-1))
	})

	for {
		i, t, ok := e.cal.pop()
		if !ok {
			break
		}
		if loopDyn != nil && loopDyn.AdvanceTo(t) {
			buildPlanner()
			if e.cache != nil {
				e.cache.InvalidateTo(loopDyn.Fingerprint())
			}
		}
		if cfg.Adaptive {
			stepAdaptive(e, i, t, adaptive)
			continue
		}
		// Source-planned forwarding; a deferred plan is made here, at
		// emission time.
		p := &e.pkts[i]
		if p.path == nil && !e.plan(p, "", &stats.Undeliverable) {
			continue
		}
		if p.idx == len(p.path)-1 {
			e.deliver(p, t, len(p.path)-1)
			continue
		}
		next := p.path[p.idx+1]
		if loopDyn != nil {
			// The planned route may have been computed before the last
			// fault transition.
			dim := uint(bits.TrailingZeros32(uint32(p.node ^ next)))
			if loopDyn.NodeFaulty(p.node) || loopDyn.NodeFaulty(p.dst) {
				stats.Dropped++
				continue
			}
			if loopDyn.LinkFaulty(p.node, dim) || loopDyn.NodeFaulty(next) {
				// A sampled packet's reroute opens a fresh segment under the
				// same generation index; the "reroute" note ties the two.
				if !e.plan(p, "reroute", &stats.Dropped) {
					continue
				}
				stats.Rerouted++
				next = p.path[1]
			}
		}
		p.idx++
		e.move(i, t, next)
	}

	if loopDyn != nil {
		stats.Epochs = int(loopDyn.Epoch())
	}
	e.links.fold(stats)
	ledgers.Put(e.links)
	if e.cache != nil {
		stats.CacheInvalidations = int(e.cache.Invalidations() - cacheBase)
	}
	return stats
}

// route plans src→dst, through the cache when the run has one.
func (e *engine) route(src, dst gc.NodeID, sampled bool) ([]gc.NodeID, error) {
	stats := e.stats
	// The cache key carries the flow's tree, and the router plans on
	// that same tree, so a hit always replays a path planned on the tree
	// that would plan it now (a reroute re-stripes from the packet's
	// current node, a genuinely different flow).
	tree := e.trees.Resolve(core.TreeAuto, src, dst)
	if tree >= 0 {
		stats.TreeRoutes[tree]++
	}
	if e.cache != nil {
		if p, ok := e.cache.GetTree(src, dst, tree); ok {
			stats.RouteCacheHits++
			if sampled {
				narrateCached(e.cfg.Tracer, e.cube, src, dst, p)
			}
			return p, nil
		}
		if sampled {
			e.cfg.Tracer.Emit(trace.Event{Kind: trace.KindCacheMiss, From: uint32(src), To: uint32(dst)})
		}
	}
	var tr trace.Tracer
	if sampled {
		tr = e.cfg.Tracer
	}
	path, m, err := e.router.AppendRoute(context.Background(), nil, src, dst, tree, tr)
	if err != nil {
		return nil, err
	}
	if m.Fallback {
		stats.FallbackRoutes++
	}
	if e.cache != nil {
		e.cache.PutTree(src, dst, tree, path)
	}
	return path, nil
}

// plan routes p from its current node, first emitting a sampled
// packet's KindPacket marker (with note, which ties a reroute's fresh
// segment to the first). When no route exists it counts the packet
// under *refused (the Undeliverable or Dropped tally), and under
// Partitioned when the refusal carries a partition proof.
func (e *engine) plan(p *packet, note string, refused *int) bool {
	if p.sampled {
		e.cfg.Tracer.Emit(trace.Event{Kind: trace.KindPacket, From: uint32(p.node), To: uint32(p.dst), Arg: p.genIdx, Note: note})
	}
	path, err := e.route(p.node, p.dst, p.sampled)
	if err != nil {
		*refused++
		if errors.Is(err, core.ErrPartitioned) {
			e.stats.Partitioned++
		}
		return false
	}
	p.path, p.idx = path, 0
	return true
}

// admit generates the offered load and hands each packet to emit, in
// offer order: the offered trace's packets, or a Bernoulli(Arrival)
// trial per node per cycle of the generation window. faultyAt reports
// whether a node is faulty at a cycle; faulty nodes neither send nor
// receive (assumption 1).
func (e *engine) admit(offered []Packet, faultyAt func(gc.NodeID, int) bool, emit func(src, dst gc.NodeID, t int)) {
	cfg := e.cfg
	if offered != nil {
		for _, p := range offered {
			if faultyAt(p.Src, p.Time) || faultyAt(p.Dst, p.Time) {
				continue
			}
			emit(p.Src, p.Dst, p.Time)
		}
		return
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	pattern := cfg.Pattern
	if pattern == nil {
		pattern = workload.Uniform{Bits: cfg.N}
	}
	nodes := e.cube.Nodes()
	for t := 0; t < cfg.GenCycles; t++ {
		for v := 0; v < nodes; v++ {
			if rng.Float64() >= cfg.Arrival {
				continue
			}
			src := gc.NodeID(v)
			if faultyAt(src, t) {
				continue
			}
			dst, ok := pickDest(rng, pattern, src, faultyAt, t, nodes)
			if !ok {
				continue
			}
			emit(src, dst, t)
			if cfg.MaxPackets > 0 && e.stats.Generated >= cfg.MaxPackets {
				return
			}
		}
	}
}

// move sends packet i, at cycle t, across the link from its current
// node to next: it leaves once the node's service delay has passed
// and the link is free, and arrives one cycle later.
func (e *engine) move(i int32, t int, next gc.NodeID) {
	p := &e.pkts[i]
	e.stats.NodeBusy += float64(e.service)
	arrive := e.links.reserve(p.node, next, t+e.service-e.cal.base) + e.cal.base
	p.node = next
	e.cal.push(arrive, i)
}

// deliver records packet p's arrival at its destination at cycle t
// after hops hops.
func (e *engine) deliver(p *packet, t, hops int) {
	stats := e.stats
	stats.Delivered++
	if p.created >= e.cfg.Warmup {
		stats.Measured++
		stats.Latency.Add(float64(t - p.created))
		stats.Hops.Add(float64(hops))
		if stats.LatencyHist != nil {
			stats.LatencyHist.Add(float64(t - p.created))
		}
		if stats.HopHist != nil {
			stats.HopHist.Add(float64(hops))
		}
	}
	if t > stats.Makespan {
		stats.Makespan = t
	}
	p.path = nil
}

// calendar is a monotone bucket queue of packet events: one FIFO of
// packet indices per cycle, from the earliest cycle pushed. Once the
// drain starts, no push lands before the cycle being drained, so
// popping bucket by bucket, each in push order, yields exactly the
// (time, push order) order of a binary heap keyed on both.
//
// A packet has at most one pending event, so the FIFOs are threaded
// through one link per packet and pushing allocates nothing but the
// per-cycle bucket array's growth: 8 bytes per cycle of the run's span.
type calendar struct {
	base    int      // cycle of buckets[0]
	buckets []bucket // buckets[k] holds the events of cycle base+k
	cur     int      // the bucket being drained
	link    []int32  // link[i]: the packet after i in its bucket, plus one (0 ends it)
}

// bucket is one cycle's FIFO: its first and last packet, plus one (0
// when empty).
type bucket struct{ head, tail int32 }

// push schedules packet i at cycle t.
func (c *calendar) push(t int, i int32) {
	if len(c.buckets) == 0 {
		c.base = t
	}
	if t < c.base {
		// Only admission, before the drain starts, reaches back before
		// the first cycle (an unsorted trace): shift the buckets up.
		grown := make([]bucket, len(c.buckets)+c.base-t)
		copy(grown[c.base-t:], c.buckets)
		c.buckets, c.base = grown, t
	}
	k := t - c.base
	if k < c.cur {
		panic("simnet: calendar push before the cycle being drained")
	}
	for k >= len(c.buckets) {
		c.buckets = append(c.buckets, bucket{})
	}
	for int(i) >= len(c.link) {
		c.link = append(c.link, 0)
	}
	c.link[i] = 0
	b := &c.buckets[k]
	if b.tail == 0 {
		b.head = i + 1
	} else {
		c.link[b.tail-1] = i + 1
	}
	b.tail = i + 1
}

// pop removes the earliest pending event and returns its packet and
// cycle; ok is false once the calendar is empty.
func (c *calendar) pop() (i int32, t int, ok bool) {
	for ; c.cur < len(c.buckets); c.cur++ {
		b := &c.buckets[c.cur]
		if b.head == 0 {
			continue
		}
		i = b.head - 1
		b.head = c.link[i]
		if b.head == 0 {
			b.tail = 0
		}
		return i, c.base + c.cur, true
	}
	return 0, 0, false
}

// ledger is the per-directed-link state: slot node*n + dim is the link
// leaving node along dimension dim.
type ledger struct {
	stride int
	slots  []linkSlot
}

// ledgers pools ledgers across runs: a run's ledger is the largest
// object it allocates, one slot per directed link. A run returns its
// ledger after folding it.
var ledgers sync.Pool

// linkSlot is one directed link's next free cycle, relative to the
// calendar's base (0 never binds: every departure is later), and its
// traversal count.
type linkSlot struct{ free, count int32 }

// newLedger returns an all-zero ledger for cube, reusing a pooled one.
func newLedger(cube *gc.Cube) *ledger {
	l, _ := ledgers.Get().(*ledger)
	if l == nil {
		l = new(ledger)
	}
	l.stride = int(cube.N())
	if n := cube.Nodes() * l.stride; cap(l.slots) < n {
		l.slots = make([]linkSlot, n)
	} else {
		l.slots = l.slots[:n]
		clear(l.slots)
	}
	return l
}

// reserve books the link from→to for a packet ready to leave at cycle
// ready and returns the cycle it arrives at to: a link carries one
// packet per cycle, in request order.
func (l *ledger) reserve(from, to gc.NodeID, ready int) int {
	s := &l.slots[int(from)*l.stride+bits.TrailingZeros32(uint32(from^to))]
	dep := int32(ready)
	if s.free > dep {
		dep = s.free
	}
	s.free = dep + 1
	s.count++
	return int(dep) + 1
}

// fold adds every used link's count to stats.LinkLoad in link-index
// order, so identical runs fold identical streams, and keeps the five
// hottest links in the same pass.
func (l *ledger) fold(stats *Stats) {
	var top [5]LinkLoad
	k := 0
	for i, s := range l.slots {
		if s.count == 0 {
			continue
		}
		stats.LinkLoad.Add(float64(s.count))
		from := gc.NodeID(i / l.stride)
		ll := LinkLoad{From: from, To: from ^ 1<<(i%l.stride), Count: int(s.count)}
		if k == len(top) && !hotter(ll, top[k-1]) {
			continue
		}
		if k < len(top) {
			k++
		}
		j := k - 1
		for ; j > 0 && hotter(ll, top[j-1]); j-- {
			top[j] = top[j-1]
		}
		top[j] = ll
	}
	if k > 0 {
		stats.Hottest = append([]LinkLoad(nil), top[:k]...)
	}
}

// hotter orders links by count descending, then From, then To.
func hotter(a, b LinkLoad) bool {
	if a.Count != b.Count {
		return a.Count > b.Count
	}
	if a.From != b.From {
		return a.From < b.From
	}
	return a.To < b.To
}
