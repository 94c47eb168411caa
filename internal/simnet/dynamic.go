package simnet

import (
	"container/heap"
	"errors"
	"math/rand"
	"sort"

	"gaussiancube/internal/bitutil"
	"gaussiancube/internal/core"
	"gaussiancube/internal/fault"
	"gaussiancube/internal/gc"
	"gaussiancube/internal/mtree"
	"gaussiancube/internal/repair"
	"gaussiancube/internal/trace"
	"gaussiancube/internal/workload"
)

// runTimeline is the discrete-event engine for runs whose fault state
// evolves (Config.Dynamic / FaultAtCycle) or whose packets route
// per hop (Config.Adaptive). It differs from the static engine in one
// structural way: routing is deferred from generation time to the
// moment a packet's source event pops, so every plan (and every
// adaptive step) sees the fault state of its own cycle, not the state
// at the end of the generation window.
//
// Two forks of the fault schedule are replayed: one during admission
// (generation iterates cycles in ascending order) and one inside the
// event loop (which also visits times in ascending order). The
// caller's Dynamic instance is never mutated.
func runTimeline(cfg Config, cube *gc.Cube, pattern workload.Pattern, service int, trees *mtree.TreeSet) (*Stats, error) {
	var loopDyn, admission *fault.Dynamic
	if cfg.Dynamic != nil {
		loopDyn = cfg.Dynamic.Fork()
		admission = cfg.Dynamic.Fork()
	} else if cfg.FaultAtCycle > 0 && cfg.Faults != nil {
		events := fault.BatchInject(cfg.Faults, cfg.FaultAtCycle)
		loopDyn = fault.NewDynamic(cube, events)
		admission = fault.NewDynamic(cube, events)
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	stats := &Stats{DropReasons: make(map[string]int)}
	initHists(stats, &cfg)
	if trees != nil {
		stats.TreeRoutes = make([]int, trees.K())
	}

	// Ground truth for local discovery in adaptive mode.
	var oracle core.Oracle
	switch {
	case loopDyn != nil:
		oracle = loopDyn
	case cfg.Faults != nil:
		oracle = cfg.Faults
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
		opts := []core.Option{core.WithSubstrate(cfg.Substrate), core.WithRepair(health)}
		if trees != nil {
			opts = append(opts, core.WithTrees(trees)) // stripe per flow; failover rotates
		}
		adaptive = core.NewAdaptiveRouter(cube, oracle, opts...)
	}

	// The static planner routes whole paths against a frozen snapshot
	// of the current fault state; it is rebuilt on every epoch
	// transition.
	var planner, tracedPlanner *core.Router
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
		planner = core.NewRouter(cube, opts...)
		if cfg.TraceEvery > 0 {
			tracedPlanner = core.NewRouter(cube, append(opts, core.WithTracer(cfg.Tracer))...)
		}
	}
	buildPlanner()

	cache := cfg.RouteCache
	if cache == nil && cfg.CacheRoutes && !cfg.Adaptive {
		cache = NewRouteCache(DefaultRouteCacheCapacity)
	}
	if cfg.Adaptive {
		cache = nil // per-hop routing has no source plan to cache
	}
	var cacheInvalidationsBase int64
	if cache != nil {
		cacheInvalidationsBase = cache.Invalidations()
		// Stamp the cache with this run's initial fault state: entries
		// left by a run over a different configuration are dropped here
		// instead of being replayed.
		token := uint64(0)
		if loopDyn != nil {
			token = loopDyn.Fingerprint()
		} else if cfg.Faults != nil {
			token = cfg.Faults.Fingerprint()
		}
		cache.InvalidateTo(token)
	}

	lookupRoute := func(src, dst gc.NodeID, sampled bool) ([]gc.NodeID, error) {
		r := planner
		if sampled {
			r = tracedPlanner
		}
		// Same striping hash as the planner, so cached paths never cross
		// tree boundaries (a reroute re-hashes from the packet's current
		// node, a genuinely different flow).
		tree := -1
		if trees != nil {
			tree = trees.TreeForFlow(src, dst)
			stats.TreeRoutes[tree]++
		}
		if cache != nil {
			if p, ok := cache.GetTree(src, dst, tree); ok {
				stats.RouteCacheHits++
				if sampled {
					narrateCached(cfg.Tracer, cube, src, dst, p)
				}
				return p, nil
			}
			if sampled {
				cfg.Tracer.Emit(trace.Event{Kind: trace.KindCacheMiss, From: uint32(src), To: uint32(dst)})
			}
		}
		res, err := r.Route(src, dst)
		if err != nil {
			return nil, err
		}
		if res.UsedFallback {
			stats.FallbackRoutes++
		}
		if cache != nil {
			cache.PutTree(src, dst, tree, res.Path)
		}
		return res.Path, nil
	}

	// Admission: offered traffic enters the queue unrouted; assumption 1
	// filtering uses the fault state of the emission cycle.
	var queue eventQueue
	seq := 0
	faultyAt := func(v gc.NodeID, t int) bool {
		if admission != nil {
			admission.AdvanceTo(t)
			return admission.NodeFaulty(v)
		}
		return cfg.Faults != nil && cfg.Faults.NodeFaulty(v)
	}
	offer := func(src, dst gc.NodeID, t int) {
		stats.Generated++
		pk := &packet{created: t, dst: dst}
		if cfg.TraceEvery > 0 && (stats.Generated-1)%cfg.TraceEvery == 0 {
			stats.Traced++
			pk.sampled = true
			pk.genIdx = int32(stats.Generated - 1)
		}
		seq++
		heap.Push(&queue, &event{
			time:   t,
			seq:    seq,
			packet: pk,
			node:   src,
		})
	}
	nodes := cube.Nodes()
	if cfg.Trace != nil {
		// Trace times must be non-decreasing for the admission fork to
		// replay fault state correctly; sort defensively.
		pkts := cfg.Trace
		if !sort.SliceIsSorted(pkts, func(i, j int) bool { return pkts[i].Time < pkts[j].Time }) {
			pkts = append([]Packet(nil), pkts...)
			sort.SliceStable(pkts, func(i, j int) bool { return pkts[i].Time < pkts[j].Time })
		}
		for _, p := range pkts {
			if faultyAt(p.Src, p.Time) || faultyAt(p.Dst, p.Time) {
				continue
			}
			offer(p.Src, p.Dst, p.Time)
		}
	} else {
	gen:
		for t := 0; t < cfg.GenCycles; t++ {
			for v := 0; v < nodes; v++ {
				if rng.Float64() >= cfg.Arrival {
					continue
				}
				src := gc.NodeID(v)
				if faultyAt(src, t) {
					continue // assumption 1: faulty nodes generate nothing
				}
				dst, ok := pickDest(rng, pattern, src,
					func(v gc.NodeID) bool { return faultyAt(v, t) }, nodes)
				if !ok {
					continue
				}
				offer(src, dst, t)
				if cfg.MaxPackets > 0 && stats.Generated >= cfg.MaxPackets {
					break gen
				}
			}
		}
	}

	linkFree := make(map[linkID]int)
	linkCount := make(map[linkID]int)
	deliver := func(e *event, p *packet, hops int) {
		stats.Delivered++
		if p.created >= cfg.Warmup {
			stats.Measured++
			stats.Latency.Add(float64(e.time - p.created))
			stats.Hops.Add(float64(hops))
			if stats.LatencyHist != nil {
				stats.LatencyHist.Add(float64(e.time - p.created))
			}
			if stats.HopHist != nil {
				stats.HopHist.Add(float64(hops))
			}
		}
		if e.time > stats.Makespan {
			stats.Makespan = e.time
		}
	}
	move := func(e *event, next gc.NodeID) {
		ready := e.time + service
		stats.NodeBusy += float64(service)
		l := linkID{from: e.node, to: next}
		dep := ready
		if free, okf := linkFree[l]; okf && free > dep {
			dep = free
		}
		linkFree[l] = dep + 1
		linkCount[l]++
		seq++
		e.time, e.seq, e.node = dep+1, seq, next
		heap.Push(&queue, e)
	}
	requeue := func(e *event, wait int) {
		seq++
		e.time, e.seq = e.time+wait, seq
		heap.Push(&queue, e)
	}

	for queue.Len() > 0 {
		e := heap.Pop(&queue).(*event)
		if loopDyn != nil && loopDyn.AdvanceTo(e.time) {
			buildPlanner()
			if cache != nil {
				cache.InvalidateTo(loopDyn.Fingerprint())
			}
		}
		p := e.packet
		if cfg.Adaptive {
			stepAdaptive(e, p, adaptive, cfg.Tracer, stats, deliver, move, requeue)
			continue
		}

		// Static plan-at-source forwarding over the evolving network.
		if p.path == nil {
			// Routing happens here, at emission time; the marker and the
			// route narrative are emitted synchronously, so the sampled
			// packet's segment stays contiguous in the stream.
			if p.sampled {
				cfg.Tracer.Emit(trace.Event{Kind: trace.KindPacket, From: uint32(e.node), To: uint32(p.dst), Arg: p.genIdx})
			}
			path, err := lookupRoute(e.node, p.dst, p.sampled)
			if err != nil {
				stats.Undeliverable++
				if errors.Is(err, core.ErrPartitioned) {
					stats.Partitioned++
				}
				continue
			}
			p.path, p.idx = path, 0
		}
		if p.idx == len(p.path)-1 {
			deliver(e, p, len(p.path)-1)
			continue
		}
		next := p.path[p.idx+1]
		if loopDyn != nil {
			// The planned route may have been computed before the last
			// fault transition.
			dim := uint(bitutil.LowestBit(uint64(e.node ^ next)))
			if loopDyn.NodeFaulty(e.node) || loopDyn.NodeFaulty(p.dst) {
				stats.Dropped++
				continue
			}
			if loopDyn.LinkFaulty(e.node, dim) || loopDyn.NodeFaulty(next) {
				// A sampled packet's reroute opens a fresh segment under the
				// same generation index; the "reroute" note ties the two.
				if p.sampled {
					cfg.Tracer.Emit(trace.Event{Kind: trace.KindPacket, From: uint32(e.node), To: uint32(p.dst), Arg: p.genIdx, Note: "reroute"})
				}
				path, err := lookupRoute(e.node, p.dst, p.sampled)
				if err != nil {
					stats.Dropped++
					if errors.Is(err, core.ErrPartitioned) {
						stats.Partitioned++
					}
					continue
				}
				stats.Rerouted++
				p.path, p.idx = path, 0
				next = p.path[1]
			}
		}
		p.idx++
		move(e, next)
	}

	for l, n := range linkCount {
		stats.LinkLoad.Add(float64(n))
		stats.Hottest = append(stats.Hottest, LinkLoad{From: l.from, To: l.to, Count: n})
	}
	sort.Slice(stats.Hottest, func(i, j int) bool {
		if stats.Hottest[i].Count != stats.Hottest[j].Count {
			return stats.Hottest[i].Count > stats.Hottest[j].Count
		}
		if stats.Hottest[i].From != stats.Hottest[j].From {
			return stats.Hottest[i].From < stats.Hottest[j].From
		}
		return stats.Hottest[i].To < stats.Hottest[j].To
	})
	if len(stats.Hottest) > 5 {
		stats.Hottest = stats.Hottest[:5]
	}
	if loopDyn != nil {
		stats.Epochs = int(loopDyn.Epoch())
	}
	if cache != nil {
		stats.CacheInvalidations = int(cache.Invalidations() - cacheInvalidationsBase)
	}
	return stats, nil
}

// stepAdaptive advances one adaptive packet by one stepper decision.
// A sampled packet's flight narrates into its private ring (the event
// loop interleaves flights, so emitting straight into the shared
// tracer would shuffle the streams); the buffered segment is flushed
// to tr in one piece when the flight terminates.
func stepAdaptive(e *event, p *packet, ar *core.AdaptiveRouter, tr trace.Tracer, stats *Stats,
	deliver func(*event, *packet, int), move func(*event, gc.NodeID),
	requeue func(*event, int)) {
	if p.flight == nil {
		var fl *core.Flight
		var err error
		if p.sampled {
			p.ring = trace.NewRing(flightTraceCapacity)
			p.ring.Emit(trace.Event{Kind: trace.KindPacket, From: uint32(e.node), To: uint32(p.dst), Arg: p.genIdx})
			fl, err = ar.StartTraced(e.node, p.dst, p.ring)
		} else {
			fl, err = ar.Start(e.node, p.dst)
		}
		if err != nil {
			// The source died between admission and emission.
			stats.Undeliverable++
			flushFlightTrace(tr, p)
			return
		}
		if stats.TreeRoutes != nil && fl.Tree() >= 0 {
			stats.TreeRoutes[fl.Tree()]++
		}
		p.flight = fl
	}
	st := p.flight.Step()
	switch st.Kind {
	case core.StepWait:
		// Flight tracks its own waited total; folded in at termination.
		requeue(e, st.Wait)
	case core.StepMove:
		move(e, st.To)
	case core.StepDone:
		finishAdaptive(stats, p.flight)
		if p.flight.Degraded() {
			stats.Degraded++
		}
		stats.DetourHops.Add(float64(p.flight.DetourHops()))
		flushFlightTrace(tr, p)
		deliver(e, p, p.flight.Hops())
	case core.StepFail:
		finishAdaptive(stats, p.flight)
		stats.DropReasons[st.Reason]++
		if st.Outcome == core.OutcomeUndeliverablePartitioned {
			stats.Partitioned++
		}
		if p.flight.Hops() == 0 {
			stats.Undeliverable++
		} else {
			stats.Dropped++
		}
		flushFlightTrace(tr, p)
	}
}

// flightTraceCapacity bounds a sampled flight's private event buffer.
// A flight is TTL-bounded (8·(n+1) hops by default) and emits a
// handful of events per hop, so 4096 never wraps in practice; if an
// extreme configuration does wrap, the ring keeps the newest events
// and the flush preserves what survived.
const flightTraceCapacity = 4096

// flushFlightTrace copies a terminated sampled flight's buffered
// narrative into the run tracer as one contiguous segment.
func flushFlightTrace(tr trace.Tracer, p *packet) {
	if p.ring == nil {
		return
	}
	for _, ev := range p.ring.Events() {
		tr.Emit(ev)
	}
	p.ring = nil
}

// finishAdaptive folds a terminal flight's counters into the stats.
func finishAdaptive(stats *Stats, f *core.Flight) {
	stats.Retries += f.Retries()
	stats.Replans += f.Replans()
	stats.WaitCycles += f.WaitCycles()
}
