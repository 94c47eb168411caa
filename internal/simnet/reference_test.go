package simnet

import (
	"container/heap"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"gaussiancube/internal/bitutil"
	"gaussiancube/internal/core"
	"gaussiancube/internal/fault"
	"gaussiancube/internal/gc"
	"gaussiancube/internal/mtree"
	"gaussiancube/internal/repair"
	"gaussiancube/internal/workload"
)

// This file keeps the simulator as it was before the cycle calendar: an
// eager loop and a timeline loop, each with a binary heap of
// (time, seq) events over pointer packets, link state in maps keyed by
// (from, to), and a sort of every used link for the hottest five.
// refRun is the differential oracle for Run; it shares no queue,
// ledger or packet code with the engine under test.

type refEvent struct {
	time   int
	seq    int
	packet *refPacket
	node   gc.NodeID
}

type refPacket struct {
	path    []gc.NodeID
	idx     int
	created int
	dst     gc.NodeID
	flight  *core.Flight
}

type refQueue []*refEvent

func (q refQueue) Len() int { return len(q) }
func (q refQueue) Less(i, j int) bool {
	if q[i].time != q[j].time {
		return q[i].time < q[j].time
	}
	return q[i].seq < q[j].seq
}
func (q refQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *refQueue) Push(x any)   { *q = append(*q, x.(*refEvent)) }
func (q *refQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	*q = old[:n-1]
	return e
}

type refLinkID struct{ from, to gc.NodeID }

// refFold is the map-order LinkLoad fold and the full sort behind
// Hottest.
func refFold(stats *Stats, linkCount map[refLinkID]int) {
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
}

// refRun is Run over the heap and maps; it hands timeline runs to
// refTimeline.
func refRun(cfg Config) (*Stats, error) {
	service := cfg.ServiceCycles
	if service <= 0 {
		service = 1
	}
	cube := gc.New(cfg.N, cfg.Alpha)
	pattern := cfg.Pattern
	if pattern == nil {
		pattern = workload.Uniform{Bits: cfg.N}
	}
	var trees *mtree.TreeSet
	if cfg.Trees > 1 {
		var err error
		trees, err = mtree.New(cube, cfg.Trees)
		if err != nil {
			return nil, err
		}
	}
	if cfg.Dynamic != nil || cfg.Adaptive || (cfg.FaultAtCycle > 0 && cfg.Faults != nil) {
		return refTimeline(cfg, cube, pattern, service, trees)
	}
	opts := []core.Option{core.WithSubstrate(cfg.Substrate)}
	if cfg.Faults != nil {
		opts = append(opts, core.WithFaults(cfg.Faults))
	}
	if cfg.Repair {
		health := repair.NewHealth(cube)
		health.Rebuild(cfg.Faults)
		opts = append(opts, core.WithRepair(health))
	}
	if trees != nil {
		opts = append(opts, core.WithTrees(trees))
	}
	router := core.NewRouter(cube, opts...)
	rng := rand.New(rand.NewSource(cfg.Seed))

	stats := &Stats{}
	initHists(stats, &cfg)
	if trees != nil {
		stats.TreeRoutes = make([]int, trees.K())
	}
	var queue refQueue
	seq := 0

	cache := cfg.RouteCache
	if cache == nil && cfg.CacheRoutes {
		cache = NewRouteCache(DefaultRouteCacheCapacity)
	}
	if cache != nil {
		base := cache.Invalidations()
		token := uint64(0)
		if cfg.Faults != nil {
			token = cfg.Faults.Fingerprint()
		}
		cache.InvalidateTo(token)
		defer func() { stats.CacheInvalidations = int(cache.Invalidations() - base) }()
	}
	lookupRoute := func(src, dst gc.NodeID) ([]gc.NodeID, error) {
		tree := -1
		if trees != nil {
			tree = trees.TreeForFlow(src, dst)
			stats.TreeRoutes[tree]++
		}
		if cache != nil {
			if p, ok := cache.GetTree(src, dst, tree); ok {
				stats.RouteCacheHits++
				return p, nil
			}
		}
		res, err := router.Route(src, dst)
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

	inject := func(src, dst gc.NodeID, t int) {
		stats.Generated++
		path, err := lookupRoute(src, dst)
		if err != nil {
			stats.Undeliverable++
			if errors.Is(err, core.ErrPartitioned) {
				stats.Partitioned++
			}
			return
		}
		seq++
		heap.Push(&queue, &refEvent{time: t, seq: seq, packet: &refPacket{path: path, created: t, dst: dst}, node: src})
	}

	faulty := func(v gc.NodeID) bool {
		return cfg.Faults != nil && cfg.Faults.NodeFaulty(v)
	}
	nodes := cube.Nodes()
	if cfg.Trace != nil {
		for _, p := range cfg.Trace {
			if faulty(p.Src) || faulty(p.Dst) {
				continue
			}
			inject(p.Src, p.Dst, p.Time)
		}
	} else {
	gen:
		for t := 0; t < cfg.GenCycles; t++ {
			for v := 0; v < nodes; v++ {
				if rng.Float64() >= cfg.Arrival {
					continue
				}
				src := gc.NodeID(v)
				if faulty(src) {
					continue
				}
				dst, ok := refPickDest(rng, pattern, src, faulty, nodes)
				if !ok {
					continue
				}
				inject(src, dst, t)
				if cfg.MaxPackets > 0 && stats.Generated >= cfg.MaxPackets {
					break gen
				}
			}
		}
	}

	linkFree := make(map[refLinkID]int)
	linkCount := make(map[refLinkID]int)
	for queue.Len() > 0 {
		e := heap.Pop(&queue).(*refEvent)
		p := e.packet
		if p.idx == len(p.path)-1 {
			stats.Delivered++
			if p.created >= cfg.Warmup {
				stats.Measured++
				stats.Latency.Add(float64(e.time - p.created))
				stats.Hops.Add(float64(len(p.path) - 1))
				if stats.LatencyHist != nil {
					stats.LatencyHist.Add(float64(e.time - p.created))
				}
				if stats.HopHist != nil {
					stats.HopHist.Add(float64(len(p.path) - 1))
				}
			}
			if e.time > stats.Makespan {
				stats.Makespan = e.time
			}
			continue
		}
		next := p.path[p.idx+1]
		ready := e.time + service
		stats.NodeBusy += float64(service)
		l := refLinkID{from: e.node, to: next}
		dep := ready
		if free, okf := linkFree[l]; okf && free > dep {
			dep = free
		}
		linkFree[l] = dep + 1
		linkCount[l]++
		p.idx++
		seq++
		e.time, e.seq, e.node = dep+1, seq, next
		heap.Push(&queue, e)
	}
	refFold(stats, linkCount)
	return stats, nil
}

// refTimeline is the timeline loop (Dynamic, FaultAtCycle, Adaptive)
// over the heap and maps.
func refTimeline(cfg Config, cube *gc.Cube, pattern workload.Pattern, service int, trees *mtree.TreeSet) (*Stats, error) {
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
	var oracle core.Oracle
	switch {
	case loopDyn != nil:
		oracle = loopDyn
	case cfg.Faults != nil:
		oracle = cfg.Faults
	}
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
			opts = append(opts, core.WithTrees(trees))
		}
		adaptive = core.NewAdaptiveRouter(cube, oracle, opts...)
	}
	var planner *core.Router
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
	}
	buildPlanner()

	cache := cfg.RouteCache
	if cache == nil && cfg.CacheRoutes && !cfg.Adaptive {
		cache = NewRouteCache(DefaultRouteCacheCapacity)
	}
	if cfg.Adaptive {
		cache = nil
	}
	var cacheInvalidationsBase int64
	if cache != nil {
		cacheInvalidationsBase = cache.Invalidations()
		token := uint64(0)
		if loopDyn != nil {
			token = loopDyn.Fingerprint()
		} else if cfg.Faults != nil {
			token = cfg.Faults.Fingerprint()
		}
		cache.InvalidateTo(token)
	}
	lookupRoute := func(src, dst gc.NodeID) ([]gc.NodeID, error) {
		tree := -1
		if trees != nil {
			tree = trees.TreeForFlow(src, dst)
			stats.TreeRoutes[tree]++
		}
		if cache != nil {
			if p, ok := cache.GetTree(src, dst, tree); ok {
				stats.RouteCacheHits++
				return p, nil
			}
		}
		res, err := planner.Route(src, dst)
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

	var queue refQueue
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
		seq++
		heap.Push(&queue, &refEvent{time: t, seq: seq, packet: &refPacket{created: t, dst: dst}, node: src})
	}
	nodes := cube.Nodes()
	if cfg.Trace != nil {
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
					continue
				}
				dst, ok := refPickDest(rng, pattern, src,
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

	linkFree := make(map[refLinkID]int)
	linkCount := make(map[refLinkID]int)
	deliver := func(e *refEvent, p *refPacket, hops int) {
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
	move := func(e *refEvent, next gc.NodeID) {
		ready := e.time + service
		stats.NodeBusy += float64(service)
		l := refLinkID{from: e.node, to: next}
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

	for queue.Len() > 0 {
		e := heap.Pop(&queue).(*refEvent)
		if loopDyn != nil && loopDyn.AdvanceTo(e.time) {
			buildPlanner()
			if cache != nil {
				cache.InvalidateTo(loopDyn.Fingerprint())
			}
		}
		p := e.packet
		if cfg.Adaptive {
			if p.flight == nil {
				fl, err := adaptive.Start(e.node, p.dst)
				if err != nil {
					stats.Undeliverable++
					continue
				}
				if stats.TreeRoutes != nil && fl.Tree() >= 0 {
					stats.TreeRoutes[fl.Tree()]++
				}
				p.flight = fl
			}
			st := p.flight.Step()
			switch st.Kind {
			case core.StepWait:
				seq++
				e.time, e.seq = e.time+st.Wait, seq
				heap.Push(&queue, e)
			case core.StepMove:
				move(e, st.To)
			case core.StepDone:
				finishAdaptive(stats, p.flight)
				if p.flight.Degraded() {
					stats.Degraded++
				}
				stats.DetourHops.Add(float64(p.flight.DetourHops()))
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
			}
			continue
		}
		if p.path == nil {
			path, err := lookupRoute(e.node, p.dst)
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
			dim := uint(bitutil.LowestBit(uint64(e.node ^ next)))
			if loopDyn.NodeFaulty(e.node) || loopDyn.NodeFaulty(p.dst) {
				stats.Dropped++
				continue
			}
			if loopDyn.LinkFaulty(e.node, dim) || loopDyn.NodeFaulty(next) {
				path, err := lookupRoute(e.node, p.dst)
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
	refFold(stats, linkCount)
	if loopDyn != nil {
		stats.Epochs = int(loopDyn.Epoch())
	}
	if cache != nil {
		stats.CacheInvalidations = int(cache.Invalidations() - cacheInvalidationsBase)
	}
	return stats, nil
}

// refPickDest is the destination sampler as the reference engines call
// it.
func refPickDest(rng *rand.Rand, p workload.Pattern, src gc.NodeID, faulty func(gc.NodeID) bool, nodes int) (gc.NodeID, bool) {
	for attempt := 0; attempt < 64; attempt++ {
		d := p.Dest(rng, src)
		if int(d) >= nodes || d == src {
			continue
		}
		if faulty != nil && faulty(d) {
			continue
		}
		return d, true
	}
	return 0, false
}

// referenceGrid is the seeded configuration grid the engines are
// checked on: every Config field that shapes the event loop, on both
// engines.
func referenceGrid(t *testing.T) map[string]func() Config {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	c7 := gc.New(7, 1)
	var sorted []Packet
	for tm := 0; tm < 30; tm++ {
		for k := 0; k < 5; k++ {
			s, d := gc.NodeID(rng.Intn(c7.Nodes())), gc.NodeID(rng.Intn(c7.Nodes()))
			if s != d {
				sorted = append(sorted, Packet{Src: s, Dst: d, Time: tm})
			}
		}
	}
	// Unsorted: every eighth packet moved to the front with a late time,
	// and a few negative times, so the calendar sees pushes below its
	// first cycle before the drain starts.
	unsorted := append([]Packet(nil), sorted...)
	for i := 0; i < len(unsorted); i += 8 {
		unsorted[i].Time = 40 - i%13
	}
	unsorted[3].Time, unsorted[17].Time = -4, -9
	rng.Shuffle(len(unsorted), func(i, j int) { unsorted[i], unsorted[j] = unsorted[j], unsorted[i] })

	nodeFaults := func() *fault.Set {
		fs := fault.NewSet(c7)
		for _, v := range []gc.NodeID{5, 40, 77, 101} {
			fs.AddNode(v)
		}
		return fs
	}
	mixedFaults := func() *fault.Set {
		fs := nodeFaults()
		for _, v := range []gc.NodeID{2, 19, 64} {
			dims := c7.LinkDims(v)
			fs.AddLink(v, dims[len(dims)-1])
		}
		return fs
	}
	base := func() Config {
		return Config{N: 7, Alpha: 1, Arrival: 0.05, GenCycles: 40, Seed: 3}
	}
	with := func(f func(*Config)) func() Config {
		return func() Config { c := base(); f(&c); return c }
	}
	churn := func() *fault.Dynamic {
		var events []fault.Event
		events = append(events, isolationEvents(c7, 9, 5, 30)...)
		events = append(events, isolationEvents(c7, 70, 12, 45)...)
		events = append(events,
			fault.Event{Time: 8, Op: fault.OpInject, Fault: fault.Fault{Kind: fault.KindNode, Node: 33}},
			fault.Event{Time: 25, Op: fault.OpRepair, Fault: fault.Fault{Kind: fault.KindNode, Node: 33}})
		return fault.NewDynamic(c7, events)
	}
	bursts := churnTrace(rng, c7.Nodes(), 240, 30, func(gc.NodeID) bool { return false })
	severed := func(f func(*Config)) func() Config {
		return func() Config { c := severedConfig(true); f(&c); return c }
	}
	return map[string]func() Config{
		"eager":          base,
		"eager/severed":  severed(func(*Config) {}),
		"eager/bursts":   with(func(c *Config) { c.Trace = bursts; c.CacheRoutes = true }),
		"eager/trace":    with(func(c *Config) { c.Trace = sorted }),
		"eager/unsorted": with(func(c *Config) { c.Trace = unsorted }),
		"eager/warmup-max-hist": with(func(c *Config) {
			c.Warmup, c.MaxPackets, c.HistBuckets, c.HistMax = 10, 150, 16, 64
		}),
		"eager/service2":      with(func(c *Config) { c.ServiceCycles = 2; c.Arrival = 0.15 }),
		"eager/service3":      with(func(c *Config) { c.ServiceCycles = 3 }),
		"eager/cache":         with(func(c *Config) { c.CacheRoutes = true; c.Trace = sorted }),
		"eager/trees2":        with(func(c *Config) { c.Trees = 2; c.Faults = nodeFaults() }),
		"eager/trees4-cache":  with(func(c *Config) { c.Trees = 4; c.CacheRoutes = true }),
		"eager/faults":        with(func(c *Config) { c.Faults = mixedFaults() }),
		"eager/faults-repair": with(func(c *Config) { c.Faults = mixedFaults(); c.Repair = true }),
		"timeline/fault-at":   with(func(c *Config) { c.Faults = mixedFaults(); c.FaultAtCycle = 12 }),
		"timeline/fault-at-unsorted": with(func(c *Config) {
			c.Faults = nodeFaults()
			c.FaultAtCycle = 10
			c.Trace = unsorted
		}),
		"timeline/dynamic": with(func(c *Config) { c.Dynamic = churn(); c.CacheRoutes = true }),
		"timeline/dynamic-bursts": with(func(c *Config) {
			c.Dynamic = churn()
			c.Trace = bursts
			c.RouteCache = NewRouteCache(64)
		}),
		"timeline/severed-fault-at": severed(func(c *Config) { c.FaultAtCycle = 30 }),
		"timeline/dynamic-repair-trees": with(func(c *Config) {
			c.Dynamic = churn()
			c.Repair, c.Trees, c.ServiceCycles = true, 2, 2
		}),
		"timeline/dynamic-warmup-hist": with(func(c *Config) {
			c.Dynamic = churn()
			c.Warmup, c.HistBuckets, c.MaxPackets = 8, 12, 120
		}),
		"adaptive/severed": severed(func(c *Config) { c.Adaptive = true }),
		"adaptive":         with(func(c *Config) { c.Adaptive = true; c.Faults = mixedFaults() }),
		"adaptive/dynamic": with(func(c *Config) { c.Adaptive = true; c.Dynamic = churn(); c.Arrival = 0.1 }),
		"adaptive/trace-repair-trees4": with(func(c *Config) {
			c.Adaptive, c.Repair, c.Trees = true, true, 4
			c.Dynamic = churn()
			c.Trace = unsorted
			c.ServiceCycles = 3
		}),
	}
}

// TestEngineMatchesReference runs every grid point through Run and the
// heap-and-map reference and requires the same Stats, field for field.
// LinkLoad's mean and variance depend on the order links are folded
// in, which the reference takes from map iteration, so for LinkLoad
// only the count, the sum and the maximum must agree.
func TestEngineMatchesReference(t *testing.T) {
	for name, mk := range referenceGrid(t) {
		t.Run(name, func(t *testing.T) {
			got, err := Run(mk())
			if err != nil {
				t.Fatal(err)
			}
			want, err := refRun(mk())
			if err != nil {
				t.Fatal(err)
			}
			if want.Delivered == 0 {
				t.Fatal("grid point delivers nothing")
			}
			if err := sameLinkLoad(got, want); err != nil {
				t.Error(err)
			}
			g, w := *got, *want
			g.LinkLoad, w.LinkLoad = Stats{}.LinkLoad, Stats{}.LinkLoad
			if !reflect.DeepEqual(g, w) {
				t.Errorf("stats differ from the reference:\n got  %+v\n want %+v", g, w)
			}
		})
	}
}

func sameLinkLoad(got, want *Stats) error {
	g, w := &got.LinkLoad, &want.LinkLoad
	if g.Count() != w.Count() || g.Max() != w.Max() || math.Round(g.Sum()) != math.Round(w.Sum()) {
		return fmt.Errorf("LinkLoad count/sum/max %d/%v/%v, reference %d/%v/%v",
			g.Count(), g.Sum(), g.Max(), w.Count(), w.Sum(), w.Max())
	}
	return nil
}
