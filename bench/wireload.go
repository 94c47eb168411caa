package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"gaussiancube/internal/cluster"
	"gaussiancube/internal/core"
	"gaussiancube/internal/fault"
	"gaussiancube/internal/gc"
	"gaussiancube/internal/journal"
	"gaussiancube/internal/serve"
	"gaussiancube/internal/wire"
)

const (
	batchSize   = 64                    // requests pipelined per RouteBatch
	workingSet  = 4096                  // pairs in a warmed working set
	churnPeriod = 20 * time.Millisecond // open-loop writer: 50 batches/s
	churnLive   = 8                     // live node faults the writer holds
	syncWindow  = 2 * time.Millisecond  // journal group-commit window
	spanKeep    = 20000                 // spans kept for the trace file
	maxWarmUp   = time.Second           // the loops run a tenth of the window, at most this, before it opens
	rttSamples  = 16384                 // batch times kept per connection
	// faultSeed places wire-miss's static node faults. The planner's cost
	// per route varies about twofold with where 32 faults fall, so a
	// placement drawn from --seed would let the seed, not the program, set
	// the throughput; --seed picks the request stream.
	faultSeed = 1
	// forwardEvery: on a cluster, one working-set pair in this many starts
	// in a class member 0 does not own and forwards one hop. With half of
	// them forwarding, the single peer connection carried 32 round trips
	// per batch, one at a time, and that chain set the whole rate and
	// spread most from run to run on a shared host. At one in 16 the
	// forwards still take most of a batch's time.
	forwardEvery = 16
)

// wireSpec is the shape of one gcwire workload.
type wireSpec struct {
	n, alpha   uint
	nodeFaults int  // random node faults, placed by faultSeed, held for the whole run
	working    bool // a warmed working set (else uniform pairs over healthy nodes)
	readers    int  // client connections running the closed read loop
	churn      bool // journal on, and an open-loop fault writer on its own connection
	members    int  // >1 runs an in-process cluster; clients talk to member 0
}

// wireEnv is one running deployment driven over loopback gcwire
// connections, with everything the benchmark mirrors about it.
type wireEnv struct {
	seed      int64
	cube      *gc.Cube
	hist      *history
	set       [][2]gc.NodeID
	servers   []*serve.Server
	wires     []*serve.WireServer
	serveDone []chan error // each wire listener's Serve result
	nodes     []*cluster.Node
	readers   []*serve.WireClient
	writer    *churnWriter
	wconn     *serve.WireClient
	tmp       string // journal directories live here; removed on close

	perRouteUS float64 // untraced per-connection time per route, for the budget
	fsType     string
}

// setupWire boots the servers, connects the clients and warms the
// working set. Everything here counts toward setup_s.
func setupWire(spec wireSpec, o options) (env, error) {
	e := &wireEnv{seed: o.seed, cube: gc.New(spec.n, spec.alpha)}
	ok := false
	defer func() {
		if !ok {
			e.close(nil)
		}
	}()
	rng := rand.New(rand.NewSource(o.seed))
	cfg := serve.Config{Cube: e.cube}
	view := newFaultView(e.cube)
	if spec.nodeFaults > 0 {
		fs := fault.NewSet(e.cube)
		fs.InjectRandomNodes(rand.New(rand.NewSource(faultSeed)), spec.nodeFaults)
		for _, f := range fs.RawFaults() {
			view.addNode(f.Node)
		}
		cfg.Faults = fs
	}
	e.hist = staticHistory(view)
	if spec.churn {
		maxBatches := int(o.seconds*float64(time.Second/churnPeriod)) + int(maxWarmUp/churnPeriod) + 64
		e.writer = newChurnWriter(e.cube, rng, maxBatches)
		e.hist = e.writer.hist
		tmp, err := os.MkdirTemp(o.out, "journal-")
		if err != nil {
			return nil, err
		}
		e.tmp = tmp
		e.fsType = fsType(tmp)
		cfg.Journal = &serve.JournalConfig{Dir: tmp + "/served", Sync: syncWindow}
	}

	members := max(spec.members, 1)
	for i := 0; i < members; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		s, err := serve.New(cfg)
		if err != nil {
			ln.Close()
			return nil, err
		}
		e.servers = append(e.servers, s)
		ws := serve.NewWireServer(s, ln)
		done := make(chan error, 1)
		go func() { done <- ws.Serve() }()
		e.wires = append(e.wires, ws)
		e.serveDone = append(e.serveDone, done)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, s := range e.servers {
		if err := s.WaitJournal(ctx); err != nil {
			return nil, err
		}
	}
	if members > 1 {
		if err := e.startCluster(ctx); err != nil {
			return nil, err
		}
	}
	addr := e.wires[0].Addr().String()
	for i := 0; i < spec.readers; i++ {
		c, err := serve.DialWire(addr)
		if err != nil {
			return nil, err
		}
		e.readers = append(e.readers, c)
	}
	if e.writer != nil {
		c, err := serve.DialWire(addr)
		if err != nil {
			return nil, err
		}
		e.wconn = c
		// The first batch brings the live fault count up; the timed
		// window then holds it there.
		e.hist.issued.Store(1)
		resp, err := c.ApplyFaults(e.writer.ops[1])
		if err != nil {
			return nil, fmt.Errorf("initial fault batch: %w", err)
		}
		if resp.Epoch != 1 {
			return nil, fmt.Errorf("initial fault batch acked as epoch %d, want 1", resp.Epoch)
		}
		e.hist.acked.Store(1)
	}
	if spec.working {
		healthy := e.hist.epochs[e.hist.acked.Load()]
		e.set = make([][2]gc.NodeID, workingSet)
		for i := range e.set {
			s, d := randomPair(rng, e.cube, healthy)
			for len(e.nodes) > 0 && e.servers[0].OwnsLocally(s) == (i%forwardEvery == 0) {
				s, d = randomPair(rng, e.cube, healthy)
			}
			e.set[i] = [2]gc.NodeID{s, d}
		}
		if err := e.warm(); err != nil {
			return nil, err
		}
	}
	ok = true
	return e, nil
}

// startCluster splits the ending classes evenly across the members,
// starts each member's gossip and forwarding, and waits until every
// member has reached every peer and none is stale.
func (e *wireEnv) startCluster(ctx context.Context) error {
	ranges, err := cluster.SplitEven(1<<e.cube.Alpha(), len(e.servers))
	if err != nil {
		return err
	}
	members := make([]cluster.Member, len(e.servers))
	for i, r := range ranges {
		members[i] = cluster.Member{Addr: e.wires[i].Addr().String(), Lo: r[0], Hi: r[1]}
	}
	topo, err := cluster.New(e.cube, members)
	if err != nil {
		return err
	}
	for i, s := range e.servers {
		n, err := cluster.Start(cluster.Config{Server: s, Topology: topo, Self: members[i].Addr})
		if err != nil {
			return err
		}
		e.nodes = append(e.nodes, n)
	}
	for {
		converged := true
		for _, s := range e.servers {
			cs := s.Metrics().Cluster
			if cs == nil || cs.Stale || len(cs.PerPeer) != len(e.servers)-1 {
				converged = false
				break
			}
			for _, p := range cs.PerPeer {
				converged = converged && p.Reachable
			}
		}
		if converged {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("cluster did not converge: %w", ctx.Err())
		case <-time.After(time.Millisecond):
		}
	}
}

// warm routes the working set once so the timed window starts from a
// full route cache, checking every warm-up answer too.
func (e *wireEnv) warm() error {
	v := &validator{cube: e.cube, hist: e.hist}
	out := make([]serve.WireRoute, batchSize)
	epoch := e.hist.acked.Load()
	for off := 0; off < len(e.set); off += batchSize {
		batch := e.set[off:min(off+batchSize, len(e.set))]
		if err := e.readers[0].RouteBatch(batch, out); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
		for i, p := range batch {
			switch vd, msg := v.check(p[0], p[1], &out[i], epoch, epoch, nil); vd {
			case replyWrong:
				return fmt.Errorf("%w: warm-up: %s", errWrongAnswer, msg)
			case replyFailed:
				return fmt.Errorf("warm-up: %s", msg)
			}
		}
	}
	return nil
}

// pairStream is one connection's deterministic request sequence: a
// seeded permutation cycled over the working set, or seeded uniform
// pairs over healthy nodes.
type pairStream struct {
	set  [][2]gc.NodeID
	perm []int
	pos  int
	rng  *rand.Rand
	cube *gc.Cube
	bad  *faultView
}

func (e *wireEnv) stream(conn int) *pairStream {
	rng := rand.New(rand.NewSource(e.seed*1_000_003 + int64(conn) + 1))
	p := &pairStream{set: e.set, rng: rng, cube: e.cube, bad: e.hist.epochs[0]}
	if e.set != nil {
		p.perm = rng.Perm(len(e.set))
	}
	return p
}

// next returns the working-set index (-1 without one) and the pair.
func (p *pairStream) next() (int, gc.NodeID, gc.NodeID) {
	if p.set != nil {
		i := p.perm[p.pos]
		p.pos = (p.pos + 1) % len(p.perm)
		return i, p.set[i][0], p.set[i][1]
	}
	s, d := randomPair(p.rng, p.cube, p.bad)
	return -1, s, d
}

func randomPair(rng *rand.Rand, cube *gc.Cube, bad *faultView) (gc.NodeID, gc.NodeID) {
	for {
		s, d := gc.NodeID(rng.Intn(cube.Nodes())), gc.NodeID(rng.Intn(cube.Nodes()))
		if s != d && !bad.nodeFaulty(s) && !bad.nodeFaulty(d) {
			return s, d
		}
	}
}

// counters is the sum of the servers' public counters at one moment.
type counters struct {
	served, fast, coalesced, rejected     int64
	forwarded, fallbacks, appends, fsyncs int64
}

func (e *wireEnv) counters() counters {
	var c counters
	for _, s := range e.servers {
		m := s.Metrics()
		c.served += m.Served
		c.fast += m.FastPathHits
		c.coalesced += m.Coalesced
		c.rejected += m.Rejected
		if m.Journal != nil {
			c.appends += m.Journal.Appends
			c.fsyncs += m.Journal.Fsyncs
		}
		if m.Cluster != nil {
			c.forwarded += m.Cluster.Forwarded
			c.fallbacks += m.Cluster.ForwardFallbacks
		}
	}
	return c
}

// queueDepth is the deepest shard queue across the servers right now.
func (e *wireEnv) queueDepth() int {
	deepest := 0
	for _, s := range e.servers {
		for _, sh := range s.Metrics().PerShard {
			deepest = max(deepest, sh.Queue)
		}
	}
	return deepest
}

// windowStats is one connection's record of a timed window: the routes
// answered by batches that completed inside it, and a fixed-size sample
// of their batch times. The window opens after the warm-up.
type windowStats struct {
	start, end          time.Time
	routes              int64
	rtts                *reservoir // µs per pipelined batch
	attempted, answered int64
}

func newWindowStats(start, end time.Time, seed int64) *windowStats {
	return &windowStats{start: start, end: end, rtts: newReservoir(rttSamples, seed)}
}

// add records one batch that completed at done; batches completing
// outside the window count toward the totals only.
func (w *windowStats) add(done time.Time, rtt time.Duration, routes int64) {
	w.answered += routes
	if !done.Before(w.start) && done.Before(w.end) {
		w.routes += routes
		w.rtts.add(float64(rtt.Nanoseconds()) / 1e3)
	}
}

// windowTotals merges the connections' records: the route rate over the
// whole window, and the batch times pooled across connections with the
// number of batches they sample.
func windowTotals(ws []*windowStats) (rate float64, rtts []float64, batches int) {
	var routes int64
	for _, w := range ws {
		routes += w.routes
		rtts = append(rtts, w.rtts.vals...)
		batches += w.rtts.seen
	}
	sort.Float64s(rtts)
	return float64(routes) / ws[0].end.Sub(ws[0].start).Seconds(), rtts, batches
}

// readLoop is one connection's closed loop: send a pipelined batch,
// wait for every reply, check every reply, repeat until the deadline.
func (e *wireEnv) readLoop(r *report, conn int, deadline time.Time, t *windowStats) {
	c := e.readers[conn]
	src := e.stream(conn)
	v := &validator{cube: e.cube, hist: e.hist}
	var memo []routeMemo
	if e.set != nil {
		memo = make([]routeMemo, len(e.set))
	}
	pairs := make([][2]gc.NodeID, batchSize)
	idx := make([]int, batchSize)
	out := make([]serve.WireRoute, batchSize)
	for time.Now().Before(deadline) {
		for i := range pairs {
			idx[i], pairs[i][0], pairs[i][1] = src.next()
		}
		lo := e.hist.acked.Load()
		t0 := time.Now()
		err := c.RouteBatch(pairs, out)
		done := time.Now()
		hi := e.hist.issued.Load()
		t.attempted += batchSize
		if err != nil {
			r.failure(batchSize, err.Error())
			continue
		}
		var answered int64
		for i, p := range pairs {
			var m *routeMemo
			if memo != nil {
				m = &memo[idx[i]]
			}
			if r.tally(v.check(p[0], p[1], &out[i], lo, hi, m)) {
				answered++
			}
		}
		t.add(done, done.Sub(t0), answered)
	}
}

// measure runs the closed read loops and, on wire-churn, the open-loop
// writer through the warm-up and then the untraced timed window.
func (e *wireEnv) measure(r *report, d time.Duration) {
	runtime.GC()
	before := e.counters()
	sampler := startSampler(e.queueDepth)
	start := time.Now()
	warmUp := min(d/10, maxWarmUp)
	open := start.Add(warmUp)
	deadline := open.Add(d)
	stats := make([]*windowStats, len(e.readers))
	var wg sync.WaitGroup
	for i := range e.readers {
		stats[i] = newWindowStats(open, deadline, e.seed+int64(i)<<20)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			e.readLoop(r, i, deadline, stats[i])
		}(i)
	}
	if e.writer != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e.writer.run(r, start, deadline, func(ops []serve.FaultOp) (uint64, error) {
				resp, err := e.wconn.ApplyFaults(ops)
				if err != nil {
					return 0, err
				}
				return resp.Epoch, nil
			})
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	after := e.counters()

	var attempted, answered int64
	for _, t := range stats {
		attempted += t.attempted
		answered += t.answered
	}
	sampler.finish(r, float64(answered))
	r.attempted += attempted
	r.checkServed(answered, after.served-before.served)
	rate, rtts, batches := windowTotals(stats)
	r.set("ops_per_s", rate)
	r.set("batch_p50_us", median(rtts))
	r.set("batch_p90_us", percentile(rtts, 90))
	r.note("batch_us %v sampled from %d batches in the %v window after a %v warm-up", summarize(rtts), batches, d, warmUp)
	if answered > 0 {
		e.perRouteUS = float64(len(e.readers)) * float64(elapsed.Nanoseconds()) / 1e3 / float64(answered)
	}

	served := float64(after.served - before.served)
	misses := served - float64(after.fast-before.fast)
	if served > 0 {
		r.set("serve.fast_hit_ratio", float64(after.fast-before.fast)/served)
		r.set("cluster.forwarded_share", float64(after.forwarded-before.forwarded)/served)
	}
	if misses > 0 {
		r.set("serve.coalesced_ratio", float64(after.coalesced-before.coalesced)/misses)
	}
	r.set("serve.rejected", float64(after.rejected-before.rejected))
	r.set("cluster.fallbacks", float64(after.fallbacks-before.fallbacks))
	if w := e.writer; w != nil {
		r.attempted += int64(len(w.acks))
		if commits := after.appends - before.appends; commits > 0 {
			r.set("journal.fsyncs_per_commit", float64(after.fsyncs-before.fsyncs)/float64(commits))
		}
		acks := summarize(w.acks)
		r.set("fault_ack_p50_ms", acks.P50)
		r.set("fault_ack_p95_ms", percentile(sortedCopy(w.acks), 95))
		r.set("gen.writer_lag_p95_ms", percentile(sortedCopy(w.lags), 95))
		r.note("fault_ack_ms %v (timed from each batch's due time)", acks)
		r.note("writer_lag_ms %v", summarize(w.lags))
		r.note("journal_fs %s", e.fsType)
		w.acks, w.lags = w.acks[:0], w.lags[:0]
	}
}

// replay runs the same seeded request streams in-process through the
// chain the gcwire front end runs per request — decode, fast path,
// submit on a miss, encode — plus the client's decode, with spans
// when traced. On wire-churn the writer keeps mutating in-process.
// Traced or not, the work is the same, so the two throughputs give the
// tracer's overhead.
func (e *wireEnv) replay(r *report, d time.Duration, traced bool, tw *traceWriter) (routes int64, elapsed time.Duration, tracers []*tracer) {
	before := e.counters()
	base := time.Now()
	deadline := base.Add(d)
	n := len(e.readers)
	tracers = make([]*tracer, n)
	counts := make([][2]int64, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		if traced {
			tracers[i] = newTracer(base, spanKeep/(n+1))
		}
		wg.Add(1)
		go func(i int, tr *tracer) {
			defer wg.Done()
			counts[i][0], counts[i][1] = e.replayLoop(r, i, tr, deadline)
		}(i, tracers[i])
	}
	if e.writer != nil {
		var wt *tracer
		if traced {
			wt = newTracer(base, spanKeep/(n+1))
			tracers = append(tracers, wt)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			e.writer.run(r, base, deadline, e.applyInProcess(tw, wt))
		}()
	}
	wg.Wait()
	elapsed = time.Since(base)
	for _, c := range counts {
		r.attempted += c[0]
		routes += c[1]
	}
	r.checkServed(routes, e.counters().served-before.served)
	return routes, elapsed, tracers
}

// missSlot is one request of a replayed batch that missed the fast
// path: its goroutine submits it and encodes the reply, as the gcwire
// front end does for every miss, recording when each step ran.
type missSlot struct {
	idx                      int
	resp                     *serve.Response
	err                      error
	subStart, subEnd, encEnd int64
	enc                      wire.RouteResult
}

// replayLoop is one connection's replay, one pipelined batch at a time:
// the reader decodes each request and answers fast-path hits inline,
// every miss goes to its own goroutine, the reader waits for the
// batch's misses, then decodes every reply as the client would. It
// returns the requests attempted and answered.
func (e *wireEnv) replayLoop(r *report, conn int, tr *tracer, deadline time.Time) (attempted, routes int64) {
	srv := e.servers[0]
	src := e.stream(conn)
	v := &validator{cube: e.cube, hist: e.hist}
	ctx := context.Background()
	var (
		pairs  = make([][2]gc.NodeID, batchSize)
		reqs   = make([][]byte, batchSize)
		frames = make([][]byte, batchSize)
		outs   = make([]serve.WireRoute, batchSize)
		slots  = make([]missSlot, 0, batchSize)
		req    wire.RouteReq
		enc    wire.RouteResult
		dec    wire.RouteResult
		ef     wire.ErrorFrame
		id     uint64
		wg     sync.WaitGroup
	)
	for time.Now().Before(deadline) {
		for i := range pairs {
			_, pairs[i][0], pairs[i][1] = src.next()
			id++
			reqs[i] = wire.AppendRouteReq(reqs[i][:0], id, wire.RouteReq{Src: pairs[i][0], Dst: pairs[i][1]})
		}
		attempted += batchSize
		lo := e.hist.acked.Load()

		root := tr.begin("batch", -1)
		slots = slots[:0]
		for i := range pairs {
			sp := tr.begin("wire.decode", root)
			h, err := wire.ParseHeader(reqs[i])
			if err == nil {
				err = wire.DecodeRouteReq(reqs[i][wire.HeaderSize:], &req)
			}
			tr.end(sp)
			if err != nil {
				frames[i] = appendReply(frames[i][:0], h.ID, false, nil, nil, err, &enc)
				continue
			}
			var ans serve.CachedAnswer
			hit := false
			if srv.OwnsLocally(req.Src) {
				sp = tr.begin("serve.fast", root)
				ans, hit = srv.FastRouteTree(req.Src, req.Dst, core.TreeAuto)
				tr.end(sp)
			}
			if hit {
				sp = tr.begin("wire.encode", root)
				frames[i] = appendReply(frames[i][:0], h.ID, true, &ans, nil, nil, &enc)
				tr.end(sp)
				continue
			}
			slots = append(slots, missSlot{idx: i})
		}
		wait := tr.begin("serve.miss_wait", root)
		for k := range slots {
			wg.Add(1)
			go func(m *missSlot) {
				defer wg.Done()
				p := pairs[m.idx]
				if tr != nil {
					m.subStart = tr.now()
				}
				m.resp, m.err = srv.SubmitTree(ctx, p[0], p[1], core.TreeAuto)
				if tr != nil {
					m.subEnd = tr.now()
				}
				frames[m.idx] = appendReply(frames[m.idx][:0], id-batchSize+1+uint64(m.idx), false, nil, m.resp, m.err, &m.enc)
				if tr != nil {
					m.encEnd = tr.now()
				}
			}(&slots[k])
		}
		wg.Wait()
		tr.end(wait)
		for _, m := range slots {
			tr.add("serve.submit", wait, m.subStart, m.subEnd)
			tr.add("wire.encode", wait, m.subEnd, m.encEnd)
		}
		derrs := 0
		for i := range frames {
			sp := tr.begin("wire.client_decode", root)
			if err := decodeReply(frames[i], &dec, &ef, &outs[i]); err != nil {
				outs[i].ErrCode = wire.CodeBadRequest
				derrs++
			}
			tr.end(sp)
		}
		tr.end(root)
		tr.finish(batchSize)

		if derrs > 0 {
			r.wrongAnswer(fmt.Sprintf("%d reply frames do not decode", derrs))
		}
		hi := e.hist.issued.Load()
		for i, p := range pairs {
			if r.tally(v.check(p[0], p[1], &outs[i], lo, hi, nil)) {
				routes++
			}
		}
	}
	return attempted, routes
}

// traceWriter holds what the traced churn writer times besides the
// served mutation: a journal-less twin server for the epoch swap alone,
// and a journal of the benchmark's own for the commit alone.
type traceWriter struct {
	twin *serve.Server
	jnl  *journal.Journal
}

// applyInProcess applies a batch to the served (journaled) server, as
// the wire writer does, then times the two halves of that step apart:
// the epoch swap on the twin, and the commit on the separate journal.
func (e *wireEnv) applyInProcess(tw *traceWriter, tr *tracer) func([]serve.FaultOp) (uint64, error) {
	return func(ops []serve.FaultOp) (uint64, error) {
		epoch, _, err := e.servers[0].ApplyFaults(ops)
		if err != nil {
			return epoch, err
		}
		b := journal.Batch{Epoch: epoch, FP: e.hist.epochs[epoch].set(e.cube).Fingerprint(),
			Events: journal.DiffEvents(e.hist.epochs[epoch-1].set(e.cube), e.hist.epochs[epoch].set(e.cube), int(epoch))}
		root := tr.begin("fault.batch", -1)
		sp := tr.begin("serve.apply", root)
		_, _, aerr := tw.twin.ApplyFaults(ops)
		tr.end(sp)
		sp = tr.begin("journal.commit", root)
		jerr := tw.jnl.Commit(b)
		tr.end(sp)
		tr.end(root)
		tr.finish(1)
		return epoch, errors.Join(aerr, jerr)
	}
}

// newTraceWriter builds the churn writer's twin and journal at the
// current acknowledged epoch.
func (e *wireEnv) newTraceWriter() (*traceWriter, error) {
	cur := e.hist.epochs[e.hist.acked.Load()].set(e.cube)
	twin, err := serve.New(serve.Config{Cube: e.cube, Faults: cur})
	if err != nil {
		return nil, err
	}
	jnl, _, err := journal.Open(e.cube, e.tmp+"/traced", journal.Options{SyncInterval: syncWindow})
	if err != nil {
		shutdown(twin)
		return nil, err
	}
	boot := journal.Batch{Epoch: e.hist.acked.Load(), FP: cur.Fingerprint(), Events: journal.DiffEvents(fault.NewSet(e.cube), cur, 0)}
	if err := jnl.Commit(boot); err != nil {
		jnl.Close()
		shutdown(twin)
		return nil, err
	}
	return &traceWriter{twin: twin, jnl: jnl}, nil
}

func (tw *traceWriter) close() {
	tw.jnl.Close()
	shutdown(tw.twin)
}

// trace runs the replay untraced and traced, derives the per-layer
// budget, and runs the sibling passes that time single layers.
func (e *wireEnv) trace(r *report, d time.Duration, spansPath string) error {
	var tw *traceWriter
	if e.writer != nil {
		var err error
		if tw, err = e.newTraceWriter(); err != nil {
			return err
		}
		defer tw.close()
	}
	planPass(r, e.planGroups(), d/4)
	cost := spanCost()
	offRoutes, offElapsed, _ := e.replay(r, d/2, false, tw)
	onRoutes, onElapsed, tracers := e.replay(r, d/2, true, tw)
	if offRoutes > 0 && onRoutes > 0 {
		r.set("trace.overhead_ratio", (float64(onRoutes)/onElapsed.Seconds())/(float64(offRoutes)/offElapsed.Seconds()))
	}
	st, _, _ := mergeStats(tracers)
	r.set("serve.fast_ns", max(meanSelf(st, "serve.fast")-cost, 0))
	if sub := st["serve.submit"]; sub != nil {
		s := sortedCopy(sub.Samples)
		r.set("serve.submit_p50_us", median(s)/1e3)
		r.set("serve.submit_p99_us", percentile(s, 99)/1e3)
		r.note("serve.submit_us %v", scaled(summarize(s), 1e-3))
		r.set("serve.queue_self_us", max(sub.Dur/float64(sub.N)-r.values["core.plan_ns"], 0)/1e3)
	}
	if a := st["serve.apply"]; a != nil {
		r.set("serve.apply_us", a.Dur/float64(a.N)/1e3)
	}
	if c := st["journal.commit"]; c != nil {
		s := sortedCopy(c.Samples)
		r.set("journal.commit_p50_ms", median(s)/1e6)
		r.set("journal.commit_p95_ms", percentile(s, 95)/1e6)
		r.note("journal.commit_ms %v", scaled(summarize(s), 1e-6))
	}
	r.note("span cost %.1f ns (the duration of an empty span), removed from every stage below", cost)
	if _, budget, units := mergeStats(tracers[:len(e.readers)]); units > 0 && e.perRouteUS > 0 {
		e.budget(r, budget, float64(units), cost)
	}
	e.codecPass(r, d/4)
	if len(e.nodes) > 0 {
		e.clusterPass(r, d/4)
	}
	if spansPath != "" {
		return writeSpans(spansPath, tracers)
	}
	return nil
}

// budgetStages are the rows of the per-route budget: the stages the
// connection's reader runs one after another for each batch.
var budgetStages = []string{"wire.decode", "serve.fast", "wire.encode", "serve.miss_wait", "wire.client_decode"}

// budget splits the untraced per-connection time per route into the
// reader's stages, each net of the tracer's own cost per span, and the
// remainder: the loopback transport, syscalls and scheduling the
// in-process replay does not have. The rows add up to the untraced
// figure by construction; the batch root's self time is the tracer's
// bookkeeping and is left out.
func (e *wireEnv) budget(r *report, rows map[string]*budgetRow, units, cost float64) {
	var staged float64
	for _, name := range budgetStages {
		row := rows[name]
		if row == nil {
			continue
		}
		us := max(row.Dur-cost*float64(row.N), 0) / units / 1e3
		staged += us
		r.note("budget %-20s %10.4f us/route", name, us)
	}
	residual := e.perRouteUS - staged
	r.note("budget %-20s %10.4f us/route", "transport.residual", residual)
	r.note("budget %-20s %10.4f us/route (untraced, per connection)", "total", e.perRouteUS)
	r.set("transport.residual_us", residual)
}

// planGroups is the workload's own pairs against its current frozen
// fault set.
func (e *wireEnv) planGroups() []planGroup {
	pairs := e.set
	if pairs == nil {
		src := e.stream(0)
		pairs = make([][2]gc.NodeID, workingSet)
		for i := range pairs {
			_, pairs[i][0], pairs[i][1] = src.next()
		}
	}
	return []planGroup{{cube: e.cube, faults: e.hist.epochs[e.hist.acked.Load()].set(e.cube), pairs: pairs}}
}

// codecPass times the gcwire codecs alone, each in a tight loop over
// frames of the workload's own requests and replies: the server's
// request decode, its reply encode and the client's reply decode.
func (e *wireEnv) codecPass(r *report, budget time.Duration) {
	srv := e.servers[0]
	v := &validator{cube: e.cube, hist: e.hist}
	src := e.stream(0)
	var (
		reqs, replies [][]byte
		results       []wire.RouteResult
		enc, dec      wire.RouteResult
		ef            wire.ErrorFrame
		out           serve.WireRoute
		size          int
	)
	for i := 0; i < 1024; i++ {
		_, s, d := src.next()
		req := wire.AppendRouteReq(nil, uint64(i), wire.RouteReq{Src: s, Dst: d})
		epoch := e.hist.acked.Load()
		resp, err := srv.SubmitTree(context.Background(), s, d, core.TreeAuto)
		reply := appendReply(nil, uint64(i), false, nil, resp, err, &enc)
		if err := decodeReply(reply, &dec, &ef, &out); err != nil {
			r.wrongAnswer("reply frame does not decode: " + err.Error())
			continue
		}
		r.tally(v.check(s, d, &out, epoch, epoch, nil))
		r.attempted++
		reqs, replies = append(reqs, req), append(replies, reply)
		size += len(req) + len(reply)
		if out.ErrCode == 0 {
			res := dec
			res.Reason, res.Path = append([]byte(nil), dec.Reason...), append([]gc.NodeID(nil), dec.Path...)
			results = append(results, res)
		}
	}
	if len(reqs) == 0 {
		return
	}
	r.set("wire.bytes_per_route", float64(size)/float64(len(reqs)))
	var req wire.RouteReq
	r.set("wire.decode_req_ns", timeLoop(budget/3, len(reqs), func(i int) {
		if _, err := wire.ParseHeader(reqs[i]); err == nil {
			_ = wire.DecodeRouteReq(reqs[i][wire.HeaderSize:], &req)
		}
	}))
	r.set("wire.client_decode_ns", timeLoop(budget/3, len(replies), func(i int) {
		_ = decodeReply(replies[i], &dec, &ef, &out)
	}))
	if len(results) > 0 {
		buf := make([]byte, 0, 4096)
		r.set("wire.encode_res_ns", timeLoop(budget/3, len(results), func(i int) {
			buf = wire.AppendRouteResult(buf[:0], uint64(i), &results[i])
		}))
	}
}

// timeLoop calls f over 0..n-1 repeatedly for about d (at least one
// sweep) and returns the mean ns per call.
func timeLoop(d time.Duration, n int, f func(int)) float64 {
	calls := 0
	start := time.Now()
	for calls == 0 || time.Since(start) < d {
		for i := 0; i < n; i++ {
			f(i)
		}
		calls += n
	}
	return float64(time.Since(start).Nanoseconds()) / float64(calls)
}

// clusterPass times member 0's SubmitTree on owned and non-owned
// sources apart: a local answer against one forwarding hop. It cycles
// through the working set up to forwardEvery times, so the forwards
// number as many as the working set.
func (e *wireEnv) clusterPass(r *report, budget time.Duration) {
	s0 := e.servers[0]
	view := e.hist.epochs[0]
	var local, fwd []float64
	start := time.Now()
	for i := 0; i < 2*batchSize || (i < forwardEvery*len(e.set) && time.Since(start) < budget); i++ {
		p := e.set[i%len(e.set)]
		r.attempted++
		t0 := time.Now()
		resp, err := s0.SubmitTree(context.Background(), p[0], p[1], core.TreeAuto)
		us := float64(time.Since(t0).Nanoseconds()) / 1e3
		if err != nil {
			r.failure(1, err.Error())
			continue
		}
		if resp.Err != nil || resp.Report == nil {
			r.wrongAnswer(fmt.Sprintf("cluster submit %d->%d: %v", p[0], p[1], resp.Err))
			continue
		}
		if msg := checkPath(e.cube, view, p[0], p[1], resp.Report.Hops, resp.Report.Path); msg != "" {
			r.wrongAnswer("cluster submit: " + msg)
		}
		if s0.OwnsLocally(p[0]) {
			local = append(local, us)
		} else {
			fwd = append(fwd, us)
		}
	}
	r.set("cluster.local_p50_us", median(local))
	r.set("cluster.forward_p50_us", median(fwd))
	r.set("cluster.forward_p99_us", percentile(sortedCopy(fwd), 99))
	r.note("cluster.local_us %v", summarize(local))
	r.note("cluster.forward_us %v", summarize(fwd))
}

// close tears the deployment down. With a report it also drains every
// server and checks accepted == served on each, and on wire-churn that
// the journaled server's frontier fingerprint equals the mirror's.
func (e *wireEnv) close(r *report) {
	for _, c := range e.readers {
		c.Close()
	}
	if e.wconn != nil {
		e.wconn.Close()
	}
	for _, n := range e.nodes {
		n.Close()
	}
	for i, ws := range e.wires {
		ws.Close()
		if err := <-e.serveDone[i]; err != nil && r != nil {
			r.failure(0, "wire listener: "+err.Error())
		}
	}
	if r != nil && e.writer != nil {
		acked := e.hist.acked.Load()
		epoch, fp := e.servers[0].Frontier()
		want := e.hist.epochs[acked].set(e.cube).Fingerprint()
		if epoch != acked || fp != want {
			r.wrongAnswer(fmt.Sprintf("journaled frontier (%d, %#x), mirror (%d, %#x)", epoch, fp, acked, want))
		}
	}
	for i, s := range e.servers {
		shutdown(s)
		if r == nil {
			continue
		}
		if m := s.Metrics(); m.Accepted != m.Served {
			r.wrongAnswer(fmt.Sprintf("member %d drained with accepted %d != served %d", i, m.Accepted, m.Served))
		}
	}
	if e.tmp != "" {
		os.RemoveAll(e.tmp)
	}
}

func shutdown(s *serve.Server) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = s.Shutdown(ctx) // a drain past 30s leaves workers running; the counts check reports it
}

// churnWriter is wire-churn's open-loop fault writer and its schedule.
type churnWriter struct {
	hist *history
	ops  [][]serve.FaultOp // ops[e] is the batch that produces epoch e
	acks []float64         // ms from each batch's due time to its ack
	lags []float64         // ms from each batch's due time to its send
}

// newChurnWriter precomputes the whole schedule and the fault state of
// every epoch it produces: epoch 1 injects churnLive random nodes; each
// later batch repairs the oldest live fault and injects a new node.
func newChurnWriter(cube *gc.Cube, rng *rand.Rand, batches int) *churnWriter {
	w := &churnWriter{hist: &history{epochs: []*faultView{newFaultView(cube)}}, ops: [][]serve.FaultOp{nil}}
	var live []gc.NodeID
	pick := func(exclude gc.NodeID) gc.NodeID {
		for {
			v := gc.NodeID(rng.Intn(cube.Nodes()))
			taken := v == exclude
			for _, u := range live {
				taken = taken || u == v
			}
			if !taken {
				return v
			}
		}
	}
	var first []serve.FaultOp
	for len(live) < churnLive {
		v := pick(^gc.NodeID(0))
		live = append(live, v)
		first = append(first, serve.FaultOp{Op: serve.OpInject, Kind: serve.KindNode, Node: v})
	}
	w.hist.epochs = append(w.hist.epochs, newFaultView(cube, live...))
	w.ops = append(w.ops, first)
	for i := 0; i < batches; i++ {
		old := live[0]
		v := pick(old)
		live = append(append([]gc.NodeID(nil), live[1:]...), v)
		w.hist.epochs = append(w.hist.epochs, newFaultView(cube, live...))
		w.ops = append(w.ops, []serve.FaultOp{
			{Op: serve.OpRepair, Kind: serve.KindNode, Node: old},
			{Op: serve.OpInject, Kind: serve.KindNode, Node: v},
		})
	}
	return w
}

// run keeps the open-loop schedule from start to deadline: batch i is
// due at start + i*churnPeriod whether or not earlier batches were
// slow, and each ack is timed from its due time, so a stall shows in
// every batch queued behind it.
func (w *churnWriter) run(r *report, start, deadline time.Time, apply func([]serve.FaultOp) (uint64, error)) {
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * churnPeriod)
		if !due.Before(deadline) {
			return
		}
		time.Sleep(time.Until(due))
		w.lags = append(w.lags, float64(time.Since(due).Nanoseconds())/1e6)
		e := w.hist.issued.Load() + 1
		if int(e) >= len(w.ops) {
			r.failure(1, "churn schedule exhausted")
			return
		}
		w.hist.issued.Store(e)
		got, err := apply(w.ops[e])
		if err != nil {
			r.failure(1, "fault batch: "+err.Error())
			return
		}
		w.acks = append(w.acks, float64(time.Since(due).Nanoseconds())/1e6)
		if got != e {
			r.wrongAnswer(fmt.Sprintf("fault batch acked as epoch %d, mirror expects %d", got, e))
			return
		}
		w.hist.acked.Store(e)
	}
}

// appendReply encodes the reply frame the gcwire front end sends for
// one route request: a fast-path hit straight from the cached answer,
// otherwise the submitted verdict or its error code.
func appendReply(buf []byte, id uint64, hit bool, ans *serve.CachedAnswer, resp *serve.Response, err error, res *wire.RouteResult) []byte {
	switch {
	case hit:
		*res = wire.RouteResult{Outcome: uint8(core.OutcomeDelivered), Flags: wire.FlagCacheHit,
			Hops: uint16(len(ans.Path) - 1), Detour: uint16(ans.DetourHops), Epoch: ans.Epoch, Path: ans.Path, Reason: res.Reason[:0]}
		if ans.DetourHops > 0 {
			res.Outcome = uint8(core.OutcomeDeliveredDegraded)
			res.Flags |= wire.FlagDegraded
			res.Reason = append(res.Reason, "cached detour"...)
		}
		if ans.Tree >= 0 && ans.Tree <= 255 {
			res.Flags |= wire.FlagHasTree
			res.Tree = uint8(ans.Tree)
		}
		return wire.AppendRouteResult(buf, id, res)
	case errors.Is(err, serve.ErrBackpressure):
		return wire.AppendError(buf, id, wire.CodeBackpressure, err.Error())
	case errors.Is(err, serve.ErrDraining):
		return wire.AppendError(buf, id, wire.CodeDraining, err.Error())
	case err != nil:
		return wire.AppendError(buf, id, wire.CodeBadRequest, err.Error())
	case resp.Err != nil:
		code := wire.CodeBadRequest
		if errors.Is(resp.Err, core.ErrFaultyEndpoint) {
			code = wire.CodeFaultyNode
		}
		return wire.AppendError(buf, id, code, resp.Err.Error())
	}
	rep := resp.Report
	*res = wire.RouteResult{Outcome: uint8(rep.Outcome), Hops: uint16(rep.Hops), Detour: uint16(rep.DetourHops),
		Retries: uint16(rep.Retries), Replans: uint16(rep.Replans), Discovered: uint16(len(rep.Discovered)),
		WaitCycles: uint32(rep.WaitCycles), Epoch: resp.Epoch, Reason: append(res.Reason[:0], rep.Reason...), Path: rep.Path}
	if resp.CacheHit {
		res.Flags |= wire.FlagCacheHit
	}
	if rep.Outcome == core.OutcomeDeliveredDegraded {
		res.Flags |= wire.FlagDegraded
	}
	if rep.UsedFallback {
		res.Flags |= wire.FlagUsedFallback
	}
	if rep.TreeID >= 0 && rep.TreeID <= 255 {
		res.Flags |= wire.FlagHasTree
		res.Tree = uint8(rep.TreeID)
	}
	return wire.AppendRouteResult(buf, id, res)
}

// decodeReply decodes one reply frame into the client's slot shape.
func decodeReply(frame []byte, res *wire.RouteResult, ef *wire.ErrorFrame, out *serve.WireRoute) error {
	h, err := wire.ParseHeader(frame)
	if err != nil {
		return err
	}
	p := frame[wire.HeaderSize:]
	if len(p) != int(h.Len) {
		return fmt.Errorf("frame carries %d payload bytes, header says %d", len(p), h.Len)
	}
	out.ErrCode = 0
	switch h.Type {
	case wire.TypeError:
		ef.Msg = out.ErrMsg[:0]
		if err := wire.DecodeError(p, ef); err != nil {
			return err
		}
		out.ErrCode, out.ErrMsg = ef.Code, ef.Msg
	case wire.TypeRouteResult:
		res.Reason, res.Path = out.Reason[:0], out.Path[:0]
		if err := wire.DecodeRouteResult(p, res); err != nil {
			return err
		}
		out.Outcome, out.Flags, out.Hops, out.Detour = res.Outcome, res.Flags, int(res.Hops), int(res.Detour)
		out.Retries, out.Replans, out.Discovered, out.WaitCycles = res.Retries, res.Replans, res.Discovered, res.WaitCycles
		out.Epoch, out.Reason, out.Path = res.Epoch, res.Reason, res.Path
		out.Tree = -1
		if res.Flags&wire.FlagHasTree != 0 {
			out.Tree = int(res.Tree)
		}
	default:
		return fmt.Errorf("unexpected reply type %d", h.Type)
	}
	return nil
}

// fsType names the filesystem holding dir, for the journal's caveat.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint64(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x01021994:
		return "tmpfs"
	case 0x794C7630:
		return "overlayfs"
	}
	return fmt.Sprintf("0x%x", uint64(st.Type))
}

// scaled returns s with every value multiplied by f.
func scaled(s summary, f float64) summary {
	s.P25, s.P50, s.P75, s.Top = s.P25*f, s.P50*f, s.P75*f, s.Top*f
	return s
}
