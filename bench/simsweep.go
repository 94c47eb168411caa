package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"gaussiancube/internal/experiments"
	"gaussiancube/internal/fault"
	"gaussiancube/internal/gc"
	"gaussiancube/internal/metrics"
	"gaussiancube/internal/simnet"
)

// goldenJSON holds every sim-sweep point as generated at the commit
// that introduced this benchmark, and cross-checked once against
// experiments.Figures5and6 and Figures7and8 (TestGoldenMatchesExperiments).
//
//go:embed testdata/sim-sweep.golden.json
var goldenJSON []byte

// simWorkers is how many sweep points run at once.
const simWorkers = 2

// simJob is one point of the paper's Figures 5-8 grid, run exactly as
// internal/experiments runs it: a Figure 5/6 point averages the sweep
// seeds over GC(n, 2^alpha) with one route cache shared by the seeds; a
// Figure 7/8 point runs each seed's paired trace on GC(n, 2) without
// and with one faulty node.
type simJob struct {
	key      string
	n, alpha uint
	fig78    bool
	traces   [][]simnet.Packet // Figure 7/8: one paired trace per seed
	bad      []gc.NodeID       // Figure 7/8: the faulty node per seed
	runs     int
}

// simOutcome is one job's result: the figure values in the order the
// golden file keeps them, and its packet counts.
type simOutcome struct {
	values               []float64
	delivered, generated int
	cacheHits            int
	dur                  time.Duration
}

type sweepEnv struct {
	sweep  experiments.SimSweep
	jobs   []*simJob
	golden map[string][]float64
}

// setupSweep builds the grid and every Figure 7/8 paired trace. The
// sweep uses the paper's own seeds, so --seed changes nothing here:
// every run must reproduce the golden points exactly.
func setupSweep(o options) (env, error) {
	e := &sweepEnv{sweep: experiments.DefaultSweep()}
	if err := json.Unmarshal(goldenJSON, &e.golden); err != nil {
		return nil, fmt.Errorf("golden file: %w", err)
	}
	e.jobs = buildJobs(e.sweep)
	return e, nil
}

func buildJobs(sweep experiments.SimSweep) []*simJob {
	var jobs []*simJob
	for _, alpha := range []uint{0, 1, 2} {
		for n := sweep.MinN; n <= sweep.MaxN; n++ {
			if alpha <= n {
				jobs = append(jobs, &simJob{key: fmt.Sprintf("fig56/M=%d/n=%d", 1<<alpha, n), n: n, alpha: alpha, runs: len(sweep.Seeds)})
			}
		}
	}
	for n := sweep.MinN; n <= sweep.MaxN; n++ {
		j := &simJob{key: fmt.Sprintf("fig78/n=%d", n), n: n, alpha: 1, fig78: true, runs: 2 * len(sweep.Seeds)}
		for _, seed := range sweep.Seeds {
			cube := gc.New(n, 1)
			rng := rand.New(rand.NewSource(seed * 7919))
			bad := gc.NodeID(rng.Intn(cube.Nodes()))
			j.bad = append(j.bad, bad)
			j.traces = append(j.traces, pairedTrace(rng, cube, sweep, bad))
		}
		jobs = append(jobs, j)
	}
	// Largest first, so the two workers finish a pass together.
	sort.SliceStable(jobs, func(a, b int) bool {
		return jobs[a].runs<<jobs[a].n > jobs[b].runs<<jobs[b].n
	})
	return jobs
}

// pairedTrace is the Bernoulli offered load of one Figure 7/8 point,
// excluding the faulty node as source and destination; it draws from
// rng exactly as internal/experiments does.
func pairedTrace(rng *rand.Rand, cube *gc.Cube, sweep experiments.SimSweep, exclude gc.NodeID) []simnet.Packet {
	var trace []simnet.Packet
	nodes := cube.Nodes()
	for t := 0; t < sweep.GenCycles; t++ {
		for v := 0; v < nodes; v++ {
			if rng.Float64() >= sweep.Arrival {
				continue
			}
			src := gc.NodeID(v)
			if src == exclude {
				continue
			}
			var dst gc.NodeID
			for {
				dst = gc.NodeID(rng.Intn(nodes))
				if dst != src && dst != exclude {
					break
				}
			}
			trace = append(trace, simnet.Packet{Src: src, Dst: dst, Time: t})
		}
	}
	return trace
}

// run simulates one job, with a simnet.run span around every
// simulation when tr is non-nil.
func (j *simJob) run(sweep experiments.SimSweep, tr *tracer) (simOutcome, error) {
	start := time.Now()
	var out simOutcome
	root := tr.begin("request", -1)
	sim := func(cfg simnet.Config) (*simnet.Stats, error) {
		sp := tr.begin("simnet.run", root)
		st, err := simnet.Run(cfg)
		tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", j.key, err)
		}
		out.delivered += st.Delivered
		out.generated += st.Generated
		out.cacheHits += st.RouteCacheHits
		return st, nil
	}
	k := float64(len(sweep.Seeds))
	if !j.fig78 {
		cache := simnet.NewRouteCache(simnet.DefaultRouteCacheCapacity)
		var lat, thr float64
		for _, seed := range sweep.Seeds {
			st, err := sim(simnet.Config{N: j.n, Alpha: j.alpha, Arrival: sweep.Arrival, GenCycles: sweep.GenCycles, Seed: seed, RouteCache: cache})
			if err != nil {
				return out, err
			}
			lat += st.AvgLatency()
			thr += st.Throughput()
		}
		out.values = []float64{lat / k, metrics.Log2(thr / k)}
	} else {
		var lat0, thr0, lat1, thr1 float64
		for i := range sweep.Seeds {
			cfg := simnet.Config{N: j.n, Alpha: 1, Arrival: sweep.Arrival, GenCycles: sweep.GenCycles, Trace: j.traces[i]}
			s0, err := sim(cfg)
			if err != nil {
				return out, err
			}
			fs := fault.NewSet(gc.New(j.n, 1))
			fs.AddNode(j.bad[i])
			cfg.Faults = fs
			s1, err := sim(cfg)
			if err != nil {
				return out, err
			}
			lat0 += s0.AvgLatency()
			thr0 += s0.Throughput()
			lat1 += s1.AvgLatency()
			thr1 += s1.Throughput()
		}
		out.values = []float64{lat0 / k, metrics.Log2(thr0 / k), lat1 / k, metrics.Log2(thr1 / k)}
	}
	tr.end(root)
	tr.finish(1)
	out.dur = time.Since(start)
	return out, nil
}

// check compares one job's values with the golden point.
func (e *sweepEnv) check(r *report, j *simJob, o simOutcome) {
	want, ok := e.golden[j.key]
	if !ok {
		r.wrongAnswer(fmt.Sprintf("sim point %s has no golden value", j.key))
		return
	}
	if len(want) != len(o.values) {
		r.wrongAnswer(fmt.Sprintf("sim point %s: %d values, golden has %d", j.key, len(o.values), len(want)))
		return
	}
	for i := range want {
		if o.values[i] != want[i] {
			r.wrongAnswer(fmt.Sprintf("sim point %s value %d = %v, golden %v", j.key, i, o.values[i], want[i]))
			return
		}
	}
}

// runJobs runs jobs over simWorkers goroutines, checking each outcome
// against the golden points.
func (e *sweepEnv) runJobs(r *report, jobs []*simJob) []simOutcome {
	outs := make([]simOutcome, len(jobs))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < simWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				o, err := jobs[i].run(e.sweep, nil)
				if err != nil {
					r.failure(1, err.Error())
					continue
				}
				e.check(r, jobs[i], o)
				outs[i] = o
			}
		}()
	}
	for i := range jobs {
		next <- i
	}
	close(next)
	wg.Wait()
	r.attempted += int64(len(jobs))
	return outs
}

// measure repeats whole passes over the grid until the window is over
// (at least one pass). Throughput is the median pass's delivered
// packets per second of wall time; batch latency is the time of one
// sweep point.
func (e *sweepEnv) measure(r *report, d time.Duration) {
	runtime.GC()
	sampler := startSampler(nil)
	deadline := time.Now().Add(d)
	var rates, durs []float64
	var delivered, generated, hits float64
	for len(rates) == 0 || time.Now().Before(deadline) {
		start := time.Now()
		outs := e.runJobs(r, e.jobs)
		wall := time.Since(start).Seconds()
		var pass float64
		for i, o := range outs {
			pass += float64(o.delivered)
			delivered += float64(o.delivered)
			durs = append(durs, float64(o.dur.Nanoseconds())/1e3)
			if !e.jobs[i].fig78 {
				generated += float64(o.generated)
				hits += float64(o.cacheHits)
			}
		}
		rates = append(rates, pass/wall)
	}
	sampler.finish(r, delivered)
	r.set("ops_per_s", median(rates))
	r.set("batch_p50_us", median(durs))
	r.set("batch_p90_us", percentile(sortedCopy(durs), 90))
	r.note("passes %d, delivered packets/s per pass %v", len(rates), summarize(rates))
	r.note("point_us %v", summarize(durs))
	if generated > 0 {
		r.set("simnet.cache_hit_ratio", hits/generated)
	}
	if v, ok := r.values["process.allocs_per_op"]; ok {
		r.set("simnet.allocs_per_packet", v)
	}
}

// trace times the same job sequence untraced and traced, and the core
// planner on the Figure 7/8 pairs and faults.
func (e *sweepEnv) trace(r *report, d time.Duration, spansPath string) error {
	// As many points as fit in half the budget, smallest first, then the
	// same points again with spans, both on one goroutine.
	var jobs []*simJob
	start := time.Now()
	for i := 0; len(jobs) == 0 || time.Since(start) < d/2; i++ {
		j := e.jobs[len(e.jobs)-1-i%len(e.jobs)]
		o, err := j.run(e.sweep, nil)
		if err != nil {
			return err
		}
		e.check(r, j, o)
		jobs = append(jobs, j)
	}
	off := time.Since(start)
	tr := newTracer(time.Now(), spanKeep)
	start = time.Now()
	for _, j := range jobs {
		o, err := j.run(e.sweep, tr)
		if err != nil {
			return err
		}
		e.check(r, j, o)
	}
	on := time.Since(start)
	r.attempted += 2 * int64(len(jobs))
	r.set("trace.overhead_ratio", off.Seconds()/on.Seconds())
	tracers := []*tracer{tr}
	st, _, _ := mergeStats(tracers)
	if s := st["simnet.run"]; s != nil && s.N > 0 {
		r.set("simnet.run_ms", s.Dur/float64(s.N)/1e6)
	}

	var groups []planGroup
	for _, j := range e.jobs {
		if !j.fig78 {
			continue
		}
		cube := gc.New(j.n, 1)
		for i, tr := range j.traces {
			fs := fault.NewSet(cube)
			fs.AddNode(j.bad[i])
			g := planGroup{cube: cube, faults: fs}
			for _, p := range tr[:min(len(tr), 256)] {
				g.pairs = append(g.pairs, [2]gc.NodeID{p.Src, p.Dst})
			}
			groups = append(groups, g)
		}
	}
	planPass(r, groups, d/4)
	if spansPath != "" {
		return writeSpans(spansPath, tracers)
	}
	return nil
}

func (e *sweepEnv) close(*report) {}

// writeGolden runs one pass and writes every point's values to path.
func writeGolden(path string) error {
	sweep := experiments.DefaultSweep()
	golden := make(map[string][]float64)
	for _, j := range buildJobs(sweep) {
		o, err := j.run(sweep, nil)
		if err != nil {
			return err
		}
		golden[j.key] = o.values
	}
	data, err := json.MarshalIndent(golden, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
