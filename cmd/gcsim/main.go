// Command gcsim runs one simulation of routing traffic on a Gaussian
// Cube and prints the Section 6 metrics. Three network models are
// available: the paper's eager-readership packet switching (default),
// bounded-buffer store-and-forward ("stepped"), and flit-level
// wormhole.
//
// Usage:
//
//	gcsim -n 10 -alpha 1 -arrival 0.01 -cycles 100
//	gcsim -n 10 -alpha 1 -faults 3 -pattern transpose
//	gcsim -n 8 -alpha 1 -mode wormhole -flits 4 -vcs 2
//	gcsim -n 10 -alpha 1 -faults 3 -save scenario.json
//	gcsim -load scenario.json
package main

import (
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"sort"

	"gaussiancube/internal/fault"
	"gaussiancube/internal/gc"
	"gaussiancube/internal/simnet"
	"gaussiancube/internal/snapshot"
	"gaussiancube/internal/trace"
	"gaussiancube/internal/workload"
)

// maxNarratedPackets bounds how many sampled route narratives a
// -trace-sample run prints; the rest stay countable via "traced".
const maxNarratedPackets = 4

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "gcsim:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("gcsim", flag.ContinueOnError)
	fs.SetOutput(out)
	var (
		n         = fs.Uint("n", 9, "network dimension n")
		alpha     = fs.Uint("alpha", 1, "modulus exponent: M = 2^alpha")
		arrival   = fs.Float64("arrival", 0.01, "per-node per-cycle packet probability")
		cycles    = fs.Int("cycles", 100, "generation window, cycles")
		seed      = fs.Int64("seed", 1, "simulation seed")
		faults    = fs.Int("faults", 0, "number of random faulty nodes")
		pattern   = fs.String("pattern", "uniform", "traffic: uniform|complement|transpose|hotspot|permutation")
		mode      = fs.String("mode", "eager", "network model: eager|stepped|wormhole")
		flits     = fs.Int("flits", 4, "flits per packet (wormhole mode)")
		buffers   = fs.Int("buffers", 2, "buffer capacity per link/VC (stepped: packets, wormhole: flits)")
		vcs       = fs.Int("vcs", 2, "virtual channels per link (stepped/wormhole modes)")
		savePath  = fs.String("save", "", "write the scenario to this JSON file")
		loadPath  = fs.String("load", "", "replay a scenario from this JSON file")
		mtbf      = fs.Float64("mtbf", 0, "churn: mean cycles between fault injections (0 = static faults; eager mode)")
		mttr      = fs.Float64("mttr", 0, "churn: mean fault lifetime in cycles (0 = permanent; eager mode)")
		adaptive  = fs.Bool("adaptive", false, "route per hop with local fault discovery instead of source planning (eager mode)")
		strict    = fs.Bool("strict", false, "fail when the fault count exceeds the Theorem 3 tolerable bound T(GC)")
		repairOn  = fs.Bool("repair", false, "enable the tree-repair subsystem: detour severed tree-edge crossings, prove partitions (eager mode)")
		category  = fs.String("fault-category", "node", "random fault flavor: node (A/B/C mix), tree-links (B: class-crossing links), sever (kill whole tree edges)")
		sample    = fs.Int("trace-sample", 0, "trace every Nth packet and print the sampled route narratives (eager mode)")
		pprofOn   = fs.String("pprof", "", "serve net/http/pprof and expvar run metrics on this address, e.g. localhost:6060 (\":0\" picks a port)")
		multipath = fs.Int("multipath", 0, "stripe traffic over this many multipath trees (power of two; eager mode)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	var scn *snapshot.Scenario
	var faultSet *fault.Set
	if *loadPath != "" {
		var err error
		scn, err = snapshot.Load(*loadPath)
		if err != nil {
			return err
		}
		faultSet, err = scn.BuildFaultSet()
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "replaying scenario %s\n", *loadPath)
	} else {
		if *n < 1 || *n > 26 || *alpha > *n {
			return fmt.Errorf("bad cube parameters n=%d alpha=%d", *n, *alpha)
		}
		scn = &snapshot.Scenario{
			Version: snapshot.CurrentVersion,
			N:       *n, Alpha: *alpha,
			Arrival: *arrival, GenCycles: *cycles, Seed: *seed,
			Pattern: *pattern,
		}
		if *faults > 0 {
			cube := gc.New(*n, *alpha)
			set := fault.NewSet(cube)
			rng := rand.New(rand.NewSource(*seed * 31))
			switch *category {
			case "node":
				set.InjectRandomNodes(rng, *faults)
			case "tree-links":
				if avail := set.HealthyTreeLinks(); *faults > avail {
					return fmt.Errorf("-faults %d exceeds the %d tree-edge links of GC(%d, %d)",
						*faults, avail, *n, 1<<*alpha)
				}
				set.InjectRandomLinksBelowAlpha(rng, *faults)
			case "sever":
				edges := cube.Tree().Edges()
				if *faults > len(edges) {
					return fmt.Errorf("-faults %d exceeds the %d tree edges of GC(%d, %d)",
						*faults, len(edges), *n, 1<<*alpha)
				}
				rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
				for _, e := range edges[:*faults] {
					u, v := e.Ends()
					set.InjectSeveringFaults(u, v)
				}
			default:
				return fmt.Errorf("unknown fault category %q", *category)
			}
			faultSet = set
			scn.FromFaultSet(faultSet)
		}
	}

	pat, err := patternByName(scn.Pattern, scn.N, scn.Seed)
	if err != nil {
		return err
	}
	if faultSet != nil {
		counts := faultSet.CategoryCounts()
		fmt.Fprintf(out, "faults: %d components (categories: A=%d B=%d C=%d)\n",
			faultSet.Count(), counts[fault.CategoryA], counts[fault.CategoryB], counts[fault.CategoryC])
	}
	if *strict && faultSet != nil {
		if bound := fault.TolerableBound(scn.N, scn.Alpha); uint64(faultSet.Count()) > bound {
			return fmt.Errorf("strict: %d faults exceed the Theorem 3 tolerable bound T(GC(%d, %d)) = %d",
				faultSet.Count(), scn.N, 1<<scn.Alpha, bound)
		}
	}
	var dyn *fault.Dynamic
	if *mtbf > 0 {
		if *mode != "eager" {
			return fmt.Errorf("-mtbf churn is only supported in eager mode")
		}
		cube := gc.New(scn.N, scn.Alpha)
		events := fault.ChurnSchedule(rand.New(rand.NewSource(scn.Seed*17)), cube, fault.ChurnConfig{
			MTBF: *mtbf, MTTR: *mttr, Horizon: scn.GenCycles,
			LinkFraction: 0.4,
			MaxActive:    int(fault.TolerableBound(scn.N, scn.Alpha)),
		})
		dyn = fault.NewDynamic(cube, events)
		fmt.Fprintf(out, "churn: %d fault events (MTBF %.1f, MTTR %.1f)\n", len(events), *mtbf, *mttr)
	}
	if *adaptive && *mode != "eager" {
		return fmt.Errorf("-adaptive routing is only supported in eager mode")
	}
	if *repairOn && *mode != "eager" {
		return fmt.Errorf("-repair is only supported in eager mode")
	}
	if *sample > 0 && *mode != "eager" {
		return fmt.Errorf("-trace-sample is only supported in eager mode")
	}
	if *multipath > 0 && *mode != "eager" {
		return fmt.Errorf("-multipath is only supported in eager mode")
	}
	if *pprofOn != "" {
		srv, addr, err := startDebugServer(*pprofOn)
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Fprintf(out, "debug server: http://%s/debug/pprof and http://%s/debug/vars\n", addr, addr)
	}

	switch *mode {
	case "eager":
		return runEager(out, scn, pat, faultSet, dyn, *adaptive, *repairOn, *savePath, *sample, *multipath)
	case "stepped":
		return runStepped(out, scn, pat, faultSet, *buffers, *vcs)
	case "wormhole":
		return runWormhole(out, scn, pat, *flits, *buffers, *vcs)
	default:
		return fmt.Errorf("unknown mode %q", *mode)
	}
}

func runEager(out io.Writer, scn *snapshot.Scenario, pat workload.Pattern, faultSet *fault.Set, dyn *fault.Dynamic, adaptive, repairOn bool, savePath string, sample, multipath int) error {
	cfg := simnet.Config{
		N: scn.N, Alpha: scn.Alpha,
		Arrival: scn.Arrival, GenCycles: scn.GenCycles, Seed: scn.Seed,
		Pattern: pat, Faults: faultSet,
		Dynamic: dyn, Adaptive: adaptive, Repair: repairOn,
		CacheRoutes: dyn != nil && !adaptive,
		HistBuckets: 64,
		Trees:       multipath,
	}
	var ring *trace.Ring
	if sample > 0 {
		ring = trace.NewRing(1 << 15)
		cfg.TraceEvery = sample
		cfg.Tracer = ring
	}
	stats, err := simnet.Run(cfg)
	if err != nil {
		return err
	}
	publishStats(stats)
	label := ""
	if adaptive {
		label = ", adaptive per-hop routing"
	}
	if repairOn {
		label += ", tree repair"
	}
	if multipath > 1 {
		label += fmt.Sprintf(", %d-tree multipath", multipath)
	}
	fmt.Fprintf(out, "GC(%d, %d), arrival %.4f, %d generation cycles, %s traffic%s\n",
		scn.N, 1<<scn.Alpha, scn.Arrival, scn.GenCycles, pat.Name(), label)
	fmt.Fprintf(out, "  generated:       %d packets\n", stats.Generated)
	fmt.Fprintf(out, "  delivered:       %d packets (%.1f%%)\n", stats.Delivered, 100*stats.DeliveryRate())
	fmt.Fprintf(out, "  undeliverable:   %d\n", stats.Undeliverable)
	if repairOn {
		fmt.Fprintf(out, "  partitioned:     %d (proven unreachable)\n", stats.Partitioned)
	}
	fmt.Fprintf(out, "  fallback routes: %d\n", stats.FallbackRoutes)
	if len(stats.TreeRoutes) > 0 {
		fmt.Fprintf(out, "  tree routes:     %v\n", stats.TreeRoutes)
	}
	if dyn != nil {
		fmt.Fprintf(out, "  fault epochs:    %d (cache invalidations: %d)\n",
			stats.Epochs, stats.CacheInvalidations)
		fmt.Fprintf(out, "  rerouted/dropped: %d/%d\n", stats.Rerouted, stats.Dropped)
	}
	if adaptive {
		fmt.Fprintf(out, "  retries:         %d (replans %d, wait cycles %d)\n",
			stats.Retries, stats.Replans, stats.WaitCycles)
		fmt.Fprintf(out, "  degraded:        %d (mean detour hops %.3f)\n",
			stats.Degraded, stats.DetourHops.Mean())
		reasons := make([]string, 0, len(stats.DropReasons))
		for r := range stats.DropReasons {
			reasons = append(reasons, r)
		}
		sort.Strings(reasons)
		for _, r := range reasons {
			fmt.Fprintf(out, "  drop[%s]: %d\n", r, stats.DropReasons[r])
		}
	}
	fmt.Fprintf(out, "  avg latency:     %.3f cycles (min %.0f, max %.0f)\n",
		stats.AvgLatency(), stats.Latency.Min(), stats.Latency.Max())
	fmt.Fprintf(out, "  avg hops:        %.3f\n", stats.Hops.Mean())
	fmt.Fprintf(out, "  makespan:        %d cycles\n", stats.Makespan)
	fmt.Fprintf(out, "  throughput:      %.4f pkt/cycle (log2 = %.3f)\n",
		stats.Throughput(), stats.Log2Throughput())
	fmt.Fprintf(out, "  work efficiency: %.5f pkt per node-cycle\n", stats.Efficiency())
	if ring != nil {
		segs := trace.SplitPackets(ring.Events())
		shown := len(segs)
		if shown > maxNarratedPackets {
			shown = maxNarratedPackets
		}
		fmt.Fprintf(out, "traced %d packets (showing %d):\n", stats.Traced, shown)
		for _, seg := range segs[:shown] {
			fmt.Fprintf(out, "packet %d: %d -> %d\n", seg[0].Arg, seg[0].From, seg[0].To)
			trace.Narrate(out, seg[1:], scn.N)
		}
	}
	if savePath != "" {
		if err := snapshot.Save(savePath, scn); err != nil {
			return err
		}
		fmt.Fprintf(out, "scenario saved to %s\n", savePath)
	}
	return nil
}

// buildTrace materializes the scenario's Bernoulli offered load so the
// bounded-buffer modes see the same traffic shape as the eager model.
func buildTrace(scn *snapshot.Scenario, pat workload.Pattern, faultSet *fault.Set) []simnet.Packet {
	rng := rand.New(rand.NewSource(scn.Seed))
	nodes := 1 << scn.N
	var trace []simnet.Packet
	for t := 0; t < scn.GenCycles; t++ {
		for v := 0; v < nodes; v++ {
			if rng.Float64() >= scn.Arrival {
				continue
			}
			src := gc.NodeID(v)
			if faultSet != nil && faultSet.NodeFaulty(src) {
				continue
			}
			dst := pat.Dest(rng, src)
			if dst == src || int(dst) >= nodes {
				continue
			}
			if faultSet != nil && faultSet.NodeFaulty(dst) {
				continue
			}
			trace = append(trace, simnet.Packet{Src: src, Dst: dst, Time: t})
		}
	}
	return trace
}

func runStepped(out io.Writer, scn *snapshot.Scenario, pat workload.Pattern, faultSet *fault.Set, buffers, vcs int) error {
	stats, err := simnet.RunStepped(simnet.SteppedConfig{
		N: scn.N, Alpha: scn.Alpha,
		Trace:       buildTrace(scn, pat, faultSet),
		BufferSlots: buffers,
		VCs:         vcs,
		Policy:      func(hop int, _ []gc.NodeID) uint8 { return uint8(hop % vcs) },
		Faults:      faultSet,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "GC(%d, %d), stepped store-and-forward, buffers=%d vcs=%d\n",
		scn.N, 1<<scn.Alpha, buffers, vcs)
	fmt.Fprintf(out, "  generated:  %d packets\n", stats.Generated)
	fmt.Fprintf(out, "  delivered:  %d packets\n", stats.Delivered)
	fmt.Fprintf(out, "  deadlocked: %v (in flight: %d)\n", stats.Deadlocked, stats.InFlight)
	fmt.Fprintf(out, "  cycles:     %d\n", stats.Cycles)
	fmt.Fprintf(out, "  avg latency: %.3f cycles\n", stats.Latency.Mean())
	return nil
}

func runWormhole(out io.Writer, scn *snapshot.Scenario, pat workload.Pattern, flits, buffers, vcs int) error {
	stats, err := simnet.RunWormhole(simnet.WormholeConfig{
		N: scn.N, Alpha: scn.Alpha,
		Trace:          buildTrace(scn, pat, nil),
		FlitsPerPacket: flits,
		BufferFlits:    buffers,
		VCs:            vcs,
		Policy:         func(hop int, _ []gc.NodeID) uint8 { return uint8(hop % vcs) },
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "GC(%d, %d), wormhole, %d flits/packet, buffers=%d vcs=%d\n",
		scn.N, 1<<scn.Alpha, flits, buffers, vcs)
	fmt.Fprintf(out, "  generated:  %d worms\n", stats.Generated)
	fmt.Fprintf(out, "  delivered:  %d worms\n", stats.Delivered)
	fmt.Fprintf(out, "  deadlocked: %v (in flight: %d)\n", stats.Deadlocked, stats.InFlight)
	fmt.Fprintf(out, "  cycles:     %d\n", stats.Cycles)
	fmt.Fprintf(out, "  avg latency: %.3f cycles\n", stats.Latency.Mean())
	return nil
}

func patternByName(name string, bits uint, seed int64) (workload.Pattern, error) {
	switch name {
	case "", "uniform":
		return workload.Uniform{Bits: bits}, nil
	case "complement":
		return workload.BitComplement{Bits: bits}, nil
	case "transpose":
		return workload.Transpose{Bits: bits}, nil
	case "hotspot":
		return workload.HotSpot{Bits: bits, Hot: 0, Fraction: 0.2}, nil
	case "permutation":
		return workload.NewPermutation(bits, seed), nil
	default:
		return nil, fmt.Errorf("unknown pattern %q", name)
	}
}
