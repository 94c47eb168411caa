// Command gcserved serves Gaussian Cube routing over HTTP/JSON: a
// long-running front end over the sharded worker pool of
// internal/serve, with live fault mutation, merged metrics, sampled
// tracing and graceful drain on SIGTERM.
//
// Usage:
//
//	gcserved -n 10 -alpha 3 -addr :8321
//	gcserved -n 10 -alpha 3 -addr :8321 -wire-addr :8322
//	gcserved -n 10 -alpha 3 -journal-dir /var/lib/gcserved/journal
//	gcserved -n 10 -alpha 3 -faults 5 -seed 7 -trace-every 64
//	gcserved -n 10 -alpha 3 -adaptive -repair
//	gcserved -selftest -n 10 -alpha 3 -clients 8 -requests 4000
//	gcserved -selftest -wire -n 10 -alpha 3 -clients 8 -requests 4000
//
// Endpoints: POST/GET /route, GET|POST /faults, GET /metrics,
// GET /debug/traces, GET /healthz, /debug/pprof/*, /debug/vars.
// Backpressure: a full shard queue answers 429 with Retry-After;
// routing verdicts (delivered, degraded, undeliverable, partitioned,
// canceled) are 200s carrying the outcome in the body.
//
// -wire-addr additionally serves the gcwire binary protocol
// (DESIGN.md §11) on a second listener: the same Server, the same
// fault epoch, answered over length-prefixed frames with the
// cache-hit fast path in front of the shard queues.
//
// -journal-dir makes the fault state durable (DESIGN.md §12): every
// fault mutation is appended to a checksummed, hash-chained journal
// and fsynced before it is acknowledged, and a restart replays the
// journal back to the exact epoch and fingerprint before serving
// undegraded answers. -journal-sync sets the group-commit window
// (0 fsyncs every mutation); -journal-snapshot-every bounds replay
// time by checkpointing and truncating the journal.
//
// -selftest boots the server on a loopback listener and drives it with
// the repo's synthetic workload patterns through the public client —
// live fault churn included — then drains and verifies the
// conservation law (every accepted request answered exactly once). It
// exits non-zero on any violation, which is what the CI smoke job
// runs. With -wire the load goes through the binary gcwire client
// instead of HTTP.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"gaussiancube/internal/workload"
	"gaussiancube/pkg/gcube"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "gcserved:", err)
		os.Exit(1)
	}
}

// drainTimeout bounds the SIGTERM drain; the CI smoke job allows 30s
// for the whole shutdown.
const drainTimeout = 25 * time.Second

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("gcserved", flag.ContinueOnError)
	fs.SetOutput(out)
	var (
		n           = fs.Uint("n", 10, "network dimension n")
		alpha       = fs.Uint("alpha", 3, "modulus exponent: M = 2^alpha")
		addr        = fs.String("addr", ":8321", "listen address")
		wireAddr    = fs.String("wire-addr", "", "also serve the gcwire binary protocol on this address (empty = off)")
		shards      = fs.Int("shards", 0, "worker shards (0 = min(GOMAXPROCS, 2^alpha))")
		queue       = fs.Int("queue", 256, "per-shard queue depth (backpressure bound)")
		batch       = fs.Int("batch", 32, "max requests a worker drains per wakeup")
		cache       = fs.Int("cache", 0, "per-shard route-cache entries (0 default, <0 disable)")
		traceEvery  = fs.Int("trace-every", 0, "sample every Nth request into the shard trace ring (0 = off)")
		adaptive    = fs.Bool("adaptive", false, "route with per-hop adaptive discovery instead of planning")
		repairOn    = fs.Bool("repair", false, "maintain tree-edge health for repair detours and partition proofs")
		deadline    = fs.Duration("deadline", 0, "default per-request deadline (0 = none)")
		journalDir  = fs.String("journal-dir", "", "durable fault journal directory (empty = journaling off)")
		journalSync = fs.Duration("journal-sync", 2*time.Millisecond, "journal group-commit window; 0 fsyncs every mutation")
		journalSnap = fs.Uint64("journal-snapshot-every", 4096, "checkpoint and compact the journal after this many batches (0 = never)")
		peers       = fs.String("peers", "", "cluster mode: comma-separated advertise addresses of every member including this one; ending classes are split evenly in list order")
		classRanges = fs.String("class-ranges", "", "cluster mode: explicit ownership map \"0-1@host:port,2@host:port,...\" (mutually exclusive with -peers)")
		advertise   = fs.String("advertise", "", "cluster mode: this instance's wire address as peers dial it; must appear in -peers or -class-ranges")
		gossipInt   = fs.Duration("gossip-interval", 500*time.Millisecond, "cluster mode: anti-entropy gossip period")
		fwdTimeout  = fs.Duration("forward-timeout", 2*time.Second, "cluster mode: per-hop deadline when forwarding to a class owner")
		faults      = fs.Int("faults", 0, "random initial faulty nodes")
		seed        = fs.Int64("seed", 1, "seed for initial faults and selftest traffic")
		selftest    = fs.Bool("selftest", false, "boot on loopback, drive a load test through the HTTP client, verify conservation, exit")
		clients     = fs.Int("clients", 8, "selftest: concurrent clients")
		requests    = fs.Int("requests", 2000, "selftest: requests per client")
		pattern     = fs.String("pattern", "uniform", "selftest traffic: uniform|complement|transpose|hotspot|permutation")
		churn       = fs.Int("churn", 24, "selftest: fault mutations applied during the run")
		wireTest    = fs.Bool("wire", false, "selftest: drive the load through the gcwire binary client instead of HTTP")
		collEvery   = fs.Int("collectives", 16, "selftest: every Nth request per client is a collective (alternating broadcast/multicast); 0 disables")
		trees       = fs.Int("trees", 0, "stripe served routes over this many multipath trees (power of two; 0 = single-tree)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	// Fail fast on flag combinations that would otherwise misbehave at
	// runtime; explicit records which flags the operator actually set,
	// so defaults don't trip the checks.
	explicit := make(map[string]bool)
	fs.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
	if explicit["journal-snapshot-every"] && *journalDir == "" {
		return fmt.Errorf("-journal-snapshot-every requires -journal-dir: there is no journal to checkpoint")
	}
	clusterMode := *peers != "" || *classRanges != ""
	switch {
	case *peers != "" && *classRanges != "":
		return fmt.Errorf("-peers and -class-ranges are mutually exclusive: list addresses for an even class split, or give the full ownership map")
	case clusterMode && *advertise == "":
		return fmt.Errorf("cluster mode requires -advertise: the wire address peers dial this instance at")
	case clusterMode && *wireAddr == "":
		return fmt.Errorf("cluster mode requires -wire-addr: forwarding and gossip run over the gcwire protocol")
	case clusterMode && *selftest:
		return fmt.Errorf("-selftest drives a single instance and cannot run in cluster mode")
	case !clusterMode && *advertise != "":
		return fmt.Errorf("-advertise without -peers or -class-ranges: no cluster to advertise to")
	case !clusterMode && (explicit["gossip-interval"] || explicit["forward-timeout"]):
		return fmt.Errorf("-gossip-interval and -forward-timeout only apply in cluster mode (-peers or -class-ranges)")
	}

	cube := gcube.NewCube(*n, *alpha)
	var topo *gcube.ClusterTopology
	if clusterMode {
		members, err := clusterMembers(cube, *peers, *classRanges)
		if err != nil {
			return err
		}
		if topo, err = gcube.NewClusterTopology(cube, members); err != nil {
			return err
		}
		if topo.IndexOf(*advertise) < 0 {
			return fmt.Errorf("-advertise %s is not a cluster member", *advertise)
		}
	}
	var initial *gcube.FaultSet
	if *faults > 0 {
		initial = gcube.NewFaultSet(cube)
		initial.InjectRandomNodes(rand.New(rand.NewSource(*seed)), *faults)
	}
	cfg := gcube.ServerConfig{
		Cube:            cube,
		Faults:          initial,
		Shards:          *shards,
		QueueDepth:      *queue,
		Batch:           *batch,
		CacheCapacity:   *cache,
		TraceEvery:      *traceEvery,
		Adaptive:        *adaptive,
		Repair:          *repairOn,
		DefaultDeadline: *deadline,
		Trees:           *trees,
	}
	if *journalDir != "" {
		cfg.Journal = &gcube.JournalConfig{
			Dir:           *journalDir,
			Sync:          *journalSync,
			SnapshotEvery: *journalSnap,
		}
	}
	srv, err := gcube.NewServer(cfg)
	if err != nil {
		return err
	}
	if *journalDir != "" {
		// Block startup on the replay: a journal that cannot be read back
		// is a refusal to serve, not a silent fresh start.
		if err := srv.WaitJournal(context.Background()); err != nil {
			return err
		}
		fmt.Fprintf(out, "gcserved: journal %s replayed to epoch %d (%d faults)\n",
			*journalDir, srv.Epoch(), srv.FaultSet().Count())
	}

	if *selftest {
		return runSelftest(out, srv, selftestConfig{
			bits:      *n,
			clients:   *clients,
			requests:  *requests,
			pattern:   *pattern,
			churn:     *churn,
			seed:      *seed,
			wire:      *wireTest,
			collEvery: *collEvery,
		})
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: gcube.NewHTTPHandler(srv)}
	fmt.Fprintf(out, "gcserved: GC(%d,2^%d), %d nodes, listening on %s\n",
		*n, *alpha, cube.Nodes(), ln.Addr())
	if ts := srv.Trees(); ts != nil {
		fmt.Fprintf(out, "gcserved: multipath striping over %d trees\n", ts.K())
	}

	var wireSrv *gcube.WireServer
	errc := make(chan error, 2)
	if *wireAddr != "" {
		wln, err := net.Listen("tcp", *wireAddr)
		if err != nil {
			return err
		}
		wireSrv = gcube.NewWireServer(srv, wln)
		fmt.Fprintf(out, "gcserved: gcwire binary protocol on %s\n", wln.Addr())
		go func() { errc <- wireSrv.Serve() }()
	}

	var clusterNode *gcube.ClusterNode
	if topo != nil {
		clusterNode, err = gcube.StartCluster(gcube.ClusterConfig{
			Server:         srv,
			Topology:       topo,
			Self:           *advertise,
			GossipInterval: *gossipInt,
			ForwardTimeout: *fwdTimeout,
		})
		if err != nil {
			return err
		}
		self := topo.Members()[topo.IndexOf(*advertise)]
		fmt.Fprintf(out, "gcserved: cluster member %s owns ending classes %s (%d members)\n",
			*advertise, self.Range(), len(topo.Members()))
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() { errc <- httpSrv.Serve(ln) }()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	fmt.Fprintln(out, "gcserved: draining...")
	dctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	// Stop accepting new work first — HTTP, then the wire listener (its
	// Close unblocks every connection reader and waits for each
	// connection's in-flight misses, which need the workers still
	// running) — then
	// drain the worker queues; every request accepted before the signal
	// is answered.
	if err := httpSrv.Shutdown(dctx); err != nil {
		return fmt.Errorf("http shutdown: %w", err)
	}
	if wireSrv != nil {
		if err := wireSrv.Close(); err != nil {
			return fmt.Errorf("wire shutdown: %w", err)
		}
	}
	if clusterNode != nil {
		// Both listeners are down, so no request can need forwarding;
		// stop gossip and drop the peer connections before the drain.
		clusterNode.Close()
	}
	if err := srv.Shutdown(dctx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	m := srv.Metrics()
	fmt.Fprintf(out, "gcserved: drained; accepted=%d served=%d rejected=%d epoch=%d\n",
		m.Accepted, m.Served, m.Rejected, m.Epoch)
	if m.Served != m.Accepted {
		return fmt.Errorf("drain dropped requests: accepted=%d served=%d", m.Accepted, m.Served)
	}
	return nil
}

// clusterMembers builds the member list from whichever cluster flag
// was given: -class-ranges is the explicit ownership map, -peers
// splits the ending classes evenly across the listed addresses in
// order.
func clusterMembers(cube *gcube.Cube, peers, classRanges string) ([]gcube.ClusterMember, error) {
	if classRanges != "" {
		return gcube.ParseClusterMembers(classRanges)
	}
	var addrs []string
	for _, a := range strings.Split(peers, ",") {
		if a = strings.TrimSpace(a); a != "" {
			addrs = append(addrs, a)
		}
	}
	if len(addrs) == 0 {
		return nil, fmt.Errorf("-peers lists no addresses")
	}
	ranges, err := gcube.SplitClusterEven(1<<cube.Alpha(), len(addrs))
	if err != nil {
		return nil, err
	}
	members := make([]gcube.ClusterMember, len(addrs))
	for i, a := range addrs {
		members[i] = gcube.ClusterMember{Addr: a, Lo: ranges[i][0], Hi: ranges[i][1]}
	}
	return members, nil
}

type selftestConfig struct {
	bits      uint
	clients   int
	requests  int
	pattern   string
	churn     int
	seed      int64
	wire      bool
	collEvery int
}

// buildPattern maps the flag onto the simulator's workload generators
// (the tentpole reuse: the same traffic shapes that drive gcsim drive
// this load test).
func buildPattern(name string, bits uint, seed int64) (workload.Pattern, error) {
	switch name {
	case "uniform":
		return workload.Uniform{Bits: bits}, nil
	case "complement":
		return workload.BitComplement{Bits: bits}, nil
	case "transpose":
		return workload.Transpose{Bits: bits}, nil
	case "hotspot":
		return workload.HotSpot{Bits: bits, Hot: 1, Fraction: 0.05}, nil
	case "permutation":
		return workload.NewPermutation(bits, seed), nil
	default:
		return nil, fmt.Errorf("unknown pattern %q", name)
	}
}

// refusal classifies an error as a load-shedding verdict (queue full,
// endpoint currently faulty) rather than a transport failure, on
// either surface.
func refusal(err error) bool {
	var se *gcube.StatusError
	if errors.As(err, &se) {
		return se.IsBackpressure() || se.Code == http.StatusConflict
	}
	var we *gcube.WireStatusError
	if errors.As(err, &we) {
		return we.IsBackpressure() || we.Code == http.StatusConflict
	}
	return false
}

// runSelftest serves on loopback and hammers the public surface — HTTP
// by default, the gcwire binary protocol with -wire — with the
// synthetic workload, mutating faults mid-flight, then drains and
// checks conservation.
func runSelftest(out io.Writer, srv *gcube.Server, cfg selftestConfig) error {
	pat, err := buildPattern(cfg.pattern, cfg.bits, cfg.seed)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	var (
		httpSrv *http.Server
		wireSrv *gcube.WireServer
		surface = "http"
	)
	if cfg.wire {
		surface = "gcwire"
		wireSrv = gcube.NewWireServer(srv, ln)
		go func() { _ = wireSrv.Serve() }()
	} else {
		httpSrv = &http.Server{Handler: gcube.NewHTTPHandler(srv)}
		go func() { _ = httpSrv.Serve(ln) }()
	}
	addr := ln.Addr().String()
	base := "http://" + addr
	fmt.Fprintf(out, "gcserved selftest: %s over %s, pattern=%s, %d clients x %d requests, churn=%d\n",
		addr, surface, pat.Name(), cfg.clients, cfg.requests, cfg.churn)

	cube := srv.Cube()
	nodes := cube.Nodes()
	var (
		wg         sync.WaitGroup
		answered   atomic.Int64
		delivered  atomic.Int64
		refused    atomic.Int64
		failed     atomic.Int64
		collServed atomic.Int64
	)
	start := time.Now()
	for c := 0; c < cfg.clients; c++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.seed + int64(id)))
			ctx := context.Background()
			var route func(src, dst gcube.NodeID) (*gcube.RouteResponse, error)
			var bcast func(root gcube.NodeID) (*gcube.CollectiveReply, error)
			var mcast func(root gcube.NodeID, dests []gcube.NodeID) (*gcube.CollectiveReply, error)
			if cfg.wire {
				wcl, err := gcube.DialWire(addr)
				if err != nil {
					failed.Add(1)
					fmt.Fprintf(out, "client %d: dial: %v\n", id, err)
					return
				}
				defer wcl.Close()
				route = wcl.Route
				bcast = wcl.Broadcast
				mcast = wcl.Multicast
			} else {
				cl := gcube.NewClient(base, &http.Client{Timeout: 10 * time.Second})
				route = func(s, d gcube.NodeID) (*gcube.RouteResponse, error) {
					return cl.Route(ctx, s, d)
				}
				bcast = func(root gcube.NodeID) (*gcube.CollectiveReply, error) {
					return cl.Broadcast(ctx, root)
				}
				mcast = func(root gcube.NodeID, dests []gcube.NodeID) (*gcube.CollectiveReply, error) {
					return cl.Multicast(ctx, root, dests)
				}
			}
			for i := 0; i < cfg.requests; i++ {
				src := gcube.NodeID(rng.Intn(nodes))
				if cfg.collEvery > 0 && i%cfg.collEvery == 0 {
					// Collective arm: alternate broadcast and multicast,
					// validating the per-destination conservation law on
					// every reply — the selftest twin of the oracle tests.
					var cr *gcube.CollectiveReply
					var err error
					if (i/cfg.collEvery)%2 == 0 {
						cr, err = bcast(src)
					} else {
						dests := make([]gcube.NodeID, 1+rng.Intn(6))
						for j := range dests {
							dests[j] = gcube.NodeID(rng.Intn(nodes))
						}
						cr, err = mcast(src, dests)
					}
					if err != nil {
						if refusal(err) {
							refused.Add(1)
							continue
						}
						failed.Add(1)
						fmt.Fprintf(out, "client %d: collective: %v\n", id, err)
						return
					}
					if cr.Delivered+cr.DegradedN+cr.Unreached != len(cr.Dests) {
						failed.Add(1)
						fmt.Fprintf(out, "client %d: collective conservation broken: %+v\n", id, cr)
						return
					}
					answered.Add(1)
					collServed.Add(1)
					if cr.Delivered+cr.DegradedN > 0 {
						delivered.Add(1)
					}
					continue
				}
				dst := pat.Dest(rng, src)
				r, err := route(src, dst)
				if err != nil {
					if refusal(err) {
						refused.Add(1) // queue full, or endpoint currently faulty
						continue
					}
					failed.Add(1)
					fmt.Fprintf(out, "client %d: %v\n", id, err)
					return
				}
				answered.Add(1)
				if r.Outcome == "delivered" || r.Outcome == "delivered-degraded" {
					delivered.Add(1)
				}
			}
		}(c)
	}

	// Fault churner through the same public surface.
	churnDone := make(chan error, 1)
	go func() {
		var apply func(ops []gcube.FaultOp) (*gcube.FaultsResponse, error)
		if cfg.wire {
			wcl, err := gcube.DialWire(addr)
			if err != nil {
				churnDone <- fmt.Errorf("churn dial: %w", err)
				return
			}
			defer wcl.Close()
			apply = wcl.ApplyFaults
		} else {
			cl := gcube.NewClient(base, &http.Client{Timeout: 10 * time.Second})
			apply = func(ops []gcube.FaultOp) (*gcube.FaultsResponse, error) {
				return cl.ApplyFaults(context.Background(), ops)
			}
		}
		rng := rand.New(rand.NewSource(cfg.seed * 31))
		for e := 0; e < cfg.churn; e++ {
			node := gcube.NodeID(rng.Intn(nodes))
			op := gcube.OpInject
			if srv.FaultSet().NodeFaulty(node) {
				op = gcube.OpRepair
			}
			if _, err := apply([]gcube.FaultOp{{Op: op, Kind: gcube.KindNode, Node: node}}); err != nil {
				churnDone <- fmt.Errorf("churn step %d: %w", e, err)
				return
			}
			time.Sleep(time.Millisecond)
		}
		churnDone <- nil
	}()

	wg.Wait()
	if err := <-churnDone; err != nil {
		return err
	}
	elapsed := time.Since(start)

	dctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if cfg.wire {
		if err := wireSrv.Close(); err != nil {
			return fmt.Errorf("wire shutdown: %w", err)
		}
	} else if err := httpSrv.Shutdown(dctx); err != nil {
		return fmt.Errorf("http shutdown: %w", err)
	}
	if err := srv.Shutdown(dctx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}

	m := srv.Metrics()
	rate := float64(m.Served) / elapsed.Seconds()
	var collTotal int64
	if m.Collectives != nil {
		collTotal = m.Collectives.Served
	}
	fmt.Fprintf(out, "selftest: served=%d delivered=%d collectives=%d refused=%d epoch=%d in %v (%.0f req/s)\n",
		m.Served, delivered.Load(), collTotal, refused.Load(), m.Epoch, elapsed.Round(time.Millisecond), rate)

	switch {
	case failed.Load() > 0:
		return fmt.Errorf("selftest: %d client transport failures", failed.Load())
	case m.Served != m.Accepted:
		return fmt.Errorf("selftest: conservation broken, accepted=%d served=%d", m.Accepted, m.Served)
	case answered.Load() == 0 || delivered.Load() == 0:
		return fmt.Errorf("selftest: no traffic delivered (answered=%d)", answered.Load())
	case int(m.Epoch) != cfg.churn:
		return fmt.Errorf("selftest: %d churn steps produced epoch %d", cfg.churn, m.Epoch)
	case cfg.collEvery > 0 && collTotal != collServed.Load():
		return fmt.Errorf("selftest: clients saw %d collective replies, server served %d", collServed.Load(), collTotal)
	}
	fmt.Fprintln(out, "selftest: PASS")
	return nil
}
