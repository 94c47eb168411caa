package serve

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"gaussiancube/internal/core"
	"gaussiancube/internal/fault"
	"gaussiancube/internal/gc"
	"gaussiancube/internal/repair"
	"gaussiancube/internal/trace"
)

// TestServingModesMatchStandalone runs every serving mode — single-tree
// and four multipath trees, planner and adaptive, tracing off and on
// every request — over one fault set, auto and pinned. Each served
// verdict, planned or from the cache, must carry the path, outcome and
// TreeID of a standalone core router built with the server's options
// and pinned the same way (a cache hit's outcome read from its detour
// tag). A planned route's TreeID must be the tree
// its cache entry is keyed under. A sampled request's ring must hold
// the standalone router's own narrative, which replays to the served
// path.
func TestServingModesMatchStandalone(t *testing.T) {
	cube := gc.New(8, 2)
	fs := fault.NewSet(cube)
	for _, v := range []gc.NodeID{21, 47, 130, 201} {
		fs.AddNode(v)
	}
	for _, v := range []gc.NodeID{3, 16, 90, 150} {
		dims := cube.LinkDims(v)
		fs.AddLink(v, dims[0])           // a tree-edge crossing
		fs.AddLink(v, dims[len(dims)-1]) // a cube dimension
	}
	health := repair.NewHealth(cube)
	health.Rebuild(fs)

	type pair struct{ src, dst gc.NodeID }
	rng := rand.New(rand.NewSource(7))
	var pairs []pair
	for len(pairs) < 48 {
		p := pair{gc.NodeID(rng.Intn(cube.Nodes())), gc.NodeID(rng.Intn(cube.Nodes()))}
		if !fs.NodeFaulty(p.src) {
			pairs = append(pairs, p)
		}
	}

	for _, trees := range []int{0, 4} {
		for _, adaptive := range []bool{false, true} {
			for _, every := range []int{0, 1} {
				t.Run(fmt.Sprintf("trees=%d/adaptive=%v/trace-every=%d", trees, adaptive, every), func(t *testing.T) {
					s := mustServer(t, Config{
						Cube: cube, Faults: fs, Shards: 1, Trees: trees, Adaptive: adaptive,
						Repair: true, TraceEvery: every, CacheCapacity: 1024,
					})
					sh := s.shards[0]
					caching := !adaptive
					pins := []int{core.TreeAuto}
					for i := 0; i < trees; i++ {
						pins = append(pins, i)
					}
					refRing := trace.NewRing(1 << 12)
					// standalone is the router a per-pin twin design would have
					// built: the server's options, this pin, its own tracer.
					standalone := func(src, dst gc.NodeID, pin int) (*core.RouteReport, error, []trace.Event) {
						opts := []core.Option{core.WithFaults(fs), core.WithRepair(health), core.WithTracer(refRing)}
						if trees > 0 {
							opts = append(opts, core.WithTree(s.Trees(), pin))
						}
						var ref core.Routing = core.NewRouter(cube, opts...)
						if adaptive {
							ref = core.NewAdaptiveRouter(cube, fs, opts...)
						}
						refRing.Reset()
						rep, err := ref.RouteContext(context.Background(), src, dst)
						return rep, err, refRing.Events()
					}

					type key struct {
						src, dst gc.NodeID
						tree     int
					}
					cached := map[key]bool{}
					for _, p := range pairs {
						for _, pin := range pins {
							want, wantErr, wantEvents := standalone(p.src, p.dst, pin)
							if sh.ring != nil {
								sh.ring.Reset()
							}
							resp, err := s.SubmitTree(context.Background(), p.src, p.dst, pin)
							if err != nil {
								t.Fatalf("%d->%d pin %d: submission refused: %v", p.src, p.dst, pin, err)
							}
							if wantErr != nil {
								if !errors.Is(resp.Err, wantErr) {
									t.Fatalf("%d->%d pin %d: served err %v, standalone %v", p.src, p.dst, pin, resp.Err, wantErr)
								}
								continue
							}
							if resp.Err != nil {
								t.Fatalf("%d->%d pin %d: served err %v, standalone delivered %+v", p.src, p.dst, pin, resp.Err, want)
							}
							got := resp.Report
							wantOutcome := want.Outcome
							if resp.CacheHit {
								// A hit rebuilds its rung from the entry's detour tag
								// (cachedReport): any hop past the optimum is degraded.
								wantOutcome = core.OutcomeDelivered
								if want.DetourHops > 0 {
									wantOutcome = core.OutcomeDeliveredDegraded
								}
							}
							if got.Outcome != wantOutcome || got.TreeID != want.TreeID || !slices.Equal(got.Path, want.Path) {
								t.Fatalf("%d->%d pin %d (cache hit %v): served %v tree %d path %v, standalone %v tree %d path %v",
									p.src, p.dst, pin, resp.CacheHit, got.Outcome, got.TreeID, got.Path, wantOutcome, want.TreeID, want.Path)
							}
							k := key{p.src, p.dst, want.TreeID}
							if resp.CacheHit != cached[k] {
								t.Fatalf("%d->%d pin %d: cache hit %v, want %v", p.src, p.dst, pin, resp.CacheHit, cached[k])
							}
							delivered := !got.Outcome.Undeliverable() && got.Outcome != core.OutcomeCanceled
							if caching && delivered && !resp.CacheHit {
								es := sh.state.Load()
								path, _, ok := sh.cache.GetTagged(p.src, p.dst, got.TreeID, es.fp)
								if !ok || !slices.Equal(path, got.Path) {
									t.Fatalf("%d->%d pin %d: planned on tree %d but not cached under it (ok=%v path %v)",
										p.src, p.dst, pin, got.TreeID, ok, path)
								}
								cached[k] = true
							}
							if every == 0 {
								continue
							}

							events := sh.ring.Events()
							if len(events) == 0 || events[0].Kind != trace.KindPacket || events[0].From != uint32(p.src) || events[0].To != uint32(p.dst) {
								t.Fatalf("%d->%d pin %d: ring does not open with the request's packet marker: %v", p.src, p.dst, pin, events)
							}
							events = events[1:]
							if resp.CacheHit {
								if len(events) != 1 || events[0].Kind != trace.KindCacheHit {
									t.Fatalf("%d->%d pin %d: cache hit narrated as %v", p.src, p.dst, pin, events)
								}
								continue
							}
							if caching {
								if len(events) == 0 || events[0].Kind != trace.KindCacheMiss {
									t.Fatalf("%d->%d pin %d: planned request without a cache-miss marker: %v", p.src, p.dst, pin, events)
								}
								events = events[1:]
							}
							if !reflect.DeepEqual(events, wantEvents) {
								t.Fatalf("%d->%d pin %d: served narrative\n  %v\nstandalone\n  %v", p.src, p.dst, pin, events, wantEvents)
							}
							if delivered {
								walk, err := trace.Replay(uint32(p.src), events)
								if err != nil || len(walk) != len(got.Path) {
									t.Fatalf("%d->%d pin %d: replay %v, %v; served path %v", p.src, p.dst, pin, walk, err, got.Path)
								}
								for i, v := range walk {
									if gc.NodeID(v) != got.Path[i] {
										t.Fatalf("%d->%d pin %d: replay %v, served path %v", p.src, p.dst, pin, walk, got.Path)
									}
								}
							}
						}
					}
				})
			}
		}
	}
}
