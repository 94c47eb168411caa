package experiments

import (
	"fmt"
	"math/rand"

	"gaussiancube/internal/core"
	"gaussiancube/internal/fault"
	"gaussiancube/internal/gc"
	"gaussiancube/internal/graph"
)

// Resilience is the extension experiment implementing the unified
// fault-tolerance metric the paper's conclusion calls for: "a new
// unified metric needs to be designed to measure the fault-tolerance
// ability of interconnection networks so that it is fair despite their
// different routing algorithms and different methods of fault
// categorization". For a fixed dimension it sweeps the faulty-node
// count and plots three curves per modulus:
//
//   - connectivity: the fraction of random placements of f faulty
//     nodes that leave all healthy nodes mutually connected — an upper
//     bound no routing algorithm can beat;
//   - delivery: the fraction of random healthy source/destination
//     pairs the full strategy (with the BFS fallback) delivers under
//     the same placements;
//   - bare strategy: the same without the fallback — the paper's
//     strategy alone.
//
// The gap between the curves is the routing algorithm's shortfall, and
// their decay rate is the topology's intrinsic fragility, which makes
// networks with different topologies and fault categorizations
// directly comparable.
func Resilience(n uint, faults []int, trials, pairs int, seed int64) []Figure {
	var out []Figure
	for _, alpha := range []uint{0, 1, 2} {
		cube := gc.New(n, alpha)
		rng := rand.New(rand.NewSource(seed))
		conn := Series{Name: "connectivity"}
		deliv := Series{Name: "delivery"}
		bare := Series{Name: "bare strategy"}
		for _, f := range faults {
			connected := 0
			delivered, strategyDelivered, attempted := 0, 0, 0
			for trial := 0; trial < trials; trial++ {
				fs := fault.NewSet(cube)
				fs.InjectRandomNodes(rng, f)
				if healthyConnected(cube, fs) {
					connected++
				}
				strict := core.NewRouter(cube, core.WithFaults(fs), core.WithoutFallback())
				fallback := core.NewRouter(cube, core.WithFaults(fs))
				for p := 0; p < pairs; p++ {
					s, d, ok := healthyPair(rng, cube, fs)
					if !ok {
						continue
					}
					attempted++
					if delivers(fallback, fs, s, d) {
						delivered++
					}
					if delivers(strict, fs, s, d) {
						strategyDelivered++
					}
				}
			}
			x := float64(f)
			conn.Points = append(conn.Points, Point{X: x, Y: fraction(connected, trials)})
			deliv.Points = append(deliv.Points, Point{X: x, Y: fraction(delivered, attempted)})
			bare.Points = append(bare.Points, Point{X: x, Y: fraction(strategyDelivered, attempted)})
		}
		out = append(out, Figure{
			ID:     fmt.Sprintf("resilience-M%d", 1<<alpha),
			Title:  fmt.Sprintf("Fault-tolerance profile of GC(%d, %d)", n, 1<<alpha),
			XLabel: "faulty nodes",
			YLabel: "probability",
			Series: []Series{conn, deliv, bare},
		})
	}
	return out
}

// delivers reports whether r routes s to d along a path valid under fs.
func delivers(r *core.Router, fs *fault.Set, s, d gc.NodeID) bool {
	res, err := r.Route(s, d)
	return err == nil && core.ValidatePath(r.Cube(), fs, res.Path, s, d) == nil
}

// fraction is k/total, or 0 when nothing was attempted.
func fraction(k, total int) float64 {
	if total == 0 {
		return 0
	}
	return float64(k) / float64(total)
}

// healthyConnected reports whether the healthy nodes form one
// connected component.
func healthyConnected(cube *gc.Cube, fs *fault.Set) bool {
	var start gc.NodeID
	found := false
	for v := gc.NodeID(0); int(v) < cube.Nodes(); v++ {
		if !fs.NodeFaulty(v) {
			start = v
			found = true
			break
		}
	}
	if !found {
		return false
	}
	dist := graph.BFS(healthyTopology{cube: cube, fs: fs}, start)
	for v := 0; v < cube.Nodes(); v++ {
		if !fs.NodeFaulty(gc.NodeID(v)) && dist[v] == -1 {
			return false
		}
	}
	return true
}

// healthyPair samples a healthy source/destination pair.
func healthyPair(rng *rand.Rand, cube *gc.Cube, fs *fault.Set) (s, d gc.NodeID, ok bool) {
	for attempt := 0; attempt < 64; attempt++ {
		s = gc.NodeID(rng.Intn(cube.Nodes()))
		d = gc.NodeID(rng.Intn(cube.Nodes()))
		if s != d && !fs.NodeFaulty(s) && !fs.NodeFaulty(d) {
			return s, d, true
		}
	}
	return 0, 0, false
}

// healthyTopology exposes the healthy subgraph as graph.Topology.
type healthyTopology struct {
	cube *gc.Cube
	fs   *fault.Set
}

func (h healthyTopology) Nodes() int { return h.cube.Nodes() }

func (h healthyTopology) Neighbors(v gc.NodeID) []gc.NodeID {
	if h.fs.NodeFaulty(v) {
		return nil
	}
	out := make([]gc.NodeID, 0, 4)
	for _, dim := range h.cube.LinkDims(v) {
		w := v ^ (1 << dim)
		if !h.fs.LinkFaulty(v, dim) && !h.fs.NodeFaulty(w) {
			out = append(out, w)
		}
	}
	return out
}
