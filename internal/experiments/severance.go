package experiments

import (
	"errors"
	"fmt"
	"math/rand"

	"gaussiancube/internal/core"
	"gaussiancube/internal/fault"
	"gaussiancube/internal/gc"
	"gaussiancube/internal/graph"
	"gaussiancube/internal/repair"
)

// Severance is the tree-repair extension experiment: B/C-category
// fault campaigns that erode the class-crossing links below alpha —
// the physical realizations of the Gaussian Tree's edges, the skeleton
// every FFGCR plan walks. Per modulus it sweeps the number of dead
// tree-edge links (linkFaults; a count beyond the links left is
// clamped, so a grid can sweep to total severance) and plots the bare
// strategy, the strategy with the tree-repair subsystem, the BFS last
// resort, and the BFS oracle's reachability bound over identical fault
// placements and pairs — the baseline-to-repair gap is the value of
// detouring through surviving realizations, and the repair curve
// hugging the oracle bound shows the partition verdicts are tight.
// When severEdges is positive, every realization of that many randomly
// chosen tree edges also dies in each trial: guaranteed C-style
// severance on top of the erosion. Alpha 0 is skipped: GC(n, 1) has no
// tree edges to sever.
//
// A partition verdict must be a proof: one the BFS oracle contradicts
// is returned as an error.
func Severance(n uint, linkFaults []int, severEdges, trials, pairs int, seed int64) ([]Figure, error) {
	var out []Figure
	for _, alpha := range []uint{1, 2} {
		f, _, err := severance(gc.New(n, alpha), linkFaults, severEdges, trials, pairs, seed)
		if err != nil {
			return nil, err
		}
		out = append(out, f)
	}
	return out, nil
}

// severance measures one modulus of Severance. It also returns, per
// grid point, the mean number of fully severed tree edges per trial,
// which confirms the campaign stresses what it claims to.
func severance(cube *gc.Cube, linkFaults []int, severEdges, trials, pairs int, seed int64) (Figure, []float64, error) {
	rng := rand.New(rand.NewSource(seed))
	edges := cube.Tree().Edges()
	oracle := Series{Name: "reachable (BFS oracle bound)"}
	baseline := Series{Name: "FFGCR baseline"}
	repaired := Series{Name: "FFGCR + tree repair"}
	fallback := Series{Name: "BFS last resort"}
	var severed []float64
	for _, lf := range linkFaults {
		attempted, reachable, base, rep, fb, severedTotal := 0, 0, 0, 0, 0, 0
		for trial := 0; trial < trials; trial++ {
			fs := fault.NewSet(cube)
			if severEdges > 0 {
				rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
				for _, e := range edges[:severEdges] {
					u, v := e.Ends()
					fs.InjectSeveringFaults(u, v)
				}
			}
			// Severing first shrinks the candidate pool; clamp so the
			// grid can sweep right up to (and past) total severance.
			fs.InjectRandomLinksBelowAlpha(rng, min(lf, fs.HealthyTreeLinks()))

			health := repair.NewHealth(cube)
			health.Rebuild(fs)
			severedTotal += len(health.SeveredEdges())

			bare := core.NewRouter(cube, core.WithFaults(fs), core.WithoutFallback())
			withRepair := core.NewRouter(cube, core.WithFaults(fs), core.WithoutFallback(), core.WithRepair(health))
			last := core.NewRouter(cube, core.WithFaults(fs))
			hv := healthyTopology{cube: cube, fs: fs}
			for p := 0; p < pairs; p++ {
				s, d, ok := healthyPair(rng, cube, fs)
				if !ok {
					continue
				}
				attempted++
				connected := graph.ShortestPath(hv, s, d) != nil
				if connected {
					reachable++
				}
				if delivers(bare, fs, s, d) {
					base++
				}
				res, err := withRepair.Route(s, d)
				switch {
				case err == nil && core.ValidatePath(cube, fs, res.Path, s, d) == nil:
					rep++
				case errors.Is(err, core.ErrPartitioned) && connected:
					return Figure{}, nil, fmt.Errorf("experiments: GC(%d, %d): partition verdict for %d -> %d contradicted by the BFS oracle",
						cube.N(), cube.M(), s, d)
				}
				if delivers(last, fs, s, d) {
					fb++
				}
			}
		}
		x := float64(lf)
		oracle.Points = append(oracle.Points, Point{X: x, Y: fraction(reachable, attempted)})
		baseline.Points = append(baseline.Points, Point{X: x, Y: fraction(base, attempted)})
		repaired.Points = append(repaired.Points, Point{X: x, Y: fraction(rep, attempted)})
		fallback.Points = append(fallback.Points, Point{X: x, Y: fraction(fb, attempted)})
		severed = append(severed, fraction(severedTotal, trials))
	}
	f := Figure{
		ID:     fmt.Sprintf("severance-M%d", cube.M()),
		Title:  fmt.Sprintf("Delivery under tree-edge severance, GC(%d, %d)", cube.N(), cube.M()),
		XLabel: "faulty tree-edge links",
		YLabel: "delivery rate",
		Series: []Series{oracle, baseline, repaired, fallback},
	}
	return f, severed, nil
}
