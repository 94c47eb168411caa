package core

import (
	"gaussiancube/internal/fault"
	"gaussiancube/internal/gc"
)

// healthyView exposes the non-faulty part of the cube as a
// graph.Topology, the BFS oracle the tests check routes against.
type healthyView struct {
	cube   *gc.Cube
	faults *fault.Set
}

func (h healthyView) Nodes() int { return h.cube.Nodes() }

func (h healthyView) Neighbors(v gc.NodeID) []gc.NodeID {
	if h.faults == nil {
		return h.cube.Neighbors(v)
	}
	if h.faults.NodeFaulty(v) {
		return nil
	}
	out := make([]gc.NodeID, 0, 4)
	for _, dim := range h.cube.LinkDims(v) {
		w := v ^ (1 << dim)
		if !h.faults.LinkFaulty(v, dim) && !h.faults.NodeFaulty(w) {
			out = append(out, w)
		}
	}
	return out
}
