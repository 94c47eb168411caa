// Package hypercube implements the binary hypercube Q_n and the
// fault-tolerant hypercube routing substrates the paper builds on.
//
// Theorem 3 of the paper reduces intra-class routing in the Gaussian Cube
// to routing in the binary hypercubes GEEC(k,t), delegating to the
// fault-tolerant cube routers of Loh et al. [4], Wu [5] and Lan [6],
// "which ensure a packet to be sent from any non-faulty source to any
// non-faulty destination in a deadlock-free fashion, as long as the
// number of faulty links is less than the dimension of the binary
// hypercube". Those implementations are not available, so this package
// provides:
//
//   - ECubeRoute: the classic dimension-ordered baseline (fault-free);
//   - AppendRouteAdaptive: an adaptive router in the style of Lan [6]
//     with spare-dimension masking and backtracking, which delivers
//     whenever the non-faulty subgraph connects source and destination
//     (always true when the number of faults is below the dimension,
//     because Q_n is n-connected). AppendRouteAdaptiveDims is its
//     dims-mask form: it routes inside the subcube spanned by a mask of
//     dimensions of a wider label space, so a Gaussian Cube slice
//     GEEC(k, t) routes on GC labels restricted to Dim(k), with no
//     coordinate translation;
//   - SafetyLevels and RouteSafety: Wu's safety-level scheme [5], with
//     the distributed n-round status-exchange computation, and
//     SafetyVectors and RouteSafetyVector, its safety-vector
//     refinement. AppendRouteSafetyDims and AppendRouteSafetyVectorDims
//     are their dims-mask forms: they compute the levels or vectors of
//     the subcube spanned by the mask into reused SafetyTables, indexed
//     by subcube coordinate, and route on the wide labels.
package hypercube

import (
	"fmt"

	"gaussiancube/internal/bitutil"
	"gaussiancube/internal/graph"
)

// Node is a hypercube vertex label; bit i is the coordinate in
// dimension i.
type Node = graph.NodeID

// Cube is the binary hypercube Q_dim on 2^dim vertices.
type Cube struct {
	dim uint
}

// shared holds the canonical Cube value for every admissible dimension.
// Cube is immutable, so New hands out one pointer per dimension instead
// of allocating; route computations that rebuild Q_dim per call (the
// GEEC slices of the Gaussian Cube) therefore cost nothing.
var shared = func() [31]Cube {
	var cs [31]Cube
	for i := range cs {
		cs[i] = Cube{dim: uint(i)}
	}
	return cs
}()

// New returns Q_dim. dim must be in [0, 30]. The returned cube is a
// shared immutable instance.
func New(dim uint) *Cube {
	if dim > 30 {
		panic(fmt.Sprintf("hypercube: dimension %d out of range [0,30]", dim))
	}
	return &shared[dim]
}

// Dim returns the dimension n of Q_n.
func (c *Cube) Dim() uint { return c.dim }

// Nodes implements graph.Topology.
func (c *Cube) Nodes() int { return 1 << c.dim }

// Neighbors implements graph.Topology; neighbor i differs in bit i.
func (c *Cube) Neighbors(v Node) []Node {
	out := make([]Node, c.dim)
	for i := uint(0); i < c.dim; i++ {
		out[i] = v ^ (1 << i)
	}
	return out
}

// Distance is the Hamming distance between u and v, the graph distance
// in Q_n.
func (c *Cube) Distance(u, v Node) int {
	return bitutil.Hamming(uint64(u), uint64(v))
}

// Faults reports the fault status of Q_n components as known to the
// router. Implementations must be symmetric: LinkFaulty(v, i) must equal
// LinkFaulty(v XOR 2^i, i). A faulty node is treated as making all its
// incident links unusable (the paper's simulation assumption 3), which
// routers enforce by also checking NodeFaulty on endpoints.
type Faults interface {
	NodeFaulty(v Node) bool
	LinkFaulty(v Node, dim uint) bool
}

// NoFaults is the fault-free oracle.
type NoFaults struct{}

// NodeFaulty always reports false.
func (NoFaults) NodeFaulty(Node) bool { return false }

// LinkFaulty always reports false.
func (NoFaults) LinkFaulty(Node, uint) bool { return false }

// FaultSet is an explicit, mutable fault oracle for Q_n.
type FaultSet struct {
	nodes map[Node]bool
	links map[linkKey]bool
}

type linkKey struct {
	low Node // endpoint with the dimension bit cleared
	dim uint
}

// NewFaultSet returns an empty fault set.
func NewFaultSet() *FaultSet {
	return &FaultSet{
		nodes: make(map[Node]bool),
		links: make(map[linkKey]bool),
	}
}

// AddNode marks node v faulty.
func (f *FaultSet) AddNode(v Node) { f.nodes[v] = true }

// AddLink marks the link between v and v XOR 2^dim faulty.
func (f *FaultSet) AddLink(v Node, dim uint) {
	f.links[normLink(v, dim)] = true
}

func normLink(v Node, dim uint) linkKey {
	return linkKey{low: v &^ (1 << dim), dim: dim}
}

// NodeFaulty implements Faults.
func (f *FaultSet) NodeFaulty(v Node) bool { return f.nodes[v] }

// LinkFaulty implements Faults. A link incident to a faulty node is
// considered faulty.
func (f *FaultSet) LinkFaulty(v Node, dim uint) bool {
	if f.links[normLink(v, dim)] {
		return true
	}
	return f.nodes[v] || f.nodes[v^(1<<dim)]
}

// NumFaults returns the number of faulty components (nodes plus links
// not incident to a recorded faulty node).
func (f *FaultSet) NumFaults() int { return len(f.nodes) + len(f.links) }

// usable reports whether the router may cross the dim-link out of cur:
// the link itself is healthy and the far endpoint is a healthy node.
func usable(f Faults, cur Node, dim uint) bool {
	if f.LinkFaulty(cur, dim) {
		return false
	}
	return !f.NodeFaulty(cur ^ (1 << dim))
}
