package fault

import (
	"gaussiancube/internal/gc"
	"gaussiancube/internal/hypercube"
)

// Fault-status exchange (the paper's characteristic 4): "each node
// requires at most ceil(n/2^alpha)+1 rounds of fault status exchange
// with its neighbors", and (characteristic 5) "each node maintains and
// updates at most F n-bit node addresses, where F is the number of
// faults related to nodes whose least significant bits are the same as
// the current node".
//
// The scope of that knowledge is the node's GEEC slice: the Theorem 3
// router works inside one slice, whose diameter is |Dim(k)| <=
// ceil(n/2^alpha). ExchangeFaultStatus simulates the distributed
// protocol — every node starts knowing only the faults incident to
// itself and floods over healthy slice links, one synchronous round at
// a time — and reports how many rounds the network needed and whether
// knowledge became complete (it always does when each slice's healthy
// part is connected, in particular under the Theorem 3 bound).

// ExchangeReport summarizes one protocol run.
type ExchangeReport struct {
	// Rounds is the maximum number of synchronous exchange rounds any
	// slice needed to reach its fixpoint (including the final
	// verification round that changes nothing).
	Rounds int
	// Complete reports that every healthy node ended up knowing every
	// fault of its slice.
	Complete bool
	// MaxKnowledge is the largest number of fault records any single
	// node stores — characteristic 5's F bound.
	MaxKnowledge int
}

// ExchangeFaultStatus runs the per-slice fault dissemination protocol
// over the whole cube.
func (s *Set) ExchangeFaultStatus() ExchangeReport {
	c := s.cube
	report := ExchangeReport{Complete: true}
	for k := gc.NodeID(0); k < gc.NodeID(c.M()); k++ {
		for t := uint64(0); t < uint64(c.FrameCount(k)); t++ {
			r := s.exchangeInSlice(c.GEEC(k, t))
			if r.Rounds > report.Rounds {
				report.Rounds = r.Rounds
			}
			if r.MaxKnowledge > report.MaxKnowledge {
				report.MaxKnowledge = r.MaxKnowledge
			}
			report.Complete = report.Complete && r.Complete
		}
	}
	return report
}

// RoundBound is the paper's characteristic-4 bound on exchange rounds:
// ceil(n/2^alpha) + 1.
func RoundBound(n, alpha uint) int {
	m := uint(1) << alpha
	return int((n+m-1)/m) + 1
}

// sliceFaultKey identifies one fault record inside a slice, in subcube
// coordinates.
type sliceFaultKey struct {
	node hypercube.Node
	dim  int8 // -1 for a node fault, else the subcube link dimension
}

func (s *Set) exchangeInSlice(g *gc.GEEC) ExchangeReport {
	dim := g.Dim()
	size := 1 << dim
	// Subcube coordinate x is GC node members[x], and subcube dimension
	// d is GC dimension dims[d] (Theorem 3).
	members, dims := g.Members(), g.Dims()

	// The ground truth every healthy node should learn.
	truth := make(map[sliceFaultKey]bool)
	for x := 0; x < size; x++ {
		xv := hypercube.Node(x)
		if s.NodeFaulty(members[xv]) {
			truth[sliceFaultKey{node: xv, dim: -1}] = true
			continue
		}
		for d := uint(0); d < dim; d++ {
			y := xv ^ (1 << d)
			if xv < y && !s.NodeFaulty(members[y]) && s.LinkFaulty(members[xv], dims[d]) {
				truth[sliceFaultKey{node: xv, dim: int8(d)}] = true
			}
		}
	}

	// Initial knowledge: faults a node observes directly on its own
	// links (a dead link to a faulty neighbor reveals the node fault;
	// between two healthy nodes it reveals the link fault).
	know := make([]map[sliceFaultKey]bool, size)
	for x := 0; x < size; x++ {
		know[x] = make(map[sliceFaultKey]bool)
		xv := hypercube.Node(x)
		if s.NodeFaulty(members[xv]) {
			continue
		}
		for d := uint(0); d < dim; d++ {
			y := xv ^ (1 << d)
			switch {
			case s.NodeFaulty(members[y]):
				know[x][sliceFaultKey{node: y, dim: -1}] = true
			case s.LinkFaulty(members[xv], dims[d]):
				low := xv
				if y < low {
					low = y
				}
				know[x][sliceFaultKey{node: low, dim: int8(d)}] = true
			}
		}
	}

	// Synchronous flooding over healthy links until a round changes
	// nothing.
	rounds := 0
	for {
		rounds++
		changed := false
		next := make([]map[sliceFaultKey]bool, size)
		for x := 0; x < size; x++ {
			merged := make(map[sliceFaultKey]bool, len(know[x]))
			for f := range know[x] {
				merged[f] = true
			}
			xv := hypercube.Node(x)
			if !s.NodeFaulty(members[xv]) {
				for d := uint(0); d < dim; d++ {
					y := xv ^ (1 << d)
					if s.LinkFaulty(members[xv], dims[d]) || s.NodeFaulty(members[y]) {
						continue
					}
					for f := range know[y] {
						if !merged[f] {
							merged[f] = true
							changed = true
						}
					}
				}
			}
			next[x] = merged
		}
		know = next
		if !changed {
			break
		}
	}

	report := ExchangeReport{Rounds: rounds, Complete: true}
	for x := 0; x < size; x++ {
		if s.NodeFaulty(members[x]) {
			continue
		}
		if len(know[x]) > report.MaxKnowledge {
			report.MaxKnowledge = len(know[x])
		}
		for f := range truth {
			if !know[x][f] {
				report.Complete = false
			}
		}
	}
	return report
}
