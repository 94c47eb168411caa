// Package repair makes routing robust to B/C-category fault patterns
// that erode or sever Gaussian Tree edges.
//
// The Gaussian Cube's class-crossing links in dimensions below alpha
// project exactly onto the edges of the Gaussian Tree (Theorem 1 /
// Definition 1): a tree edge {u, v} in dimension c is physically
// realized by the 2^(n-alpha) links (h<<alpha|u, h<<alpha|v), one per
// high-bits frame h. The health map aggregates a fault state into a
// per-tree-edge status over those realizations:
//
//	Healthy  — every realization usable;
//	Degraded — some realizations dead, at least one alive: crossing is
//	           still possible, possibly only after a detour through
//	           other classes to reach a surviving frame;
//	Severed  — every realization dead. Because the quotient of the cube
//	           by ending classes is the tree, a severed edge is a
//	           proven cut: no path of any kind crosses it, and class
//	           pairs it separates are partitioned.
//
// The map is maintained incrementally from fault transitions (one
// counter bump per affected realization), not recomputed per packet,
// and exposes the two verdicts the routing layer needs: a surviving
// crossing to detour to, or a proof of partition.
package repair

import (
	"fmt"
	"sync"

	"gaussiancube/internal/bitutil"
	"gaussiancube/internal/fault"
	"gaussiancube/internal/gc"
	"gaussiancube/internal/gtree"
)

// EdgeState is the aggregate status of one tree edge's physical
// realizations.
type EdgeState int

// Edge states.
const (
	EdgeHealthy EdgeState = iota
	EdgeDegraded
	EdgeSevered
)

// String implements fmt.Stringer.
func (s EdgeState) String() string {
	switch s {
	case EdgeHealthy:
		return "healthy"
	case EdgeDegraded:
		return "degraded"
	case EdgeSevered:
		return "severed"
	default:
		return fmt.Sprintf("EdgeState(%d)", int(s))
	}
}

// Health is the tree-edge health map. It is safe for concurrent use:
// queries take a read lock, Apply/Rebuild the write lock. Routers hold
// one across many routes while a simulation loop feeds it fault
// transitions.
type Health struct {
	mu     sync.RWMutex
	cube   *gc.Cube
	tree   *gtree.Tree
	frames int   // physical realizations per tree edge: 2^(n-alpha)
	off    []int // off[c] = index of the first dimension-c edge

	// causes[e*frames+h] counts the independent reasons realization h
	// of edge e is unusable: an explicit link fault plus up to two
	// endpoint node faults. A realization is dead iff its count is
	// nonzero, so inject/repair events commute and never double-free.
	causes []uint8
	// dead[e] is the number of dead realizations of edge e.
	dead []int32

	forest *gtree.Forest
}

// NewHealth builds an all-healthy map for cube c.
func NewHealth(c *gc.Cube) *Health {
	tree := c.Tree()
	alpha := c.Alpha()
	off := make([]int, alpha+1)
	for d := uint(0); d < alpha; d++ {
		// 2^(alpha-1-d) dimension-d edges (EdgeCountDim restricted to
		// the tree).
		off[d+1] = off[d] + 1<<(alpha-1-d)
	}
	edges := off[alpha] // 2^alpha - 1
	h := &Health{
		cube:   c,
		tree:   tree,
		frames: 1 << (c.N() - alpha),
		off:    off,
		causes: make([]uint8, edges*(1<<(c.N()-alpha))),
		dead:   make([]int32, edges),
		forest: gtree.NewForest(tree),
	}
	return h
}

// Cube returns the cube the map is defined over.
func (h *Health) Cube() *gc.Cube { return h.cube }

// TotalLinks returns the number of physical realizations per tree
// edge: 2^(n-alpha).
func (h *Health) TotalLinks() int { return h.frames }

// edgeIndex maps the dimension-c tree edge at (normalized) vertex low
// to its slot: dimension-c edges sit at vertices c + j*2^(c+1).
func (h *Health) edgeIndex(low gtree.Node, c uint) int {
	return h.off[c] + int(low)>>(c+1)
}

// edgeIndexOf returns the slot of the tree edge {u, v}, panicking when
// {u, v} is not a tree edge.
func (h *Health) edgeIndexOf(u, v gtree.Node) int {
	e := h.tree.NormalizeEdge(u, v)
	return h.edgeIndex(e.V, e.Dim)
}

// Apply folds one fault transition into the map: op == fault.OpInject
// when the component became faulty, fault.OpRepair when it healed.
// Callers must deliver each state-changing transition exactly once
// (fault.Dynamic.SubscribeBatch does); see AttachDynamic.
func (h *Health) Apply(f fault.Fault, op fault.EventOp) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.apply(f, op)
}

// apply is Apply with h.mu already held.
func (h *Health) apply(f fault.Fault, op fault.EventOp) {
	delta := +1
	if op == fault.OpRepair {
		delta = -1
	}
	alpha := h.cube.Alpha()
	if f.Kind == fault.KindLink {
		if f.Dim < alpha {
			h.bump(f.Node, f.Dim, delta)
		}
		return
	}
	for _, c := range h.cube.LinkDims(f.Node) {
		if c >= alpha {
			break // LinkDims is ascending
		}
		h.bump(f.Node, c, delta)
	}
}

// bump adjusts the cause count of the realization of the dimension-c
// tree edge at GC node p, updating the edge's dead count and the
// component forest on 0<->1 transitions. Caller holds h.mu.
func (h *Health) bump(p gc.NodeID, c uint, delta int) {
	alpha := h.cube.Alpha()
	k := gtree.Node(bitutil.Low(uint64(p), alpha)) // ending class of p
	low := k &^ (1 << c)
	e := h.edgeIndex(low, c)
	i := e*h.frames + int(p)>>alpha
	old := h.causes[i]
	next := int(old) + delta
	if next < 0 {
		panic("repair: health cause count underflow (transition applied twice?)")
	}
	h.causes[i] = uint8(next)
	switch {
	case old == 0 && next > 0:
		h.dead[e]++
		if int(h.dead[e]) == h.frames {
			h.forest.Sever(low, low^1<<c)
		}
	case old > 0 && next == 0:
		if int(h.dead[e]) == h.frames {
			h.forest.Restore(low, low^1<<c)
		}
		h.dead[e]--
	}
}

// Rebuild recomputes the map from a static fault set (RawFaults, so
// link faults subsumed by node faults still contribute their own
// cause). A nil set resets the map to all-healthy.
func (h *Health) Rebuild(s *fault.Set) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for i := range h.causes {
		h.causes[i] = 0
	}
	for e := range h.dead {
		h.dead[e] = 0
	}
	h.forest = gtree.NewForest(h.tree)
	if s == nil {
		return
	}
	for _, f := range s.RawFaults() {
		h.apply(f, fault.OpInject)
	}
}

// AttachDynamic initializes the map from d's current state and
// subscribes to its fault transitions so the map stays current as d
// advances. Attach before handing d to concurrent advancers: the
// snapshot and the subscription are not atomic together.
func (h *Health) AttachDynamic(d *fault.Dynamic) {
	d.SubscribeBatch(func(_, _ uint64, events []fault.Event) {
		for _, e := range events {
			h.Apply(e.Fault, e.Op)
		}
	})
	h.Rebuild(d.Snapshot())
}

// EdgeState returns the aggregate status of the tree edge {u, v}.
func (h *Health) EdgeState(u, v gtree.Node) EdgeState {
	h.mu.RLock()
	defer h.mu.RUnlock()
	switch d := int(h.dead[h.edgeIndexOf(u, v)]); {
	case d == 0:
		return EdgeHealthy
	case d == h.frames:
		return EdgeSevered
	default:
		return EdgeDegraded
	}
}

// DeadLinks returns how many physical realizations of the tree edge
// {u, v} are currently unusable.
func (h *Health) DeadLinks(u, v gtree.Node) int {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return int(h.dead[h.edgeIndexOf(u, v)])
}

// SeveredEdges returns the currently severed tree edges.
func (h *Health) SeveredEdges() []gtree.Edge {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return h.forest.SeveredEdges()
}

// Counts tallies the tree edges per state.
func (h *Health) Counts() (healthy, degraded, severed int) {
	h.mu.RLock()
	defer h.mu.RUnlock()
	for _, d := range h.dead {
		switch {
		case d == 0:
			healthy++
		case int(d) == h.frames:
			severed++
		default:
			degraded++
		}
	}
	return healthy, degraded, severed
}

// SameComponent reports whether classes u and v are connected around
// the severed edges.
func (h *Health) SameComponent(u, v gtree.Node) bool {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return h.forest.SameComponent(u, v)
}

// ComponentRoot returns the re-rooted root of k's class component: the
// surviving vertex closest to the tree root 0.
func (h *Health) ComponentRoot(k gtree.Node) gtree.Node {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return h.forest.ComponentRoot(k)
}

// CheckWalk verifies that a route from s to d whose plan must visit
// the given classes is not provably partitioned: the destination's
// class and every class owning a pending high dimension must share the
// source class's component (a dimension-i link exists only in class
// i mod 2^alpha, so an unreachable owning class is as much a proof of
// unreachability as an unreachable destination class). It returns the
// first blocking class and ok == false on a proven partition.
func (h *Health) CheckWalk(s, d gc.NodeID, classes []gtree.Node) (blocked gtree.Node, ok bool) {
	h.mu.RLock()
	defer h.mu.RUnlock()
	sc := h.cube.EndingClass(s)
	if dc := h.cube.EndingClass(d); !h.forest.SameComponent(sc, dc) {
		return dc, false
	}
	for _, k := range classes {
		if !h.forest.SameComponent(sc, k) {
			return k, false
		}
	}
	return 0, true
}

// SurvivingCrossings returns up to max GC nodes of cur's ending class
// that still have a usable class-crossing link toward the neighboring
// class `to`, ordered by detour cost (Hamming distance of the high
// bits from cur, i.e. the number of high-dimension corrections a
// detour must make to reach them). cur's own frame is excluded — the
// caller asks only after observing that crossing there failed. An
// empty result means the edge is severed (or max <= 0).
func (h *Health) SurvivingCrossings(cur gc.NodeID, to gtree.Node, max int) []gc.NodeID {
	return h.SurvivingCrossingsPrefer(cur, to, max, nil)
}

// SurvivingCrossingsPrefer is SurvivingCrossings with a stripe bias:
// frames satisfying prefer order ahead of frames that do not, each
// group still nearest-first. Multipath routing passes its tree's
// stripe membership as prefer, so a repair detour crosses inside the
// selected tree whenever any of its realizations survive and only
// then fails over to sibling trees' frames — the middle rungs of the
// failover ladder. A nil prefer is the unbiased ordering.
func (h *Health) SurvivingCrossingsPrefer(cur gc.NodeID, to gtree.Node, max int, prefer func(frame uint32) bool) []gc.NodeID {
	h.mu.RLock()
	defer h.mu.RUnlock()
	alpha := h.cube.Alpha()
	from := h.cube.EndingClass(cur)
	c := h.tree.EdgeDim(from, to)
	low := from &^ (1 << c)
	e := h.edgeIndex(low, c)
	if int(h.dead[e]) == h.frames || max <= 0 {
		return nil
	}
	curFrame := int(cur) >> alpha
	type cand struct {
		frame int
		cost  int
	}
	best := make([]cand, 0, max)
	for f := 0; f < h.frames; f++ {
		if f == curFrame || h.causes[e*h.frames+f] != 0 {
			continue
		}
		cost := bitutil.OnesCount(uint64(f ^ curFrame))
		if prefer != nil && !prefer(uint32(f)) {
			// Dispreferred frames sort after every preferred one: the
			// penalty exceeds any Hamming distance between frames.
			cost += h.frames
		}
		// Insertion sort into the bounded best list.
		pos := len(best)
		for pos > 0 && best[pos-1].cost > cost {
			pos--
		}
		if pos == max {
			continue
		}
		if len(best) < max {
			best = append(best, cand{})
		}
		copy(best[pos+1:], best[pos:])
		best[pos] = cand{frame: f, cost: cost}
	}
	out := make([]gc.NodeID, len(best))
	for i, b := range best {
		out[i] = gc.NodeID(b.frame)<<alpha | gc.NodeID(from)
	}
	return out
}
