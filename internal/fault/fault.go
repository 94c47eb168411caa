// Package fault implements the paper's fault model for the Gaussian
// Cube: explicit fault sets, the A/B/C categorization of Definitions
// 3–5, the Theorem 3 and Theorem 5 precondition checkers, and the
// worst-case tolerable-fault bound T(GC) plotted in Figure 4.
//
// The categorization is the paper's central methodological idea: the
// Gaussian Cube's network node availability is too low for classical
// fault-tolerant routing analysis, but splitting faults by which side of
// dimension alpha they break lets the strategy tolerate far more faults
// than the availability suggests:
//
//	A-category: a link fault in a dimension >= alpha — handled inside
//	            the GEEC hypercubes (Theorem 3);
//	B-category: a fault whose broken links all lie below alpha — a link
//	            fault below alpha, or a node fault at a node without
//	            high-dimension links — handled by FREH on the tree-edge
//	            exchanged cubes (Theorem 5);
//	C-category: a node fault breaking links on both sides of alpha.
package fault

import (
	"fmt"
	"math/bits"
	"math/rand"
	"sort"
	"sync/atomic"

	"gaussiancube/internal/gc"
	"gaussiancube/internal/gtree"
)

// Category classifies a faulty component per Definitions 3–5.
type Category int

// Fault categories.
const (
	CategoryA Category = iota // link fault in a dimension >= alpha
	CategoryB                 // all broken links below alpha
	CategoryC                 // node fault breaking links on both sides
)

// String implements fmt.Stringer.
func (c Category) String() string {
	switch c {
	case CategoryA:
		return "A"
	case CategoryB:
		return "B"
	case CategoryC:
		return "C"
	default:
		return fmt.Sprintf("Category(%d)", int(c))
	}
}

// Kind distinguishes node faults from link faults.
type Kind int

// Fault kinds.
const (
	KindNode Kind = iota
	KindLink
)

// Fault is one faulty component.
type Fault struct {
	Kind Kind
	Node gc.NodeID // the node, or the link endpoint with bit Dim clear
	Dim  uint      // link dimension (KindLink only)
}

// Set is a mutable fault set over a Gaussian Cube. It implements the
// symmetric oracle semantics of the paper's simulation assumption 3: a
// faulty node makes all of its incident links faulty.
//
// Read-only-after-handoff contract: a Set handed to a Router (or any
// other concurrent reader) must not be mutated for the lifetime of that
// handoff — the query methods read the underlying bitmap and map
// without locking.
// Call Freeze after the last mutation to have the Set enforce the
// contract itself. The frozen flag is atomic, so Freeze, Frozen and the
// panic guard inside every mutator are themselves safe to call while
// readers are routing — the enforcement mechanism cannot introduce the
// very race it polices.
//
// Evolving fault state under concurrent readers takes one of two
// shapes: Dynamic (a locked timeline that snapshots frozen copies), or
// the copy-on-write step MutateCopy, which is how a serving layer
// applies live fault mutations — readers keep the frozen set they
// hold; the mutation produces a new frozen set to swap in (see
// internal/serve).
type Set struct {
	cube *gc.Cube
	// nodes is a dense bitmap of the node faults, one bit per node of the
	// cube, allocated by the first AddNode so that an empty set costs no
	// more than its header; nnodes counts its set bits.
	nodes  []uint64
	nnodes int
	// links holds the marked link faults, allocated by the first AddLink.
	links map[linkKey]bool
	// frozen is 0 or 1, accessed atomically (see the contract above).
	frozen uint32
}

type linkKey struct {
	low gc.NodeID
	dim uint
}

// NewSet creates an empty fault set for cube c.
func NewSet(c *gc.Cube) *Set { return &Set{cube: c} }

// Cube returns the cube this set is defined over.
func (s *Set) Cube() *gc.Cube { return s.cube }

// Freeze marks the set read-only and returns it. Any later mutation
// panics, which turns a latent data race (mutating a Set shared with
// concurrent routers) into a deterministic failure at the mutation
// site. Freezing is idempotent and cannot be undone; Clone returns a
// thawed copy. Freeze may race with readers safely: the flag is
// atomic, and the fault contents are not touched.
func (s *Set) Freeze() *Set {
	atomic.StoreUint32(&s.frozen, 1)
	return s
}

// Frozen reports whether Freeze has been called. Safe to call
// concurrently with Freeze and with readers.
func (s *Set) Frozen() bool { return atomic.LoadUint32(&s.frozen) != 0 }

// MutateCopy is the copy-on-write mutation step for a Set shared with
// concurrent readers: it clones s (thawed), applies fn to the clone,
// freezes it and returns it. The receiver is never touched, so readers
// holding s — routers mid-route, caches keyed by s.Fingerprint() —
// observe either the old state or the new frozen state, never a
// half-mutated one. The caller owns publication (typically an
// atomic.Pointer swap plus a cache invalidation to the new
// Fingerprint).
func (s *Set) MutateCopy(fn func(*Set)) *Set {
	c := s.Clone()
	fn(c)
	return c.Freeze()
}

func (s *Set) mutable(op string) {
	if s.Frozen() {
		panic("fault: " + op + " on a frozen Set (read-only after handoff)")
	}
}

// AddNode marks node v faulty. It panics if v is not a node of the
// cube.
func (s *Set) AddNode(v gc.NodeID) {
	s.mutable("AddNode")
	if int(v) >= s.cube.Nodes() {
		panic(fmt.Sprintf("fault: node %d out of range for a %d-node cube", v, s.cube.Nodes()))
	}
	if s.nodes == nil {
		s.nodes = make([]uint64, (s.cube.Nodes()+63)/64)
	}
	w, bit := &s.nodes[v>>6], uint64(1)<<(v&63)
	if *w&bit == 0 {
		*w |= bit
		s.nnodes++
	}
}

// AddLink marks the link at v in dimension dim faulty. It panics if the
// cube has no link there.
func (s *Set) AddLink(v gc.NodeID, dim uint) {
	s.mutable("AddLink")
	if !s.cube.HasLinkDim(v, dim) {
		panic(fmt.Sprintf("fault: GC node %d has no link in dimension %d", v, dim))
	}
	if s.links == nil {
		s.links = make(map[linkKey]bool)
	}
	s.links[normLink(v, dim)] = true
}

// RemoveNode clears a node fault (no-op when v is healthy). Links of v
// marked faulty independently stay faulty.
func (s *Set) RemoveNode(v gc.NodeID) {
	s.mutable("RemoveNode")
	if s.NodeFaulty(v) {
		s.nodes[v>>6] &^= 1 << (v & 63)
		s.nnodes--
	}
}

// RemoveLink clears a link fault (no-op when the link is healthy). The
// link stays unusable while either endpoint is a faulty node.
func (s *Set) RemoveLink(v gc.NodeID, dim uint) {
	s.mutable("RemoveLink")
	delete(s.links, normLink(v, dim))
}

func normLink(v gc.NodeID, dim uint) linkKey {
	return linkKey{low: v &^ (1 << dim), dim: dim}
}

// NodeFaulty reports whether node v is faulty.
func (s *Set) NodeFaulty(v gc.NodeID) bool {
	w := int(v >> 6)
	return w < len(s.nodes) && s.nodes[w]>>(v&63)&1 != 0
}

// LinkFaulty reports whether the link at v in dimension dim is unusable:
// incident to a faulty node, or marked faulty.
func (s *Set) LinkFaulty(v gc.NodeID, dim uint) bool {
	if s.NodeFaulty(v) || s.NodeFaulty(v^(1<<dim)) {
		return true
	}
	return s.linkMarked(v, dim)
}

// linkMarked reports whether the link at v in dimension dim is marked
// faulty itself, whatever the state of its endpoints.
func (s *Set) linkMarked(v gc.NodeID, dim uint) bool {
	return len(s.links) != 0 && s.links[normLink(v, dim)]
}

// linkSubsumed reports whether a marked link fault is covered by a
// node fault at one of its endpoints.
func (s *Set) linkSubsumed(k linkKey) bool {
	return s.NodeFaulty(k.low) || s.NodeFaulty(k.low^(1<<k.dim))
}

// Count returns the number of faulty components: faulty nodes plus
// faulty links not incident to a faulty node.
func (s *Set) Count() int {
	n := s.nnodes
	for k := range s.links {
		if !s.linkSubsumed(k) {
			n++
		}
	}
	return n
}

// appendNodes appends the node faults onto out in ascending order.
func (s *Set) appendNodes(out []Fault) []Fault {
	for i, w := range s.nodes {
		for ; w != 0; w &= w - 1 {
			v := gc.NodeID(i<<6 | bits.TrailingZeros64(w))
			out = append(out, Fault{Kind: KindNode, Node: v})
		}
	}
	return out
}

// appendLinks appends the marked link faults onto out sorted by (node,
// dim), skipping those subsumed by a node fault unless raw is set.
func (s *Set) appendLinks(out []Fault, raw bool) []Fault {
	start := len(out)
	for k := range s.links {
		if raw || !s.linkSubsumed(k) {
			out = append(out, Fault{Kind: KindLink, Node: k.low, Dim: k.dim})
		}
	}
	links := out[start:]
	sort.Slice(links, func(i, j int) bool {
		if links[i].Node != links[j].Node {
			return links[i].Node < links[j].Node
		}
		return links[i].Dim < links[j].Dim
	})
	return out
}

// Faults enumerates the faulty components (links incident to faulty
// nodes are subsumed by the node fault): node faults in ascending
// order, then link faults sorted by (node, dim).
func (s *Set) Faults() []Fault {
	return s.appendLinks(s.appendNodes(make([]Fault, 0, s.Count())), false)
}

// Clone returns an independent copy of the set.
func (s *Set) Clone() *Set {
	c := &Set{cube: s.cube, nnodes: s.nnodes}
	if s.nodes != nil {
		c.nodes = append([]uint64(nil), s.nodes...)
	}
	if len(s.links) != 0 {
		c.links = make(map[linkKey]bool, len(s.links))
		for k := range s.links {
			c.links[k] = true
		}
	}
	return c
}

// Fingerprint returns an order-independent 64-bit content hash of the
// set. Two sets over the same cube with the same faulty components
// collide deliberately; distinct fault states collide with only the
// usual 2^-64 probability. Route caches use it as an identity token to
// detect that the fault configuration behind their entries changed
// (see simnet.RouteCache.InvalidateTo).
func (s *Set) Fingerprint() uint64 {
	// XOR of per-component mixes is commutative, so iteration order
	// does not matter.
	var h uint64
	for i, w := range s.nodes {
		for ; w != 0; w &= w - 1 {
			h ^= mix64(uint64(i<<6|bits.TrailingZeros64(w))*2 + 1)
		}
	}
	for k := range s.links {
		h ^= mix64(uint64(k.low)<<32 | uint64(k.dim)<<1)
	}
	return h
}

// mix64 is the SplitMix64 finalizer, a strong 64-bit bit mixer.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Categorize classifies one fault per Definitions 3–5. A link fault is
// A-category in a dimension >= alpha and B-category below. A node fault
// is B-category when the node has no link in any dimension >= alpha
// (all its broken links lie below alpha) and C-category otherwise.
func (s *Set) Categorize(f Fault) Category {
	alpha := s.cube.Alpha()
	if f.Kind == KindLink {
		if f.Dim >= alpha {
			return CategoryA
		}
		return CategoryB
	}
	for _, d := range s.cube.LinkDims(f.Node) {
		if d >= alpha {
			return CategoryC
		}
	}
	return CategoryB
}

// CategoryCounts tallies the faults of the set per category.
func (s *Set) CategoryCounts() map[Category]int {
	out := make(map[Category]int, 3)
	for _, f := range s.Faults() {
		out[s.Categorize(f)]++
	}
	return out
}

// InjectRandomNodes adds count distinct random faulty nodes, never
// touching the protected nodes. It panics if the cube is too small.
func (s *Set) InjectRandomNodes(rng *rand.Rand, count int, protect ...gc.NodeID) {
	prot := make(map[gc.NodeID]bool, len(protect))
	for _, p := range protect {
		prot[p] = true
	}
	if count > s.cube.Nodes()-len(prot) {
		panic("fault: more faulty nodes requested than available")
	}
	for added := 0; added < count; {
		v := gc.NodeID(rng.Intn(s.cube.Nodes()))
		if prot[v] || s.NodeFaulty(v) {
			continue
		}
		s.AddNode(v)
		added++
	}
}

// InjectRandomLinks adds count distinct random faulty links between
// currently non-faulty nodes. It panics when count exceeds the healthy
// links remaining (the guard that keeps the rejection loop from
// spinning forever, mirroring InjectRandomNodes).
func (s *Set) InjectRandomLinks(rng *rand.Rand, count int) {
	if avail := s.healthyLinks(0); count > avail {
		panic(fmt.Sprintf("fault: %d faulty links requested but only %d healthy links remain", count, avail))
	}
	for added := 0; added < count; {
		v := gc.NodeID(rng.Intn(s.cube.Nodes()))
		dims := s.cube.LinkDims(v)
		d := dims[rng.Intn(len(dims))]
		if s.LinkFaulty(v, d) {
			continue
		}
		s.AddLink(v, d)
		added++
	}
}

// healthyLinks counts the usable links of the cube in dimensions
// [minDim, n): not marked faulty and not incident to a faulty node.
func (s *Set) healthyLinks(minDim uint) int {
	avail := 0
	for v := 0; v < s.cube.Nodes(); v++ {
		p := gc.NodeID(v)
		if s.NodeFaulty(p) {
			continue
		}
		for _, d := range s.cube.LinkDims(p) {
			if d < minDim || p > p^(1<<d) { // count each link at its lower endpoint
				continue
			}
			if !s.LinkFaulty(p, d) {
				avail++
			}
		}
	}
	return avail
}

// InjectRandomLinksBelowAlpha adds count distinct random faulty links
// in dimensions below alpha — pure B-category link faults, the kind
// that erodes the physical realizations of Gaussian Tree edges. It
// panics when count exceeds the healthy below-alpha links remaining.
func (s *Set) InjectRandomLinksBelowAlpha(rng *rand.Rand, count int) {
	alpha := s.cube.Alpha()
	if alpha == 0 {
		if count > 0 {
			panic("fault: GC(n, 1) has no links below alpha")
		}
		return
	}
	// Enumerate the healthy candidates: the dimension-c links sit at
	// nodes whose low c+1 bits equal c (Theorem 1 with bit c clear), so
	// the candidate space is small and exact sampling is cheap.
	type cand struct {
		node gc.NodeID
		dim  uint
	}
	var cands []cand
	for c := uint(0); c < alpha; c++ {
		for v := gc.NodeID(c); int(v) < s.cube.Nodes(); v += 1 << (c + 1) {
			if !s.LinkFaulty(v, c) {
				cands = append(cands, cand{node: v, dim: c})
			}
		}
	}
	if count > len(cands) {
		panic(fmt.Sprintf("fault: %d below-alpha link faults requested but only %d healthy links remain", count, len(cands)))
	}
	for added := 0; added < count; added++ {
		// Partial Fisher-Yates: draw without replacement.
		i := added + rng.Intn(len(cands)-added)
		cands[added], cands[i] = cands[i], cands[added]
		s.AddLink(cands[added].node, cands[added].dim)
	}
}

// HealthyTreeLinks counts the usable links in dimensions below alpha —
// the surviving physical realizations of Gaussian Tree edges, and the
// candidate pool of InjectRandomLinksBelowAlpha.
func (s *Set) HealthyTreeLinks() int {
	avail := 0
	for c := uint(0); c < s.cube.Alpha(); c++ {
		for v := gc.NodeID(c); int(v) < s.cube.Nodes(); v += 1 << (c + 1) {
			if !s.LinkFaulty(v, c) {
				avail++
			}
		}
	}
	return avail
}

// InjectSeveringFaults marks every physical link realizing the
// Gaussian Tree edge {u, v} faulty — one link per high-bits frame,
// 2^(n-alpha) in total — while leaving all nodes alive. This is the
// exact B-category pattern that severs the tree edge: after it, no
// class-crossing link between EC(u) and EC(v) survives, so the two
// sides of the edge are provably partitioned. It panics if {u, v} is
// not a tree edge.
func (s *Set) InjectSeveringFaults(u, v gtree.Node) {
	c := s.cube.Tree().EdgeDim(u, v)
	alpha := s.cube.Alpha()
	for h := 0; h < 1<<(s.cube.N()-alpha); h++ {
		s.AddLink(gc.NodeID(h)<<alpha|gc.NodeID(u), c)
	}
}

// RawFaults enumerates every faulty component as marked, including link
// faults subsumed by a node fault at an endpoint (which Faults omits).
// Health maps rebuild from this view so that a later node repair does
// not resurrect a link that was independently marked faulty. The order
// is that of Faults.
func (s *Set) RawFaults() []Fault {
	return s.appendLinks(s.appendNodes(make([]Fault, 0, s.nnodes+len(s.links))), true)
}
