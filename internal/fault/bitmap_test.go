package fault

import (
	"math/rand"
	"slices"
	"testing"

	"gaussiancube/internal/gc"
)

// mapModel is the plain-map fault set the bitmap Set must agree with.
type mapModel struct {
	nodes map[gc.NodeID]bool
	links map[linkKey]bool
}

func (m mapModel) linkFaulty(v gc.NodeID, dim uint) bool {
	return m.links[normLink(v, dim)] || m.nodes[v] || m.nodes[v^(1<<dim)]
}

func (m mapModel) count() int {
	n := len(m.nodes)
	for k := range m.links {
		if !m.nodes[k.low] && !m.nodes[k.low^(1<<k.dim)] {
			n++
		}
	}
	return n
}

// fingerprint is the per-component mix Set.Fingerprint must keep, so
// that journals, golden bytes and cache tokens stay valid.
func (m mapModel) fingerprint() uint64 {
	var h uint64
	for v := range m.nodes {
		h ^= mix64(uint64(v)*2 + 1)
	}
	for k := range m.links {
		h ^= mix64(uint64(k.low)<<32 | uint64(k.dim)<<1)
	}
	return h
}

// TestSetMatchesMapModel drives a Set and a map model through the same
// random adds and removes of nodes and links. After every step the
// queries, Count and Fingerprint must agree; at the end the listings
// must too, a Clone taken midway must have stayed independent, equal
// contents added in another order must hash equal, and every mutator
// must panic once the set is frozen.
func TestSetMatchesMapModel(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	c := gc.New(9, 2)
	s := NewSet(c)
	m := mapModel{nodes: map[gc.NodeID]bool{}, links: map[linkKey]bool{}}
	var clone *Set
	var cloneFP uint64
	for step := 0; step < 2000; step++ {
		v := gc.NodeID(rng.Intn(c.Nodes()))
		dims := c.LinkDims(v)
		dim := dims[rng.Intn(len(dims))]
		switch rng.Intn(4) {
		case 0:
			s.AddNode(v)
			m.nodes[v] = true
		case 1:
			s.RemoveNode(v)
			delete(m.nodes, v)
		case 2:
			s.AddLink(v, dim)
			m.links[normLink(v, dim)] = true
		default:
			s.RemoveLink(v, dim)
			delete(m.links, normLink(v, dim))
		}
		if step == 1000 {
			clone, cloneFP = s.Clone(), s.Fingerprint()
		}
		if s.NodeFaulty(v) != m.nodes[v] || s.LinkFaulty(v, dim) != m.linkFaulty(v, dim) {
			t.Fatalf("step %d: node %d faulty %v (model %v), link dim %d faulty %v (model %v)",
				step, v, s.NodeFaulty(v), m.nodes[v], dim, s.LinkFaulty(v, dim), m.linkFaulty(v, dim))
		}
		if s.Count() != m.count() {
			t.Fatalf("step %d: Count %d, model %d", step, s.Count(), m.count())
		}
		if s.Fingerprint() != m.fingerprint() {
			t.Fatalf("step %d: Fingerprint %#x, model %#x", step, s.Fingerprint(), m.fingerprint())
		}
	}
	for v := 0; v < c.Nodes(); v++ {
		if s.NodeFaulty(gc.NodeID(v)) != m.nodes[gc.NodeID(v)] {
			t.Fatalf("node %d: faulty %v, model %v", v, s.NodeFaulty(gc.NodeID(v)), m.nodes[gc.NodeID(v)])
		}
	}
	if raw := s.RawFaults(); len(raw) != len(m.nodes)+len(m.links) {
		t.Fatalf("RawFaults lists %d faults, model has %d", len(raw), len(m.nodes)+len(m.links))
	}
	if len(s.Faults()) != m.count() {
		t.Fatalf("Faults lists %d faults, Count is %d", len(s.Faults()), m.count())
	}
	if clone.Fingerprint() != cloneFP {
		t.Fatal("mutating the original changed its Clone")
	}
	clone.AddNode(0)
	clone.AddLink(1, 0)
	if s.Fingerprint() != m.fingerprint() {
		t.Fatal("mutating a Clone changed the original")
	}
	// Equal contents built in a different order hash equal.
	re := NewSet(c)
	raw := s.RawFaults()
	for i := len(raw) - 1; i >= 0; i-- {
		if f := raw[i]; f.Kind == KindNode {
			re.AddNode(f.Node)
		} else {
			re.AddLink(f.Node, f.Dim)
		}
	}
	if re.Fingerprint() != s.Fingerprint() || re.Count() != s.Count() {
		t.Fatal("rebuilt set differs from the original")
	}
	// The frozen-set guard still fires for every mutator.
	s.Freeze()
	for name, mutate := range map[string]func(){
		"AddNode":    func() { s.AddNode(3) },
		"RemoveNode": func() { s.RemoveNode(3) },
		"AddLink":    func() { s.AddLink(0, 0) },
		"RemoveLink": func() { s.RemoveLink(0, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on a frozen set did not panic", name)
				}
			}()
			mutate()
		}()
	}
}

// TestFaultListingsSorted: Faults and RawFaults list node faults in
// ascending order, then link faults sorted by (node, dim), whatever the
// insertion order.
func TestFaultListingsSorted(t *testing.T) {
	c := gc.New(8, 2)
	s := NewSet(c)
	s.AddLink(4, 4)
	s.AddNode(200)
	s.AddLink(1, 0)
	s.AddNode(9)
	s.AddLink(0, 0) // subsumed by nothing: nodes 0 and 1 are healthy
	s.AddLink(8, 0) // subsumed by node 9
	want := []Fault{
		{Kind: KindNode, Node: 9},
		{Kind: KindNode, Node: 200},
		{Kind: KindLink, Node: 0, Dim: 0},
		{Kind: KindLink, Node: 4, Dim: 4},
	}
	if got := s.Faults(); !slices.Equal(got, want) {
		t.Fatalf("Faults = %v, want %v", got, want)
	}
	wantRaw := append(slices.Clone(want), Fault{Kind: KindLink, Node: 8, Dim: 0})
	if got := s.RawFaults(); !slices.Equal(got, wantRaw) {
		t.Fatalf("RawFaults = %v, want %v", got, wantRaw)
	}
}

// TestEmptySetAllocatesNoBitmap: an empty set — fault-free serving, the
// adaptive router's per-flight blacklists — costs only its header, and
// queries on it are bit tests against no words.
func TestEmptySetAllocatesNoBitmap(t *testing.T) {
	c := gc.New(14, 2)
	if allocs := testing.AllocsPerRun(100, func() { _ = NewSet(c) }); allocs > 1 {
		t.Fatalf("NewSet: %v allocs, want <= 1", allocs)
	}
	s := NewSet(c)
	if s.NodeFaulty(5) || s.LinkFaulty(5, 0) || s.Count() != 0 || s.Fingerprint() != 0 {
		t.Fatal("empty set reports a fault")
	}
	if s.nodes != nil || s.links != nil {
		t.Fatal("empty set allocated its storage")
	}
	s.AddNode(5)
	if len(s.nodes) != c.Nodes()/64 {
		t.Fatalf("bitmap has %d words, want %d", len(s.nodes), c.Nodes()/64)
	}
}
