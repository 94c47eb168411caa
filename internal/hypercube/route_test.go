package hypercube

import (
	"math/rand"
	"testing"

	"gaussiancube/internal/graph"
)

func TestECubeRoute(t *testing.T) {
	c := New(4)
	p := ECubeRoute(c, 0b0000, 0b1011)
	want := []Node{0b0000, 0b0001, 0b0011, 0b1011}
	if len(p) != len(want) {
		t.Fatalf("path = %v", p)
	}
	for i := range want {
		if p[i] != want[i] {
			t.Fatalf("path = %v, want %v", p, want)
		}
	}
	if err := ValidatePath(c, NoFaults{}, p, 0b0000, 0b1011); err != nil {
		t.Error(err)
	}
	self := ECubeRoute(c, 5, 5)
	if len(self) != 1 || self[0] != 5 {
		t.Errorf("self route = %v", self)
	}
}

func TestECubeIsMinimalEverywhere(t *testing.T) {
	c := New(5)
	for s := Node(0); s < 32; s++ {
		for d := Node(0); d < 32; d++ {
			p := ECubeRoute(c, s, d)
			if len(p)-1 != c.Distance(s, d) {
				t.Fatalf("ecube %d->%d: %d hops, want %d", s, d, len(p)-1, c.Distance(s, d))
			}
			if err := ValidatePath(c, NoFaults{}, p, s, d); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestValidatePathRejects(t *testing.T) {
	c := New(3)
	if err := ValidatePath(c, NoFaults{}, nil, 0, 1); err == nil {
		t.Error("empty path must fail")
	}
	if err := ValidatePath(c, NoFaults{}, []Node{0, 3}, 0, 3); err == nil {
		t.Error("non-edge hop must fail")
	}
	if err := ValidatePath(c, NoFaults{}, []Node{0, 1}, 0, 2); err == nil {
		t.Error("wrong endpoint must fail")
	}
	f := NewFaultSet()
	f.AddNode(1)
	if err := ValidatePath(c, f, []Node{0, 1, 3}, 0, 3); err == nil {
		t.Error("faulty node visit must fail")
	}
	f2 := NewFaultSet()
	f2.AddLink(0, 0)
	if err := ValidatePath(c, f2, []Node{0, 1}, 0, 1); err == nil {
		t.Error("faulty link crossing must fail")
	}
	if err := ValidatePath(c, NoFaults{}, []Node{0, 9}, 0, 9); err == nil {
		t.Error("out-of-range vertex must fail")
	}
}

func TestRouteAdaptiveFaultFreeIsMinimal(t *testing.T) {
	c := New(5)
	for s := Node(0); s < 32; s++ {
		for d := Node(0); d < 32; d++ {
			walk, spares, err := routeAdaptive(c, NoFaults{}, s, d)
			if err != nil {
				t.Fatal(err)
			}
			if spares != 0 {
				t.Fatalf("fault-free route used %d spares", spares)
			}
			if len(walk)-1 != c.Distance(s, d) {
				t.Fatalf("%d->%d: %d hops, want %d", s, d, len(walk)-1, c.Distance(s, d))
			}
		}
	}
}

func TestRouteAdaptiveFaultyEndpoint(t *testing.T) {
	c := New(3)
	f := NewFaultSet()
	f.AddNode(2)
	if _, _, err := routeAdaptive(c, f, 2, 5); err != ErrFaultyEndpoint {
		t.Errorf("faulty source: err = %v", err)
	}
	if _, _, err := routeAdaptive(c, f, 5, 2); err != ErrFaultyEndpoint {
		t.Errorf("faulty destination: err = %v", err)
	}
}

// randomFaults inserts exactly k faults (mixing nodes and links) into
// Q_dim avoiding the protected nodes.
func randomFaults(rng *rand.Rand, dim uint, k int, protect ...Node) *FaultSet {
	f := NewFaultSet()
	prot := make(map[Node]bool)
	for _, p := range protect {
		prot[p] = true
	}
	for f.NumFaults() < k {
		if rng.Intn(2) == 0 {
			v := Node(rng.Intn(1 << dim))
			if !prot[v] && !f.nodes[v] {
				f.AddNode(v)
			}
		} else {
			v := Node(rng.Intn(1 << dim))
			d := uint(rng.Intn(int(dim)))
			key := normLink(v, d)
			if !f.links[key] && !f.nodes[key.low] && !f.nodes[key.low^(1<<d)] {
				f.AddLink(v, d)
			}
		}
	}
	return f
}

// TestRouteAdaptiveDeliversUnderTheorem3Precondition is the Theorem 3
// substrate guarantee: with fewer faults than the dimension, every
// non-faulty pair is delivered over non-faulty components.
func TestRouteAdaptiveDeliversUnderTheorem3Precondition(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 300; trial++ {
		dim := uint(3 + rng.Intn(4)) // Q3..Q6
		c := New(dim)
		s := Node(rng.Intn(c.Nodes()))
		d := Node(rng.Intn(c.Nodes()))
		k := rng.Intn(int(dim)) // < dim faults
		f := randomFaults(rng, dim, k, s, d)

		walk, _, err := routeAdaptive(c, f, s, d)
		if err != nil {
			t.Fatalf("trial %d: Q%d with %d faults, %d->%d: %v", trial, dim, k, s, d, err)
		}
		if err := ValidatePath(c, f, walk, s, d); err != nil {
			t.Fatalf("trial %d: invalid walk: %v", trial, err)
		}
	}
}

// TestRouteAdaptiveLengthBound measures the detour cost: the paper's
// strategy promises routes bounded by optimal + 2F when F faults are
// encountered; backtracking can add more, so we assert the generous
// bound optimal + 2F + 2F (each fault can cost one failed probe and one
// backtrack) and report the typical case in benchmarks.
func TestRouteAdaptiveLengthBound(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 300; trial++ {
		dim := uint(4 + rng.Intn(3))
		c := New(dim)
		s := Node(rng.Intn(c.Nodes()))
		d := Node(rng.Intn(c.Nodes()))
		k := rng.Intn(int(dim))
		f := randomFaults(rng, dim, k, s, d)
		walk, _, err := routeAdaptive(c, f, s, d)
		if err != nil {
			t.Fatal(err)
		}
		h := c.Distance(s, d)
		if len(walk)-1 > h+4*k {
			t.Fatalf("Q%d %d faults: %d hops for distance %d", dim, k, len(walk)-1, h)
		}
	}
}

func TestRouteAdaptiveUnreachable(t *testing.T) {
	c := New(3)
	f := NewFaultSet()
	// Isolate node 0 by killing all its neighbors.
	f.AddNode(1)
	f.AddNode(2)
	f.AddNode(4)
	_, _, err := routeAdaptive(c, f, 0, 7)
	if err != ErrUnreachable {
		t.Errorf("err = %v, want ErrUnreachable", err)
	}
}

func TestRouteAdaptiveAroundSingleFault(t *testing.T) {
	c := New(3)
	f := NewFaultSet()
	f.AddNode(0b001) // blocks the first e-cube hop of 000 -> 011
	walk, _, err := routeAdaptive(c, f, 0b000, 0b011)
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidatePath(c, f, walk, 0b000, 0b011); err != nil {
		t.Fatal(err)
	}
	if len(walk)-1 != 2 {
		t.Errorf("detour around node fault should still be minimal here: %v", walk)
	}
}

// routeAdaptive runs AppendRouteAdaptive on a fresh scratch into a new
// walk.
func routeAdaptive(c *Cube, f Faults, s, d Node) ([]Node, int, error) {
	return AppendRouteAdaptive(nil, new(graph.WalkScratch), c, f, s, d)
}
