package hypercube

import (
	"math/rand"
	"slices"
	"testing"

	"gaussiancube/internal/bitutil"
)

// The safety-level and safety-vector routers as they ran with their own
// map-based search loops, before the three substrates shared one walk:
// the shared walk must reproduce their walks exactly.

func refRouteSafety(c *Cube, f Faults, s, d Node) ([]Node, int, error) {
	if f.NodeFaulty(s) || f.NodeFaulty(d) {
		return nil, 0, ErrFaultyEndpoint
	}
	if s == d {
		return []Node{s}, 0, nil
	}
	lvl, _ := SafetyLevels(c, f)

	visited := map[Node]bool{s: true}
	var spareMask uint64
	spares := 0
	walk := []Node{s}
	var stack []uint
	cur := s

	for cur != d {
		dim, ok := refPickDimBySafety(c, f, cur, d, visited, spareMask, lvl)
		if ok {
			if !bitutil.HasBit(uint64(cur^d), dim) {
				spareMask = bitutil.Set(spareMask, dim)
				spares++
			}
			cur ^= 1 << dim
			visited[cur] = true
			walk = append(walk, cur)
			stack = append(stack, dim)
			continue
		}
		if len(stack) == 0 {
			return nil, spares, ErrUnreachable
		}
		dim = stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		cur ^= 1 << dim
		walk = append(walk, cur)
	}
	return walk, spares, nil
}

func refPickDimBySafety(c *Cube, f Faults, cur, d Node, visited map[Node]bool, spareMask uint64, lvl []int) (uint, bool) {
	r := uint64(cur ^ d)
	best, bestLvl := uint(0), -1
	for _, dim := range bitutil.BitsSet(r) {
		w := cur ^ (1 << dim)
		if usable(f, cur, dim) && !visited[w] && lvl[w] > bestLvl {
			best, bestLvl = dim, lvl[w]
		}
	}
	if bestLvl >= 0 {
		return best, true
	}
	for dim := uint(0); dim < c.Dim(); dim++ {
		if bitutil.HasBit(r, dim) || bitutil.HasBit(spareMask, dim) {
			continue
		}
		w := cur ^ (1 << dim)
		if usable(f, cur, dim) && !visited[w] && lvl[w] > bestLvl {
			best, bestLvl = dim, lvl[w]
		}
	}
	if bestLvl >= 0 {
		return best, true
	}
	return 0, false
}

func refRouteSafetyVector(c *Cube, f Faults, s, d Node) ([]Node, int, error) {
	if f.NodeFaulty(s) || f.NodeFaulty(d) {
		return nil, 0, ErrFaultyEndpoint
	}
	if s == d {
		return []Node{s}, 0, nil
	}
	vec, _ := SafetyVectors(c, f)

	visited := map[Node]bool{s: true}
	var spareMask uint64
	spares := 0
	walk := []Node{s}
	var stack []uint
	cur := s

	for cur != d {
		dim, ok := refPickDimByVector(c, f, cur, d, visited, spareMask, vec)
		if ok {
			if !bitutil.HasBit(uint64(cur^d), dim) {
				spareMask = bitutil.Set(spareMask, dim)
				spares++
			}
			cur ^= 1 << dim
			visited[cur] = true
			walk = append(walk, cur)
			stack = append(stack, dim)
			continue
		}
		if len(stack) == 0 {
			return walk, spares, ErrUnreachable
		}
		dim = stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		cur ^= 1 << dim
		walk = append(walk, cur)
	}
	return walk, spares, nil
}

func refPickDimByVector(c *Cube, f Faults, cur, d Node, visited map[Node]bool, spareMask uint64, vec []uint64) (uint, bool) {
	r := uint64(cur ^ d)
	h := bitutil.OnesCount(r)
	// Preferred neighbors whose distance-(h-1) bit is set first (h = 1
	// means the neighbor is d itself).
	for pass := 0; pass < 2; pass++ {
		for _, dim := range bitutil.BitsSet(r) {
			w := cur ^ (1 << dim)
			if !usable(f, cur, dim) || visited[w] {
				continue
			}
			if pass == 0 && h > 1 && !bitutil.HasBit(vec[w], uint(h-2)) {
				continue
			}
			return dim, true
		}
	}
	for dim := uint(0); dim < c.Dim(); dim++ {
		if bitutil.HasBit(r, dim) || bitutil.HasBit(spareMask, dim) {
			continue
		}
		if usable(f, cur, dim) && !visited[cur^(1<<dim)] {
			return dim, true
		}
	}
	return 0, false
}

// TestSafetyWalksMatchReference: RouteSafety and RouteSafetyVector walk
// exactly the reference routers' paths, spare counts and errors on random
// cubes and fault sets dense enough to force spares and backtracking.
func TestSafetyWalksMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	routers := []struct {
		name     string
		got, ref func(*Cube, Faults, Node, Node) ([]Node, int, error)
	}{
		{"levels", RouteSafety, refRouteSafety},
		{"vectors", RouteSafetyVector, refRouteSafetyVector},
	}
	spared := map[string]int{}
	for trial := 0; trial < 200; trial++ {
		c := New(uint(2 + rng.Intn(5)))
		f := randomFaults(rng, c.Dim(), rng.Intn(c.Nodes()/2+1))
		for i := 0; i < 10; i++ {
			s, d := Node(rng.Intn(c.Nodes())), Node(rng.Intn(c.Nodes()))
			for _, rt := range routers {
				walk, spares, err := rt.got(c, f, s, d)
				want, wantSpares, wantErr := rt.ref(c, f, s, d)
				if err != nil {
					walk = nil // the reference's partial walks on error are not part of the contract
					want = nil
				}
				if err != wantErr || spares != wantSpares || !slices.Equal(walk, want) {
					t.Fatalf("%s Q_%d %d->%d: walk %v spares %d err %v, reference %v %d %v",
						rt.name, c.Dim(), s, d, walk, spares, err, want, wantSpares, wantErr)
				}
				spared[rt.name] += spares
			}
		}
	}
	for _, rt := range routers {
		if spared[rt.name] == 0 {
			t.Errorf("%s: no walk took a spare dimension", rt.name)
		}
	}
}
