package graph

// WalkScratch is the reusable state of Walk: the visited set and the
// backtrack stack. The zero value is ready to use; a scratch serves one
// walk at a time, and once its buffers have grown a walk allocates
// nothing beyond dst.
type WalkScratch struct {
	// seen is the visited set, a bitmap over the labels, grown to the
	// largest label space walked through this scratch. It is all zero
	// between walks: every node it marks is on the walk, which clears it.
	seen []uint64
	// stack[i] is the dimension used to enter the (i+1)th node of the
	// forward path; popping it backtracks.
	stack []uint
}

// Visited reports whether the walk in progress has visited v.
func (sc *WalkScratch) Visited(v NodeID) bool { return sc.seen[v>>6]>>(v&63)&1 != 0 }

// Walk appends onto dst a depth-first walk from s to d on a topology
// whose links flip one label bit, every label below nodes. At each node
// it hops along the dimension next picks and backtracks one hop when
// next finds none. next must not pick a hop onto a visited node, which
// makes the walk a depth-first traversal of the links next accepts: it
// reaches d whenever they connect s and d, and reports false with dst
// unextended otherwise. The walk includes its backtracking hops, as a
// message would traverse them. The fault-tolerant routers of the
// hypercube and exchanged-hypercube substrates are this walk with their
// own next.
func (sc *WalkScratch) Walk(dst []NodeID, nodes int, s, d NodeID, next func(cur NodeID) (uint, bool)) ([]NodeID, bool) {
	start := len(dst)
	dst = append(dst, s)
	if n := (nodes + 63) / 64; len(sc.seen) < n {
		sc.seen = make([]uint64, n)
	}
	seen, stack := sc.seen, sc.stack[:0]
	seen[s>>6] |= 1 << (s & 63)
	found := true
	for cur := s; cur != d; {
		if dim, ok := next(cur); ok {
			cur ^= 1 << dim
			seen[cur>>6] |= 1 << (cur & 63)
			dst = append(dst, cur)
			stack = append(stack, dim)
			continue
		}
		if len(stack) == 0 {
			found = false
			break
		}
		cur ^= 1 << stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		dst = append(dst, cur)
	}
	for _, v := range dst[start:] {
		seen[v>>6] &^= 1 << (v & 63)
	}
	sc.stack = stack[:0]
	if !found {
		return dst[:start], false
	}
	return dst, true
}
