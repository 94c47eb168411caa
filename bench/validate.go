package main

import (
	"fmt"
	"math/bits"
	"sync/atomic"

	"gaussiancube/internal/core"
	"gaussiancube/internal/fault"
	"gaussiancube/internal/gc"
	"gaussiancube/internal/graph"
	"gaussiancube/internal/serve"
	"gaussiancube/internal/wire"
)

// faultView is the benchmark's own mirror of one epoch's fault state,
// built from the mutations it sent, never read back from the server.
type faultView struct {
	nodes []uint64              // bitset over node ids
	links map[[2]gc.NodeID]bool // (lo, hi) endpoint pairs; nil when none
	list  []gc.NodeID           // faulty nodes, in injection order
}

func newFaultView(cube *gc.Cube, nodes ...gc.NodeID) *faultView {
	f := &faultView{nodes: make([]uint64, (cube.Nodes()+63)/64)}
	for _, v := range nodes {
		f.addNode(v)
	}
	return f
}

func (f *faultView) addNode(v gc.NodeID) {
	f.nodes[v/64] |= 1 << (v % 64)
	f.list = append(f.list, v)
}

func (f *faultView) nodeFaulty(v gc.NodeID) bool {
	return int(v/64) < len(f.nodes) && f.nodes[v/64]&(1<<(v%64)) != 0
}

func (f *faultView) linkFaulty(u, v gc.NodeID) bool {
	return f.links != nil && f.links[linkKey(u, v)]
}

// set rebuilds the view as a fault.Set, for fingerprints and planners.
func (f *faultView) set(cube *gc.Cube) *fault.Set {
	fs := fault.NewSet(cube)
	for _, v := range f.list {
		fs.AddNode(v)
	}
	for k := range f.links {
		fs.AddLink(k[0], uint(bits.TrailingZeros32(uint32(k[0]^k[1]))))
	}
	return fs
}

func linkKey(u, v gc.NodeID) [2]gc.NodeID {
	if u > v {
		u, v = v, u
	}
	return [2]gc.NodeID{u, v}
}

// history is the mirrored fault state of every epoch a workload can
// reach. Views are built before the timed window and never change;
// issued and acked track, per epoch number, how far the writer has got:
// an epoch is live on the server somewhere between the moment its
// mutation is sent (issued) and the moment it is acknowledged (acked).
type history struct {
	epochs []*faultView
	issued atomic.Uint64 // highest epoch whose mutation has been sent
	acked  atomic.Uint64 // highest epoch acknowledged to the writer
}

func staticHistory(v *faultView) *history { return &history{epochs: []*faultView{v}} }

// verdict classifies one reply.
type verdict int

const (
	replyOK      verdict = iota // correct answer, served
	replyRefused                // a correct faulty-endpoint refusal, served
	replyFailed                 // not served: refusal or transport error
	replyWrong                  // a wrong answer
)

// validator checks route replies against the cube and the mirrored
// fault history. One validator serves one goroutine.
type validator struct {
	cube    *gc.Cube
	hist    *history
	undeliv int // undeliverable verdicts seen, drives 1-in-64 BFS checks
}

// routeMemo remembers a reply already validated for one working-set
// pair, so a repeated cache hit costs a slice comparison instead of a
// full walk.
type routeMemo struct {
	epoch uint64
	path  []gc.NodeID
	valid bool
}

// check validates the reply r to (src, dst) sent while epochs lo..hi
// were live. memo may be nil. A wrong answer returns replyWrong and a
// description.
func (v *validator) check(src, dst gc.NodeID, r *serve.WireRoute, lo, hi uint64, memo *routeMemo) (verdict, string) {
	if r.ErrCode != 0 {
		if r.ErrCode != wire.CodeFaultyNode {
			return replyFailed, fmt.Sprintf("error frame %d: %s", r.ErrCode, r.ErrMsg)
		}
		for e := lo; e <= hi && int(e) < len(v.hist.epochs); e++ {
			if f := v.hist.epochs[e]; f.nodeFaulty(src) || f.nodeFaulty(dst) {
				return replyRefused, ""
			}
		}
		return replyWrong, fmt.Sprintf("%d->%d refused as faulty, but both endpoints are healthy in epochs %d..%d", src, dst, lo, hi)
	}
	if r.Epoch > hi || int(r.Epoch) >= len(v.hist.epochs) {
		return replyWrong, fmt.Sprintf("%d->%d answered in epoch %d, which was not live (latest %d)", src, dst, r.Epoch, hi)
	}
	if memo != nil && memo.valid && memo.epoch == r.Epoch && r.Delivered() &&
		r.Hops == len(memo.path)-1 && equalPaths(memo.path, r.Path) {
		return replyOK, ""
	}
	msg := v.checkResult(src, dst, core.Outcome(r.Outcome), r.Hops, r.Path, v.hist.epochs[r.Epoch])
	if msg != "" {
		return replyWrong, fmt.Sprintf("epoch %d: %s", r.Epoch, msg)
	}
	if memo != nil && r.Delivered() {
		memo.epoch, memo.path, memo.valid = r.Epoch, append(memo.path[:0], r.Path...), true
	}
	return replyOK, ""
}

// checkResult validates one verdict against the fault state f of the
// epoch it claims, returning "" when it is correct.
func (v *validator) checkResult(src, dst gc.NodeID, out core.Outcome, hops int, path []gc.NodeID, f *faultView) string {
	switch {
	case out == core.OutcomeDelivered || out == core.OutcomeDeliveredDegraded:
		return checkPath(v.cube, f, src, dst, hops, path)
	case out.Undeliverable():
		v.undeliv++
		if v.undeliv%64 != 1 {
			return ""
		}
		if p := graph.ShortestPath(healthyView{v.cube, f}, src, dst); p != nil {
			return fmt.Sprintf("%d->%d declared undeliverable, but a %d-hop healthy path exists", src, dst, len(p)-1)
		}
		return ""
	default:
		return fmt.Sprintf("%d->%d has outcome %v", src, dst, out)
	}
}

// checkPath reports why path is not a correct route from src to dst
// avoiding the faults in f, or "" when it is.
func checkPath(cube *gc.Cube, f *faultView, src, dst gc.NodeID, hops int, path []gc.NodeID) string {
	if len(path) == 0 {
		return fmt.Sprintf("%d->%d delivered with an empty path", src, dst)
	}
	if path[0] != src || path[len(path)-1] != dst {
		return fmt.Sprintf("%d->%d path runs %d->%d", src, dst, path[0], path[len(path)-1])
	}
	if hops != len(path)-1 {
		return fmt.Sprintf("%d->%d reports %d hops for a %d-node path", src, dst, hops, len(path))
	}
	for i, p := range path {
		if f.nodeFaulty(p) {
			return fmt.Sprintf("%d->%d passes faulty node %d", src, dst, p)
		}
		if i == 0 {
			continue
		}
		q := path[i-1]
		x := uint32(p ^ q)
		if bits.OnesCount32(x) != 1 || !cube.HasLinkDim(q, uint(bits.TrailingZeros32(x))) {
			return fmt.Sprintf("%d->%d hop %d->%d is not a cube link", src, dst, q, p)
		}
		if f.linkFaulty(q, p) {
			return fmt.Sprintf("%d->%d crosses faulty link %d-%d", src, dst, q, p)
		}
	}
	return ""
}

func equalPaths(a, b []gc.NodeID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// healthyView is the cube with the faulty nodes and links of one epoch
// removed, for the BFS re-check of undeliverable verdicts.
type healthyView struct {
	cube *gc.Cube
	f    *faultView
}

func (h healthyView) Nodes() int { return h.cube.Nodes() }

func (h healthyView) Neighbors(v graph.NodeID) []graph.NodeID {
	if h.f.nodeFaulty(v) {
		return nil
	}
	var out []graph.NodeID
	for _, w := range h.cube.Neighbors(v) {
		if !h.f.nodeFaulty(w) && !h.f.linkFaulty(v, w) {
			out = append(out, w)
		}
	}
	return out
}
