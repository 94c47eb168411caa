package fault

import (
	"math/rand"
	"sync"
	"testing"

	"gaussiancube/internal/gc"
)

func TestDynamicTimeline(t *testing.T) {
	cube := gc.New(6, 1)
	d := NewDynamic(cube, []Event{
		{Time: 10, Op: OpInject, Fault: Fault{Kind: KindNode, Node: 3}},
		{Time: 5, Op: OpInject, Fault: Fault{Kind: KindLink, Node: 0, Dim: 0}},
		{Time: 20, Op: OpRepair, Fault: Fault{Kind: KindNode, Node: 3}},
	})
	if d.Epoch() != 0 || d.ActiveCount() != 0 {
		t.Fatalf("fresh dynamic not pristine: epoch=%d count=%d", d.Epoch(), d.ActiveCount())
	}
	if d.Fingerprint() != 0 {
		t.Fatalf("empty set fingerprint = %#x, want 0", d.Fingerprint())
	}

	if changed := d.AdvanceTo(4); changed {
		t.Fatal("no event at or before cycle 4")
	}
	if !d.AdvanceTo(5) || !d.LinkFaulty(0, 0) || d.NodeFaulty(3) {
		t.Fatalf("cycle 5 state wrong: link=%v node=%v", d.LinkFaulty(0, 0), d.NodeFaulty(3))
	}
	if d.Epoch() != 1 {
		t.Fatalf("epoch after first transition = %d, want 1", d.Epoch())
	}
	fpAt5 := d.Fingerprint()

	if !d.AdvanceTo(15) || !d.NodeFaulty(3) {
		t.Fatal("node 3 must be faulty at cycle 15")
	}
	if d.Epoch() != 2 {
		t.Fatalf("epoch = %d, want 2", d.Epoch())
	}

	if !d.AdvanceTo(25) || d.NodeFaulty(3) {
		t.Fatal("node 3 must be repaired by cycle 25")
	}
	if !d.LinkFaulty(0, 0) {
		t.Fatal("permanent link fault must survive the node repair")
	}
	if d.Fingerprint() != fpAt5 {
		t.Fatalf("state at 25 equals state at 5, fingerprints differ: %#x vs %#x",
			d.Fingerprint(), fpAt5)
	}
	if d.AdvanceTo(1000) {
		t.Fatal("no events remain")
	}
	if d.PendingEvents() != 0 {
		t.Fatalf("pending = %d, want 0", d.PendingEvents())
	}
}

func TestDynamicTransience(t *testing.T) {
	cube := gc.New(6, 1)
	d := NewDynamic(cube, []Event{
		{Time: 0, Op: OpInject, Fault: Fault{Kind: KindNode, Node: 3}},
		{Time: 9, Op: OpRepair, Fault: Fault{Kind: KindNode, Node: 3}},
		{Time: 0, Op: OpInject, Fault: Fault{Kind: KindNode, Node: 5}},
	})
	d.AdvanceTo(0)
	if !d.TransientNode(3) {
		t.Error("node 3 has a scheduled repair: transient")
	}
	if d.TransientNode(5) {
		t.Error("node 5 never heals: permanent")
	}
	// A link into a transient-faulty node is transiently blocked; a link
	// into the permanent one is not.
	dim3 := cube.LinkDims(3)[0]
	if !d.TransientAt(3, dim3) {
		t.Error("link into transiently dead node must report transient")
	}
	dim5 := cube.LinkDims(5)[0]
	if d.TransientAt(5, dim5) {
		t.Error("link into permanently dead node must not report transient")
	}
	// A healthy link is not "transiently blocked".
	if d.TransientAt(0, cube.LinkDims(0)[0]) {
		t.Error("healthy link reports transient")
	}
	d.AdvanceTo(9)
	if d.NodeFaulty(3) || d.TransientNode(3) {
		t.Error("repaired node still reported faulty")
	}
}

func TestDynamicSnapshotFrozen(t *testing.T) {
	cube := gc.New(6, 1)
	d := NewDynamic(cube, BatchInject(randomSet(cube, 3), 0))
	d.AdvanceTo(0)
	snap := d.Snapshot()
	if !snap.Frozen() {
		t.Fatal("snapshot must be frozen")
	}
	if snap.Count() != 3 {
		t.Fatalf("snapshot count = %d, want 3", snap.Count())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("mutating a frozen snapshot must panic")
		}
	}()
	snap.AddNode(0)
}

func TestDynamicSubscribeAndInject(t *testing.T) {
	cube := gc.New(6, 1)
	d := NewDynamic(cube, nil)
	var seen []uint64
	d.SubscribeBatch(func(e, _ uint64, _ []Event) { seen = append(seen, e) })
	if !d.Inject(Fault{Kind: KindNode, Node: 7}, true) {
		t.Fatal("inject of a healthy node must change state")
	}
	if d.Inject(Fault{Kind: KindNode, Node: 7}, true) {
		t.Fatal("double inject must be a no-op")
	}
	if !d.TransientNode(7) {
		t.Fatal("programmatic transient inject not marked transient")
	}
	if !d.Repair(Fault{Kind: KindNode, Node: 7}) {
		t.Fatal("repair of an active fault must change state")
	}
	if d.Repair(Fault{Kind: KindNode, Node: 7}) {
		t.Fatal("double repair must be a no-op")
	}
	if len(seen) != 2 || seen[0] != 1 || seen[1] != 2 {
		t.Fatalf("subscriber saw %v, want [1 2]", seen)
	}
}

func TestDynamicFork(t *testing.T) {
	cube := gc.New(6, 1)
	d := NewDynamic(cube, []Event{
		{Time: 3, Op: OpInject, Fault: Fault{Kind: KindNode, Node: 1}},
	})
	d.AdvanceTo(10)
	f := d.Fork()
	if f.Epoch() != 0 || f.NodeFaulty(1) {
		t.Fatal("fork must start pristine")
	}
	f.AdvanceTo(10)
	if !f.NodeFaulty(1) {
		t.Fatal("fork must replay the schedule")
	}
}

func TestChurnScheduleShape(t *testing.T) {
	cube := gc.New(8, 1)
	rng := rand.New(rand.NewSource(7))
	events := ChurnSchedule(rng, cube, ChurnConfig{
		MTBF: 3, MTTR: 10, Horizon: 200, LinkFraction: 0.5,
		MaxActive: 4, Protect: []gc.NodeID{0, 255},
	})
	if len(events) < 20 {
		t.Fatalf("only %d events over 200 cycles at MTBF 3", len(events))
	}
	injects, repairs := 0, 0
	last := -1
	for _, e := range events {
		if e.Time < last {
			t.Fatalf("schedule not time-sorted: %v", events)
		}
		last = e.Time
		switch e.Op {
		case OpInject:
			injects++
			if e.Time >= 200 {
				t.Fatalf("injection at %d beyond horizon", e.Time)
			}
			if e.Fault.Node == 0 || e.Fault.Node == 255 {
				t.Fatalf("protected node failed: %+v", e.Fault)
			}
			if e.Fault.Kind == KindLink && (e.Fault.Node^(1<<e.Fault.Dim)) == 0 {
				t.Fatalf("link incident to protected node failed: %+v", e.Fault)
			}
		case OpRepair:
			repairs++
		}
	}
	if injects != repairs {
		t.Fatalf("MTTR > 0 means every inject heals: %d injects, %d repairs", injects, repairs)
	}
	// The schedule must drive a Dynamic without panicking and respect
	// MaxActive at every transition.
	d := NewDynamic(cube, events)
	for _, e := range events {
		d.AdvanceTo(e.Time)
		if n := d.ActiveCount(); n > 4 {
			t.Fatalf("MaxActive violated: %d active at cycle %d", n, e.Time)
		}
	}
}

func TestChurnSchedulePermanent(t *testing.T) {
	cube := gc.New(7, 1)
	rng := rand.New(rand.NewSource(3))
	events := ChurnSchedule(rng, cube, ChurnConfig{MTBF: 10, Horizon: 100})
	for _, e := range events {
		if e.Op == OpRepair {
			t.Fatalf("MTTR 0 means permanent faults, got repair %+v", e)
		}
	}
}

// TestDynamicConcurrentReaders hammers the oracle from parallel readers
// while the timeline advances — the -race regression for the locking
// contract.
func TestDynamicConcurrentReaders(t *testing.T) {
	cube := gc.New(7, 1)
	rng := rand.New(rand.NewSource(11))
	events := ChurnSchedule(rng, cube, ChurnConfig{MTBF: 2, MTTR: 5, Horizon: 300, LinkFraction: 0.3})
	d := NewDynamic(cube, events)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				v := gc.NodeID((i * 31) % cube.Nodes())
				d.NodeFaulty(v)
				d.LinkFaulty(v, cube.LinkDims(v)[0])
				d.Fingerprint()
				d.Snapshot()
			}
		}(w)
	}
	for tt := 0; tt <= 300; tt += 3 {
		d.AdvanceTo(tt)
	}
	close(stop)
	wg.Wait()
}

func randomSet(cube *gc.Cube, n int) *Set {
	s := NewSet(cube)
	s.InjectRandomNodes(rand.New(rand.NewSource(42)), n)
	return s
}
