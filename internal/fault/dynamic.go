package fault

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"

	"gaussiancube/internal/gc"
)

// EventOp is the kind of a fault-lifecycle event.
type EventOp int

// Event operations.
const (
	OpInject EventOp = iota // the component becomes faulty
	OpRepair                // the component becomes healthy again
)

// String implements fmt.Stringer.
func (op EventOp) String() string {
	switch op {
	case OpInject:
		return "inject"
	case OpRepair:
		return "repair"
	default:
		return fmt.Sprintf("EventOp(%d)", int(op))
	}
}

// Event is one scheduled fault transition.
type Event struct {
	Time  int
	Op    EventOp
	Fault Fault
}

// faultKey identifies one component for lifecycle bookkeeping; link
// faults are normalized to their lower endpoint.
type faultKey struct {
	kind Kind
	node gc.NodeID
	dim  uint
}

func keyOf(f Fault) faultKey {
	if f.Kind == KindLink {
		k := normLink(f.Node, f.Dim)
		return faultKey{kind: KindLink, node: k.low, dim: k.dim}
	}
	return faultKey{kind: KindNode, node: f.Node}
}

// Dynamic is a fault set that evolves over simulated time: components
// fail and heal according to an event schedule (or programmatic
// Inject/Repair calls), and every state transition bumps a monotonic
// epoch counter so downstream consumers — route caches, planners —
// can detect that knowledge derived from an earlier state is stale.
//
// Dynamic is safe for concurrent readers; AdvanceTo/Inject/Repair take
// the write lock. The wrapped Set is never exposed mutably: Snapshot
// returns a frozen clone, and the oracle methods (NodeFaulty,
// LinkFaulty) read under the lock, so concurrent routing during fault
// activation cannot race with mutation.
type Dynamic struct {
	mu       sync.RWMutex
	cube     *gc.Cube
	active   *Set
	schedule []Event
	next     int // index of the first unapplied schedule event
	now      int
	epoch    uint64
	fp       uint64 // active.Fingerprint() memoized per epoch
	// transient marks components whose scheduled lifecycle includes a
	// repair: the fault is expected to heal, so routing may choose to
	// wait it out instead of detouring.
	transient map[faultKey]bool
	batchSubs []func(epoch, fp uint64, events []Event)

	// Notification turnstile: callbacks for epoch e complete before any
	// callback for an epoch > e begins, even when mutations race (see
	// bumpAndNotify). notifyTurn is the last epoch whose callbacks have
	// finished; a mutation that bumped the epoch to t waits until
	// notifyTurn == t-1, runs its callbacks, then publishes t.
	notifyMu   sync.Mutex
	notifyCond *sync.Cond
	notifyTurn uint64
}

// NewDynamic builds a dynamic fault set over cube c driven by the given
// event schedule. The schedule is sorted by time (stably, so same-cycle
// events keep their relative order); it starts empty — seed an initial
// fault population with events at time zero, e.g. via BatchInject.
// Applying an inject event for a link the cube does not have panics,
// mirroring Set.AddLink.
func NewDynamic(c *gc.Cube, events []Event) *Dynamic {
	sched := append([]Event(nil), events...)
	sort.SliceStable(sched, func(i, j int) bool { return sched[i].Time < sched[j].Time })
	tr := make(map[faultKey]bool)
	for _, e := range sched {
		if e.Op == OpRepair {
			tr[keyOf(e.Fault)] = true
		}
	}
	d := &Dynamic{
		cube:      c,
		active:    NewSet(c),
		schedule:  sched,
		transient: tr,
	}
	d.notifyCond = sync.NewCond(&d.notifyMu)
	return d
}

// BatchInject converts a static fault set into inject events at time t,
// in a deterministic order. It is the bridge from the legacy
// "everything fails at once" activation model to the event timeline.
func BatchInject(s *Set, t int) []Event {
	faults := s.Faults()
	sort.Slice(faults, func(i, j int) bool {
		a, b := faults[i], faults[j]
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		if a.Node != b.Node {
			return a.Node < b.Node
		}
		return a.Dim < b.Dim
	})
	out := make([]Event, len(faults))
	for i, f := range faults {
		out[i] = Event{Time: t, Op: OpInject, Fault: f}
	}
	return out
}

// Cube returns the cube the dynamic set is defined over.
func (d *Dynamic) Cube() *gc.Cube { return d.cube }

// Now returns the last time AdvanceTo reached.
func (d *Dynamic) Now() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.now
}

// Epoch returns the monotonically increasing state-transition counter.
// It starts at zero and bumps once per AdvanceTo/Inject/Repair call
// that changed the active fault set.
func (d *Dynamic) Epoch() uint64 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.epoch
}

// Fingerprint returns the content hash of the current active set (see
// Set.Fingerprint), memoized per epoch. Unlike Epoch it also
// distinguishes two Dynamic instances, so it is the token handed to
// shared route caches.
func (d *Dynamic) Fingerprint() uint64 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.fp
}

// NodeFaulty reports whether node v is currently faulty.
func (d *Dynamic) NodeFaulty(v gc.NodeID) bool {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.active.NodeFaulty(v)
}

// LinkFaulty reports whether the link at v in dimension dim is
// currently unusable.
func (d *Dynamic) LinkFaulty(v gc.NodeID, dim uint) bool {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.active.LinkFaulty(v, dim)
}

// TransientNode reports whether node v is currently faulty AND its
// fault is transient (a scheduled repair exists).
func (d *Dynamic) TransientNode(v gc.NodeID) bool {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.active.NodeFaulty(v) && d.transient[faultKey{kind: KindNode, node: v}]
}

// TransientAt reports whether the link at v in dimension dim is
// currently blocked and every component blocking it is transient —
// i.e. waiting the faults out is expected to reopen the link.
func (d *Dynamic) TransientAt(v gc.NodeID, dim uint) bool {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if !d.active.LinkFaulty(v, dim) {
		return false
	}
	if d.active.linkMarked(v, dim) && !d.transient[keyOf(Fault{Kind: KindLink, Node: v, Dim: dim})] {
		return false
	}
	for _, end := range [2]gc.NodeID{v, v ^ (1 << dim)} {
		if d.active.NodeFaulty(end) && !d.transient[faultKey{kind: KindNode, node: end}] {
			return false
		}
	}
	return true
}

// Snapshot returns a frozen point-in-time copy of the active fault set.
func (d *Dynamic) Snapshot() *Set {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.active.Clone().Freeze()
}

// ActiveCount returns the number of currently faulty components.
func (d *Dynamic) ActiveCount() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.active.Count()
}

// PendingEvents returns the number of unapplied schedule events.
func (d *Dynamic) PendingEvents() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.schedule) - d.next
}

// SubscribeBatch registers fn to be called (synchronously, outside the
// lock) once per epoch transition with the new epoch, the new state
// fingerprint, and the applied state-changing events of that
// transition in application order. Subscribers run in registration
// order. The events slice is reused scratch: copy it to retain past
// the callback. Repair health maps fold the events into per-tree-edge
// link counts; journal writers record the (epoch, fingerprint, events)
// triples, which replay to bit-identical state.
//
// Ordering contract: callbacks are serialized across concurrent
// mutators in epoch order — every callback of epoch e returns before
// any callback of epoch e+1 starts, so batches arrive in strictly
// increasing, dense epoch order and a subscriber appending them to a
// log observes the exact state history. The cost is that callbacks
// must not mutate the Dynamic they observe: a reentrant Inject/Repair
// would wait for its own epoch's turn, which never comes. Reads
// (Epoch, Snapshot, Fingerprint, oracle queries) are fine.
func (d *Dynamic) SubscribeBatch(fn func(epoch, fp uint64, events []Event)) {
	d.mu.Lock()
	d.batchSubs = append(d.batchSubs, fn)
	d.mu.Unlock()
}

// AdvanceTo applies every schedule event with Time <= t and reports
// whether the active fault set changed. Time is monotonic: advancing
// backwards is a no-op on state (Fork a fresh instance to replay the
// schedule from zero).
func (d *Dynamic) AdvanceTo(t int) bool {
	d.mu.Lock()
	var applied []Event
	if t > d.now {
		d.now = t
	}
	for d.next < len(d.schedule) && d.schedule[d.next].Time <= t {
		if e := d.schedule[d.next]; d.apply(e) {
			applied = append(applied, e)
		}
		d.next++
	}
	d.bumpAndNotify(applied)
	return len(applied) > 0
}

// Inject makes the component faulty immediately (at the current time),
// outside the schedule. transient marks the fault as expected to heal,
// which lets adaptive routing wait it out. It reports whether the state
// changed (false when the component was already faulty).
func (d *Dynamic) Inject(f Fault, transient bool) bool {
	d.mu.Lock()
	k := keyOf(f)
	if transient {
		d.transient[k] = true
	} else {
		delete(d.transient, k)
	}
	e := Event{Time: d.now, Op: OpInject, Fault: f}
	var applied []Event
	if d.apply(e) {
		applied = append(applied, e)
	}
	d.bumpAndNotify(applied)
	return len(applied) > 0
}

// Repair heals the component immediately, outside the schedule. It
// reports whether the state changed.
func (d *Dynamic) Repair(f Fault) bool {
	d.mu.Lock()
	e := Event{Time: d.now, Op: OpRepair, Fault: f}
	var applied []Event
	if d.apply(e) {
		applied = append(applied, e)
	}
	d.bumpAndNotify(applied)
	return len(applied) > 0
}

// apply mutates the active set per one event; caller holds d.mu.
func (d *Dynamic) apply(e Event) bool {
	f := e.Fault
	switch {
	case e.Op == OpInject && f.Kind == KindNode:
		if d.active.NodeFaulty(f.Node) {
			return false
		}
		d.active.AddNode(f.Node)
	case e.Op == OpInject: // link
		if d.active.linkMarked(f.Node, f.Dim) {
			return false
		}
		d.active.AddLink(f.Node, f.Dim)
	case f.Kind == KindNode: // repair node
		if !d.active.NodeFaulty(f.Node) {
			return false
		}
		d.active.RemoveNode(f.Node)
	default: // repair link
		if !d.active.linkMarked(f.Node, f.Dim) {
			return false
		}
		d.active.RemoveLink(f.Node, f.Dim)
	}
	return true
}

// bumpAndNotify finishes a mutation: bumps the epoch and refreshes the
// fingerprint when events were applied, releases d.mu, and notifies
// the batch subscribers.
//
// Notification is serialized through the epoch turnstile: the epoch
// counter assigned under d.mu is this mutation's ticket, and callbacks
// run only once every earlier epoch's callbacks have completed. Two
// racing mutations therefore never deliver their callbacks out of
// epoch order (or interleaved), no matter which goroutine wins the
// unlock. Callbacks run outside both locks, so they may read the
// Dynamic freely — but must not mutate it (see SubscribeBatch).
func (d *Dynamic) bumpAndNotify(applied []Event) {
	if len(applied) == 0 {
		d.mu.Unlock()
		return
	}
	d.epoch++
	d.fp = d.active.Fingerprint()
	epoch, fp := d.epoch, d.fp
	subs := d.batchSubs // registration only appends past this length
	d.mu.Unlock()

	d.notifyMu.Lock()
	for d.notifyTurn != epoch-1 {
		d.notifyCond.Wait()
	}
	d.notifyMu.Unlock()

	for _, fn := range subs {
		fn(epoch, fp, applied)
	}

	d.notifyMu.Lock()
	d.notifyTurn = epoch
	d.notifyCond.Broadcast()
	d.notifyMu.Unlock()
}

// Fork returns a fresh Dynamic at time zero over the same cube and
// schedule, with no subscribers. Programmatic Inject/Repair calls made
// on the receiver are not part of the schedule and are not replayed.
func (d *Dynamic) Fork() *Dynamic {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return NewDynamic(d.cube, d.schedule)
}

// ChurnConfig parameterizes a randomly generated fail/repair workload.
type ChurnConfig struct {
	// MTBF is the mean number of cycles between fault injections
	// (exponentially distributed inter-arrival times). Required > 0.
	MTBF float64
	// MTTR is the mean fault lifetime in cycles; every injected fault
	// gets a matching repair event 1 + Exp(MTTR) cycles later. Zero
	// makes all faults permanent.
	MTTR float64
	// Horizon stops injections at this cycle (repairs may land later,
	// so in-flight traffic drains against a healing network).
	Horizon int
	// LinkFraction is the probability that an injection hits a single
	// link rather than a whole node.
	LinkFraction float64
	// MaxActive caps the number of concurrently faulty components
	// (0 = unlimited); injections that would exceed it are skipped.
	MaxActive int
	// Protect lists nodes never failed (and whose incident links are
	// never failed) — typically pinned traffic endpoints.
	Protect []gc.NodeID
}

// ChurnSchedule generates a random fault event timeline per cfg. The
// result is deterministic for a fixed rng state.
func ChurnSchedule(rng *rand.Rand, c *gc.Cube, cfg ChurnConfig) []Event {
	if cfg.MTBF <= 0 {
		panic("fault: ChurnConfig.MTBF must be positive")
	}
	prot := make(map[gc.NodeID]bool, len(cfg.Protect))
	for _, p := range cfg.Protect {
		prot[p] = true
	}
	var events []Event
	repairAt := make(map[faultKey]int) // active components; -1 = permanent
	activeAt := func(t int) int {
		n := 0
		for k, r := range repairAt {
			if r < 0 || r > t {
				n++
			} else {
				delete(repairAt, k)
			}
		}
		return n
	}
	for t := 0.0; ; {
		t += rng.ExpFloat64() * cfg.MTBF
		cycle := int(t)
		if cycle >= cfg.Horizon {
			break
		}
		if cfg.MaxActive > 0 && activeAt(cycle) >= cfg.MaxActive {
			continue
		}
		f, ok := pickComponent(rng, c, cfg, prot, repairAt, cycle)
		if !ok {
			continue
		}
		events = append(events, Event{Time: cycle, Op: OpInject, Fault: f})
		k := keyOf(f)
		if cfg.MTTR > 0 {
			heal := cycle + 1 + int(rng.ExpFloat64()*cfg.MTTR)
			events = append(events, Event{Time: heal, Op: OpRepair, Fault: f})
			repairAt[k] = heal
		} else {
			repairAt[k] = -1
		}
	}
	sort.SliceStable(events, func(i, j int) bool { return events[i].Time < events[j].Time })
	return events
}

// pickComponent samples a component to fail that is not protected and
// not already faulty at the given cycle; it gives up after a bounded
// number of attempts (possible only on tiny or saturated cubes).
func pickComponent(rng *rand.Rand, c *gc.Cube, cfg ChurnConfig, prot map[gc.NodeID]bool, repairAt map[faultKey]int, cycle int) (Fault, bool) {
	for attempt := 0; attempt < 64; attempt++ {
		v := gc.NodeID(rng.Intn(c.Nodes()))
		if prot[v] {
			continue
		}
		var f Fault
		if rng.Float64() < cfg.LinkFraction {
			dims := c.LinkDims(v)
			if len(dims) == 0 {
				continue
			}
			d := dims[rng.Intn(len(dims))]
			if prot[v^(1<<d)] {
				continue
			}
			f = Fault{Kind: KindLink, Node: v, Dim: d}
		} else {
			f = Fault{Kind: KindNode, Node: v}
		}
		if r, active := repairAt[keyOf(f)]; active && (r < 0 || r > cycle) {
			continue
		}
		return f, true
	}
	return Fault{}, false
}
