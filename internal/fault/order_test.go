package fault

import (
	"math/rand"
	"sync"
	"testing"

	"gaussiancube/internal/gc"
)

// TestSubscriberEpochOrderUnderConcurrentMutation pins the ordering
// contract documented on SubscribeBatch: callbacks are serialized in
// strictly increasing, dense epoch order even when many goroutines
// mutate the Dynamic concurrently, and the subscribers of one epoch
// run in registration order. A durable journal writer records exactly
// what these callbacks deliver, so any interleaving or reordering here
// would persist a history that replays to the wrong state. Run under
// -race: the subscribers append to plain slices without their own
// locking, so the test also proves the turnstile provides the
// happens-before edges the contract promises.
func TestSubscriberEpochOrderUnderConcurrentMutation(t *testing.T) {
	cube := gc.New(8, 2)
	d := NewDynamic(cube, nil)

	type batchRec struct {
		epoch  uint64
		fp     uint64
		events []Event
	}
	var (
		batches    []batchRec
		counted    []int    // events per batch, as the second subscriber saw them
		liveEpochs []uint64 // live epoch when the second subscriber ran
	)
	d.SubscribeBatch(func(epoch, fp uint64, events []Event) {
		batches = append(batches, batchRec{epoch: epoch, fp: fp, events: append([]Event(nil), events...)})
	})
	d.SubscribeBatch(func(epoch, _ uint64, events []Event) {
		if n := len(batches); n == 0 || batches[n-1].epoch != epoch {
			t.Errorf("second subscriber ran for epoch %d before the first", epoch)
		}
		counted = append(counted, len(events))
		liveEpochs = append(liveEpochs, d.Epoch())
	})

	const (
		goroutines = 8
		perG       = 64
	)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(1000 + g)))
			for i := 0; i < perG; i++ {
				v := gc.NodeID(rng.Intn(cube.Nodes()))
				if rng.Intn(2) == 0 {
					d.Inject(Fault{Kind: KindNode, Node: v}, false)
				} else {
					d.Repair(Fault{Kind: KindNode, Node: v})
				}
			}
		}(g)
	}
	wg.Wait()

	if len(batches) == 0 {
		t.Fatal("no epoch transitions observed")
	}
	if got, want := uint64(len(batches)), d.Epoch(); got != want {
		t.Fatalf("observed %d batch callbacks for final epoch %d", got, want)
	}
	for i, b := range batches {
		if want := uint64(i + 1); b.epoch != want {
			t.Fatalf("batch %d carried epoch %d; want dense, strictly increasing epochs", i, b.epoch)
		}
		if len(b.events) == 0 {
			t.Fatalf("batch %d (epoch %d) delivered no events", i, b.epoch)
		}
	}
	if len(counted) != len(batches) {
		t.Fatalf("second subscriber ran %d times for %d batches", len(counted), len(batches))
	}
	// A callback runs after its own epoch was bumped, so the live epoch
	// read inside it is at least the batch it belongs to. It may be
	// later: a racing mutator bumps the epoch under d.mu before it waits
	// its turn at the turnstile, so the live counter can run ahead of the
	// batch being delivered (subscribers use the epoch they are handed,
	// not the live one).
	for i, b := range batches {
		if counted[i] != len(b.events) {
			t.Fatalf("epoch %d: subscribers saw %d and %d events", b.epoch, len(b.events), counted[i])
		}
		if liveEpochs[i] < b.epoch {
			t.Fatalf("callback for batch %d observed live epoch %d", b.epoch, liveEpochs[i])
		}
	}

	// Replaying the recorded batches onto a fresh set must land on the
	// recorded fingerprints — the property a journal's replay path
	// inherits from this contract.
	replica := NewSet(cube)
	for _, b := range batches {
		for _, e := range b.events {
			applyEventToSet(replica, e)
		}
		if got := replica.Fingerprint(); got != b.fp {
			t.Fatalf("replayed fingerprint %#x != recorded %#x at epoch %d", got, b.fp, b.epoch)
		}
	}
	if got, want := replica.Fingerprint(), d.Fingerprint(); got != want {
		t.Fatalf("final replayed fingerprint %#x != live %#x", got, want)
	}
}

// applyEventToSet mirrors Dynamic.apply for a bare Set.
func applyEventToSet(s *Set, e Event) {
	switch {
	case e.Op == OpInject && e.Fault.Kind == KindNode:
		s.AddNode(e.Fault.Node)
	case e.Op == OpInject:
		s.AddLink(e.Fault.Node, e.Fault.Dim)
	case e.Fault.Kind == KindNode:
		s.RemoveNode(e.Fault.Node)
	default:
		s.RemoveLink(e.Fault.Node, e.Fault.Dim)
	}
}
