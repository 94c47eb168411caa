package fault

import (
	"math/rand"
	"sync"
	"testing"

	"gaussiancube/internal/gc"
)

// TestSubscriberEpochOrderUnderConcurrentMutation pins the ordering
// contract documented on SubscribeEvents/SubscribeBatch: callbacks are
// serialized in strictly increasing, dense epoch order even when many
// goroutines mutate the Dynamic concurrently. A durable journal writer
// records exactly what these callbacks deliver, so any interleaving or
// reordering here would persist a history that replays to the wrong
// state. Run under -race: the subscriber appends to plain slices
// without its own locking, so the test also proves the turnstile
// provides the happens-before edges the contract promises.
func TestSubscriberEpochOrderUnderConcurrentMutation(t *testing.T) {
	cube := gc.New(8, 2)
	d := NewDynamic(cube, nil)

	type batchRec struct {
		epoch  uint64
		fp     uint64
		events []Event
	}
	var (
		batches     []batchRec
		eventEpochs []uint64 // live epoch when each event callback ran
		epochSeen   []uint64 // epoch-subscriber arrivals
		pending     []Event  // events since the last batch callback
	)
	d.SubscribeEvents(func(e Event) {
		pending = append(pending, e)
		eventEpochs = append(eventEpochs, d.Epoch())
	})
	d.SubscribeBatch(func(epoch, fp uint64, events []Event) {
		batches = append(batches, batchRec{epoch: epoch, fp: fp, events: append([]Event(nil), events...)})
		if len(pending) != len(events) {
			t.Errorf("batch %d delivered %d events but %d per-event callbacks ran since the last batch",
				epoch, len(events), len(pending))
		}
		pending = pending[:0]
	})
	d.Subscribe(func(epoch uint64) { epochSeen = append(epochSeen, epoch) })

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
	for i, e := range epochSeen {
		if want := uint64(i + 1); e != want {
			t.Fatalf("epoch subscriber saw %d at position %d; want %d", e, i, want)
		}
	}
	// An event callback runs after its own epoch was bumped, so the live
	// epoch read inside it is at least the batch it belongs to. It may be
	// later: a racing mutator bumps the epoch under d.mu before it waits
	// its turn at the turnstile, so the live counter can run ahead of the
	// batch being delivered (subscribers use the epoch they are handed,
	// not the live one). The pending-count check in the batch callback
	// ties each event to its batch.
	idx := 0
	for _, b := range batches {
		for range b.events {
			if eventEpochs[idx] < b.epoch {
				t.Fatalf("event callback %d observed epoch %d inside batch %d", idx, eventEpochs[idx], b.epoch)
			}
			idx++
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
