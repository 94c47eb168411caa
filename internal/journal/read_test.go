package journal

import (
	"sync"
	"testing"

	"gaussiancube/internal/fault"
)

// TestReadSince: the suffix read returns exactly the batches above the
// requested epoch, in commit order, with events intact.
func TestReadSince(t *testing.T) {
	cube := testCube(t)
	dir := t.TempDir()
	batches, _ := makeBatches(cube, 40, 3)

	// A small segment size forces rotations so the suffix spans files.
	j, _, err := Open(cube, dir, Options{SegmentBytes: 512})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer j.Close()
	commitAll(t, j, batches)

	for _, after := range []uint64{0, 1, 17, 39, 40, 100} {
		got, ok, err := j.ReadSince(after)
		if err != nil || !ok {
			t.Fatalf("ReadSince(%d): ok=%v err=%v", after, ok, err)
		}
		var want []Batch
		for _, b := range batches {
			if b.Epoch > after {
				want = append(want, b)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("ReadSince(%d): %d batches, want %d", after, len(got), len(want))
		}
		for i := range want {
			if got[i].Epoch != want[i].Epoch || got[i].FP != want[i].FP ||
				len(got[i].Events) != len(want[i].Events) {
				t.Fatalf("ReadSince(%d) batch %d: %+v want %+v", after, i, got[i], want[i])
			}
			for k := range want[i].Events {
				if got[i].Events[k] != want[i].Events[k] {
					t.Fatalf("ReadSince(%d) batch %d event %d: %+v want %+v",
						after, i, k, got[i].Events[k], want[i].Events[k])
				}
			}
		}
	}
}

// TestReadSinceCompacted: once a checkpoint has folded history into
// state, a suffix request below the checkpoint epoch reports ok=false
// (snapshot fallback) while requests at or above it still serve.
func TestReadSinceCompacted(t *testing.T) {
	cube := testCube(t)
	dir := t.TempDir()
	batches, _ := makeBatches(cube, 30, 4)

	j, _, err := Open(cube, dir, Options{SnapshotEvery: 10, SegmentBytes: 256})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer j.Close()
	commitAll(t, j, batches)
	// The writer acknowledges a group before it checkpoints, so the
	// epoch-30 checkpoint may still be in flight when commitAll returns.
	// Close waits for the writer to finish it; the reads below then see
	// the journal's final files.
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if j.Checkpoints() == 0 {
		t.Fatal("test needs at least one checkpoint")
	}

	// The last checkpoint covers everything up to some epoch ≤ 30; a
	// request from epoch 0 must refuse.
	if _, ok, err := j.ReadSince(0); err != nil || ok {
		t.Fatalf("ReadSince(0) after compaction: ok=%v err=%v, want ok=false", ok, err)
	}
	// From the durable tail the suffix is empty but servable.
	got, ok, err := j.ReadSince(30)
	if err != nil || !ok || len(got) != 0 {
		t.Fatalf("ReadSince(30): %d batches ok=%v err=%v, want empty ok=true", len(got), ok, err)
	}
	// The checkpoint's exact epoch is the oldest servable horizon.
	ck, err := j.loadCheckpoint()
	if err != nil {
		t.Fatalf("loadCheckpoint: %v", err)
	}
	got, ok, err = j.ReadSince(ck.epoch)
	if err != nil || !ok {
		t.Fatalf("ReadSince(ckpt %d): ok=%v err=%v", ck.epoch, ok, err)
	}
	if want := 30 - int(ck.epoch); len(got) != want {
		t.Fatalf("ReadSince(ckpt %d): %d batches, want %d", ck.epoch, len(got), want)
	}
}

// TestReadSinceConcurrent: suffix reads racing a committing writer see
// only complete, correctly-ordered batches — never a torn record.
func TestReadSinceConcurrent(t *testing.T) {
	cube := testCube(t)
	dir := t.TempDir()
	batches, _ := makeBatches(cube, 200, 5)

	j, _, err := Open(cube, dir, Options{SegmentBytes: 1024})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer j.Close()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			got, ok, err := j.ReadSince(0)
			if err != nil {
				t.Errorf("concurrent ReadSince: %v", err)
				return
			}
			if !ok {
				continue
			}
			for i := range got {
				if got[i].Epoch != uint64(i+1) {
					t.Errorf("batch %d has epoch %d", i, got[i].Epoch)
					return
				}
			}
		}
	}()
	commitAll(t, j, batches)
	close(stop)
	wg.Wait()

	got, ok, err := j.ReadSince(0)
	if err != nil || !ok || len(got) != len(batches) {
		t.Fatalf("final ReadSince: %d batches ok=%v err=%v, want %d", len(got), ok, err, len(batches))
	}
	// Replaying the suffix onto an empty set lands on the final
	// fingerprint — the exact validation gossip appliers perform.
	set := fault.NewSet(cube)
	for _, b := range got {
		for _, e := range b.Events {
			switch {
			case e.Op == fault.OpInject && e.Fault.Kind == fault.KindNode:
				set.AddNode(e.Fault.Node)
			case e.Op == fault.OpInject:
				set.AddLink(e.Fault.Node, e.Fault.Dim)
			case e.Fault.Kind == fault.KindNode:
				set.RemoveNode(e.Fault.Node)
			default:
				set.RemoveLink(e.Fault.Node, e.Fault.Dim)
			}
		}
		if set.Fingerprint() != b.FP {
			t.Fatalf("fingerprint diverged at epoch %d", b.Epoch)
		}
	}
}
