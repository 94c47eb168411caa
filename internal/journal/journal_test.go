package journal

import (
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"gaussiancube/internal/fault"
	"gaussiancube/internal/gc"
)

// testCube is the cube every journal test shares.
func testCube(t testing.TB) *gc.Cube {
	t.Helper()
	return gc.New(8, 2)
}

// makeBatches builds n deterministic single-event batches (inject or
// repair, tracked so every batch is a real transition) against cube,
// returning the batches and the final expected set.
func makeBatches(cube *gc.Cube, n int, seed int64) ([]Batch, *fault.Set) {
	rng := rand.New(rand.NewSource(seed))
	set := fault.NewSet(cube)
	var out []Batch
	epoch := uint64(0)
	for len(out) < n {
		v := gc.NodeID(rng.Intn(cube.Nodes()))
		var e fault.Event
		if set.NodeFaulty(v) {
			e = fault.Event{Time: len(out), Op: fault.OpRepair, Fault: fault.Fault{Kind: fault.KindNode, Node: v}}
			set.RemoveNode(v)
		} else {
			e = fault.Event{Time: len(out), Op: fault.OpInject, Fault: fault.Fault{Kind: fault.KindNode, Node: v}}
			set.AddNode(v)
		}
		epoch++
		out = append(out, Batch{Epoch: epoch, FP: set.Fingerprint(), Events: []fault.Event{e}})
	}
	return out, set
}

// commitAll commits every batch, failing the test on error.
func commitAll(t *testing.T, j *Journal, batches []Batch) {
	t.Helper()
	for i := range batches {
		if err := j.Commit(batches[i]); err != nil {
			t.Fatalf("Commit(epoch %d): %v", batches[i].Epoch, err)
		}
	}
}

func TestRoundTrip(t *testing.T) {
	cube := testCube(t)
	dir := t.TempDir()
	batches, want := makeBatches(cube, 50, 1)

	j, st, err := Open(cube, dir, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if st.Epoch != 0 || st.Batches != 0 || st.Set.Count() != 0 {
		t.Fatalf("fresh journal state = %+v", st)
	}
	commitAll(t, j, batches)
	if got := j.Appends(); got != 50 {
		t.Errorf("Appends = %d, want 50", got)
	}
	if got := j.LastDurableEpoch(); got != 50 {
		t.Errorf("LastDurableEpoch = %d, want 50", got)
	}
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	j2, st2, err := Open(cube, dir, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer j2.Close()
	if st2.Truncated {
		t.Error("clean journal reported truncation")
	}
	if st2.Epoch != 50 || st2.Batches != 50 {
		t.Fatalf("replayed epoch %d batches %d, want 50/50", st2.Epoch, st2.Batches)
	}
	if got, w := st2.FP, want.Fingerprint(); got != w {
		t.Fatalf("replayed fingerprint %#x, want %#x", got, w)
	}
	if got, w := st2.Set.Fingerprint(), want.Fingerprint(); got != w {
		t.Fatalf("replayed set fingerprint %#x, want %#x", got, w)
	}
	// The reopened journal keeps accepting where it left off.
	more, _ := makeBatches(cube, 1, 99)
	next := more[0]
	next.Epoch = 51
	next.FP = func() uint64 {
		s := want.Clone()
		applyTestEvent(s, next.Events[0])
		return s.Fingerprint()
	}()
	if err := j2.Commit(next); err != nil {
		t.Fatalf("Commit after reopen: %v", err)
	}
}

// applyTestEvent mirrors Journal.applyEvent for expectations.
func applyTestEvent(s *fault.Set, e fault.Event) {
	switch {
	case e.Op == fault.OpInject && e.Fault.Kind == fault.KindNode:
		s.AddNode(e.Fault.Node)
	case e.Op == fault.OpInject:
		s.AddLink(e.Fault.Node, e.Fault.Dim)
	case e.Fault.Kind == fault.KindNode:
		s.RemoveNode(e.Fault.Node)
	default:
		s.RemoveLink(e.Fault.Node, e.Fault.Dim)
	}
}

func TestGroupCommitConcurrent(t *testing.T) {
	cube := testCube(t)
	dir := t.TempDir()
	j, _, err := Open(cube, dir, Options{SyncInterval: 2 * time.Millisecond})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	// Concurrent committers must serialize through the epoch check, so
	// drive them through a Dynamic, which owns epoch assignment.
	d := fault.NewDynamic(cube, nil)
	j.AttachDynamic(d)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 32; i++ {
				v := gc.NodeID(rng.Intn(cube.Nodes()))
				if rng.Intn(2) == 0 {
					d.Inject(fault.Fault{Kind: fault.KindNode, Node: v}, false)
				} else {
					d.Repair(fault.Fault{Kind: fault.KindNode, Node: v})
				}
			}
		}(g)
	}
	wg.Wait()
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if j.Dropped() != 0 {
		t.Fatalf("journal dropped %d batches", j.Dropped())
	}
	if j.Fsyncs() >= j.Appends() {
		t.Logf("group commit gave no amortization (%d fsyncs / %d appends) — legal but unexpected under concurrency", j.Fsyncs(), j.Appends())
	}

	_, st, err := Open(cube, dir, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if st.Epoch != d.Epoch() || st.FP != d.Fingerprint() {
		t.Fatalf("replayed (epoch %d, fp %#x) != live (%d, %#x)", st.Epoch, st.FP, d.Epoch(), d.Fingerprint())
	}
}

func TestSegmentRotationAndReplay(t *testing.T) {
	cube := testCube(t)
	dir := t.TempDir()
	j, _, err := Open(cube, dir, Options{SegmentBytes: 256})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	batches, want := makeBatches(cube, 64, 2)
	commitAll(t, j, batches)
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	names, _ := OSFS{}.List(dir)
	if len(names) < 3 {
		t.Fatalf("expected several segments with 256-byte rotation, got %v", names)
	}
	_, st, err := Open(cube, dir, Options{})
	if err != nil {
		t.Fatalf("reopen across segments: %v", err)
	}
	if st.Epoch != 64 || st.FP != want.Fingerprint() {
		t.Fatalf("replayed (epoch %d, fp %#x), want (64, %#x)", st.Epoch, st.FP, want.Fingerprint())
	}
}

func TestCheckpointCompaction(t *testing.T) {
	cube := testCube(t)
	dir := t.TempDir()
	j, _, err := Open(cube, dir, Options{SegmentBytes: 256, SnapshotEvery: 16})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	batches, want := makeBatches(cube, 64, 3)
	commitAll(t, j, batches)
	if j.Checkpoints() == 0 {
		t.Fatal("no checkpoints published")
	}
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	names, _ := OSFS{}.List(dir)
	segs := 0
	sawCkpt := false
	for _, n := range names {
		if _, ok := parseSegName(n); ok {
			segs++
		}
		if n == ckptName {
			sawCkpt = true
		}
	}
	if !sawCkpt {
		t.Fatalf("no checkpoint file in %v", names)
	}
	if segs > 2 {
		t.Fatalf("compaction left %d segments: %v", segs, names)
	}
	_, st, err := Open(cube, dir, Options{})
	if err != nil {
		t.Fatalf("reopen from checkpoint: %v", err)
	}
	if st.Epoch != 64 || st.FP != want.Fingerprint() {
		t.Fatalf("replayed (epoch %d, fp %#x), want (64, %#x)", st.Epoch, st.FP, want.Fingerprint())
	}
	if st.Set.Fingerprint() != want.Fingerprint() {
		t.Fatal("checkpointed set does not reproduce the live fingerprint")
	}
}

// lastSegment returns the live (highest-seq) segment's path.
func lastSegment(t *testing.T, dir string) string {
	t.Helper()
	names, err := OSFS{}.List(dir)
	if err != nil {
		t.Fatal(err)
	}
	last := ""
	for _, n := range names {
		if _, ok := parseSegName(n); ok {
			last = n
		}
	}
	if last == "" {
		t.Fatal("no segments")
	}
	return filepath.Join(dir, last)
}

func TestTornTailTruncated(t *testing.T) {
	cube := testCube(t)
	for _, cut := range []int{1, 5, recHeaderSize - 1, recHeaderSize, recHeaderSize + 3} {
		t.Run(fmt.Sprintf("cut%d", cut), func(t *testing.T) {
			dir := t.TempDir()
			j, _, err := Open(cube, dir, Options{})
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			batches, _ := makeBatches(cube, 10, 4)
			commitAll(t, j, batches)
			j.Close()

			// Tear the tail: chop `cut` bytes off the last record.
			path := lastSegment(t, dir)
			fsys := OSFS{}
			f, err := fsys.OpenAppend(path)
			if err != nil {
				t.Fatal(err)
			}
			size, _ := f.Seek(0, 2)
			if err := f.Truncate(size - int64(cut)); err != nil {
				t.Fatal(err)
			}
			f.Close()

			_, st, err := Open(cube, dir, Options{})
			if err != nil {
				t.Fatalf("reopen with torn tail: %v", err)
			}
			if !st.Truncated {
				t.Error("torn tail not reported truncated")
			}
			if st.Epoch != 9 || st.Batches != 9 {
				t.Fatalf("replayed epoch %d batches %d after torn tail, want 9/9", st.Epoch, st.Batches)
			}
			wantSet := fault.NewSet(cube)
			for _, b := range batches[:9] {
				for _, e := range b.Events {
					applyTestEvent(wantSet, e)
				}
			}
			if st.FP != wantSet.Fingerprint() {
				t.Fatalf("fingerprint %#x after truncation, want %#x", st.FP, wantSet.Fingerprint())
			}
		})
	}
}

func TestTornGarbageTailTruncated(t *testing.T) {
	// A tail of garbage bytes (a torn write of the length prefix
	// itself) must also be dropped silently.
	cube := testCube(t)
	dir := t.TempDir()
	j, _, err := Open(cube, dir, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	batches, _ := makeBatches(cube, 5, 5)
	commitAll(t, j, batches)
	j.Close()

	path := lastSegment(t, dir)
	f, err := OSFS{}.OpenAppend(path)
	if err != nil {
		t.Fatal(err)
	}
	f.Seek(0, 2)
	f.Write([]byte{0xde, 0xad, 0xbe, 0xef, 0x01})
	f.Close()

	_, st, err := Open(cube, dir, Options{})
	if err != nil {
		t.Fatalf("reopen with garbage tail: %v", err)
	}
	if !st.Truncated || st.Epoch != 5 {
		t.Fatalf("Truncated=%v epoch=%d, want true/5", st.Truncated, st.Epoch)
	}
}

// TestTornCRCTailTruncated: a last record whose length fits but whose
// payload fails its CRC, with no valid record after it, is a torn
// write, dropped silently like a short one.
func TestTornCRCTailTruncated(t *testing.T) {
	cube := testCube(t)
	dir := t.TempDir()
	j, _, err := Open(cube, dir, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	batches, _ := makeBatches(cube, 5, 5)
	commitAll(t, j, batches)
	j.Close()

	path := lastSegment(t, dir)
	f, err := OSFS{}.OpenAppend(path)
	if err != nil {
		t.Fatal(err)
	}
	size, _ := f.Seek(0, 2)
	b := []byte{0}
	f.Seek(size-1, 0)
	f.Read(b)
	b[0] ^= 0xff
	f.Seek(size-1, 0)
	f.Write(b)
	f.Close()

	_, st, err := Open(cube, dir, Options{})
	if err != nil {
		t.Fatalf("reopen with a CRC-torn tail: %v", err)
	}
	if !st.Truncated || st.Epoch != 4 || st.Batches != 4 {
		t.Fatalf("Truncated=%v epoch=%d batches=%d, want true/4/4", st.Truncated, st.Epoch, st.Batches)
	}
}

func TestMidStreamCorruptionRefused(t *testing.T) {
	cube := testCube(t)

	corrupt := func(t *testing.T, mutate func(dir string)) *CorruptError {
		t.Helper()
		dir := t.TempDir()
		j, _, err := Open(cube, dir, Options{})
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		batches, _ := makeBatches(cube, 10, 6)
		commitAll(t, j, batches)
		j.Close()
		mutate(dir)
		_, _, err = Open(cube, dir, Options{})
		if err == nil {
			t.Fatal("corrupted journal opened cleanly")
		}
		var ce *CorruptError
		if !errors.As(err, &ce) {
			t.Fatalf("error %v is not a *CorruptError", err)
		}
		return ce
	}

	flipByte := func(path string, off int64) {
		f, err := OSFS{}.OpenAppend(path)
		if err != nil {
			panic(err)
		}
		defer f.Close()
		b := make([]byte, 1)
		f.Seek(off, 0)
		f.Read(b)
		b[0] ^= 0xff
		f.Seek(off, 0)
		f.Write(b)
	}

	t.Run("payload bit rot mid-stream", func(t *testing.T) {
		var seg string
		ce := corrupt(t, func(dir string) {
			seg = lastSegment(t, dir)
			// Offset inside the first record's payload: header + record
			// header + 1. Valid records follow, so this cannot be a torn
			// tail.
			flipByte(seg, segHeaderSize+recHeaderSize+1)
		})
		if ce.Segment != filepath.Base(seg) {
			t.Errorf("error names segment %q, want %q", ce.Segment, filepath.Base(seg))
		}
		if ce.Offset != segHeaderSize {
			t.Errorf("error offset %d, want %d (start of the damaged record)", ce.Offset, segHeaderSize)
		}
	})

	t.Run("chain field rewritten", func(t *testing.T) {
		ce := corrupt(t, func(dir string) {
			// Flip a bit in the chain hash of the second record: CRC still
			// passes (it covers only the payload), so only the chain check
			// can catch it.
			seg := lastSegment(t, dir)
			data := readFile(t, seg)
			off := int64(segHeaderSize)
			plen := int64(le32(data[off:]))
			second := off + recHeaderSize + plen
			flipByte(seg, second+8)
		})
		if ce.Reason != "hash chain broken" {
			t.Errorf("reason %q, want hash chain broken", ce.Reason)
		}
	})

	t.Run("record deleted mid-stream", func(t *testing.T) {
		ce := corrupt(t, func(dir string) {
			// Splice out the first record: every later record is intact but
			// the chain no longer continues from the segment header.
			seg := lastSegment(t, dir)
			data := readFile(t, seg)
			off := int64(segHeaderSize)
			plen := int64(le32(data[off:]))
			spliced := append([]byte(nil), data[:off]...)
			spliced = append(spliced, data[off+recHeaderSize+plen:]...)
			writeFile(t, seg, spliced)
		})
		if ce.Reason != "hash chain broken" {
			t.Errorf("reason %q, want hash chain broken", ce.Reason)
		}
	})

	t.Run("checkpoint bit rot", func(t *testing.T) {
		dir := t.TempDir()
		j, _, err := Open(cube, dir, Options{SnapshotEvery: 4})
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		batches, _ := makeBatches(cube, 8, 7)
		commitAll(t, j, batches)
		j.Close()
		flipByte(filepath.Join(dir, ckptName), 20)
		_, _, err = Open(cube, dir, Options{})
		var ce *CorruptError
		if !errors.As(err, &ce) || ce.Segment != ckptName {
			t.Fatalf("corrupted checkpoint gave %v", err)
		}
	})
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	f, err := OSFS{}.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var out []byte
	buf := make([]byte, 4096)
	for {
		n, err := f.Read(buf)
		out = append(out, buf[:n]...)
		if err != nil {
			return out
		}
	}
}

func writeFile(t *testing.T, path string, data []byte) {
	t.Helper()
	f, err := OSFS{}.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Write(data); err != nil {
		t.Fatal(err)
	}
}

func le32(p []byte) uint32 {
	return uint32(p[0]) | uint32(p[1])<<8 | uint32(p[2])<<16 | uint32(p[3])<<24
}

func TestFailpointSyncFailureSticky(t *testing.T) {
	cube := testCube(t)
	fs := NewFailpointFS()
	j, _, err := Open(cube, "j", Options{FS: fs})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	batches, _ := makeBatches(cube, 4, 8)
	commitAll(t, j, batches[:2])
	fs.FailSyncsAfter(1)
	if err := j.Commit(batches[2]); !errors.Is(err, ErrInjected) {
		t.Fatalf("Commit with failing fsync = %v, want injected error", err)
	}
	// The journal is sticky-failed: later commits refuse immediately.
	if err := j.Commit(batches[3]); !errors.Is(err, ErrInjected) {
		t.Fatalf("Commit after sticky failure = %v, want injected error", err)
	}
	if err := j.Close(); !errors.Is(err, ErrInjected) {
		t.Fatalf("Close = %v, want sticky error", err)
	}
}

func TestFailpointShortWrite(t *testing.T) {
	cube := testCube(t)
	fs := NewFailpointFS()
	j, _, err := Open(cube, "j", Options{FS: fs})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	batches, _ := makeBatches(cube, 3, 9)
	commitAll(t, j, batches[:1])
	fs.ShortWriteOnce()
	if err := j.Commit(batches[1]); !errors.Is(err, ErrInjected) {
		t.Fatalf("Commit with short write = %v", err)
	}
	j.Close()
	fs.Revive()

	// The half-written record is a torn tail: truncated, state = batch 1.
	_, st, err := Open(cube, "j", Options{FS: fs})
	if err != nil {
		t.Fatalf("reopen after short write: %v", err)
	}
	if st.Epoch != 1 {
		t.Fatalf("epoch %d after short write, want 1", st.Epoch)
	}
	if !st.Truncated {
		t.Error("short write not reported as truncation")
	}
}

func TestFailpointKillDurability(t *testing.T) {
	// The core durability claim: for ANY torn-tail length, a kill after
	// Commit acked replays to a state containing that commit.
	cube := testCube(t)
	for torn := 0; torn < 24; torn += 7 {
		t.Run(fmt.Sprintf("torn%d", torn), func(t *testing.T) {
			fs := NewFailpointFS()
			j, _, err := Open(cube, "j", Options{FS: fs})
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			batches, want := makeBatches(cube, 12, int64(100+torn))
			commitAll(t, j, batches)
			// Unacked write in flight: enqueue one more batch directly so
			// the kill can race it; its survival is legal either way.
			fs.Kill(torn)
			j.Close()
			fs.Revive()

			_, st, err := Open(cube, "j", Options{FS: fs})
			if err != nil {
				t.Fatalf("reopen after kill(torn=%d): %v", torn, err)
			}
			if st.Epoch != 12 || st.FP != want.Fingerprint() {
				t.Fatalf("replay after kill lost acked commits: epoch %d fp %#x, want 12/%#x",
					st.Epoch, st.FP, want.Fingerprint())
			}
		})
	}
}

func TestFailpointKillDropsUnsynced(t *testing.T) {
	// With group commit the window holds unsynced bytes; a kill before
	// the fsync must drop them (they were never acked) and replay to
	// the last durable epoch.
	cube := testCube(t)
	fs := NewFailpointFS()
	j, _, err := Open(cube, "j", Options{FS: fs})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	batches, _ := makeBatches(cube, 6, 11)
	commitAll(t, j, batches[:5])
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Reopen with an hour-long group window: the sixth commit sits in
	// the open group, unwritten and unsynced, when the kill lands.
	j2, _, err := Open(cube, "j", Options{FS: fs, SyncInterval: time.Hour})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	done := make(chan error, 1)
	go func() { done <- j2.Commit(batches[5]) }()
	for j2.LagEvents() == 0 {
		time.Sleep(time.Millisecond)
	}
	fs.Kill(3)
	j2.Close() // closes the group window; the write then fails
	if err := <-done; err == nil {
		t.Fatal("Commit acked despite killed fsync")
	}
	fs.Revive()

	wantSet := fault.NewSet(cube)
	for _, b := range batches[:5] {
		for _, e := range b.Events {
			applyTestEvent(wantSet, e)
		}
	}
	_, st, err := Open(cube, "j", Options{FS: fs})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if st.Epoch != 5 || st.FP != wantSet.Fingerprint() {
		t.Fatalf("replayed epoch %d fp %#x, want 5/%#x", st.Epoch, st.FP, wantSet.Fingerprint())
	}
}

func TestAttachDynamicReplaysExactly(t *testing.T) {
	cube := testCube(t)
	dir := t.TempDir()
	j, _, err := Open(cube, dir, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	d := fault.NewDynamic(cube, nil)
	j.AttachDynamic(d)
	rng := rand.New(rand.NewSource(12))
	for i := 0; i < 100; i++ {
		v := gc.NodeID(rng.Intn(cube.Nodes()))
		if rng.Intn(3) == 0 {
			d.Repair(fault.Fault{Kind: fault.KindNode, Node: v})
		} else {
			d.Inject(fault.Fault{Kind: fault.KindNode, Node: v}, false)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if j.Dropped() != 0 {
		t.Fatalf("dropped %d batches", j.Dropped())
	}
	_, st, err := Open(cube, dir, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if st.Epoch != d.Epoch() || st.FP != d.Fingerprint() {
		t.Fatalf("replayed (%d, %#x) != live dynamic (%d, %#x)", st.Epoch, st.FP, d.Epoch(), d.Fingerprint())
	}
}

func TestDiffEvents(t *testing.T) {
	cube := testCube(t)
	old := fault.NewSet(cube)
	old.AddNode(3)
	old.AddLink(4, cube.LinkDims(4)[0])
	new := old.Clone()
	new.RemoveNode(3)
	new.AddNode(7)
	new.AddLink(8, cube.LinkDims(8)[0])

	evs := DiffEvents(old, new, 42)
	if len(evs) != 3 {
		t.Fatalf("DiffEvents returned %d events: %v", len(evs), evs)
	}
	replay := old.Clone()
	for _, e := range evs {
		if e.Time != 42 {
			t.Errorf("event time %d, want 42", e.Time)
		}
		applyTestEvent(replay, e)
	}
	if replay.Fingerprint() != new.Fingerprint() {
		t.Fatal("DiffEvents does not transform old into new")
	}
	// Determinism: two computations agree element-wise.
	evs2 := DiffEvents(old, new, 42)
	for i := range evs {
		if evs[i] != evs2[i] {
			t.Fatalf("DiffEvents not deterministic: %v vs %v", evs[i], evs2[i])
		}
	}
}

func TestCommitRefusesEpochRegression(t *testing.T) {
	cube := testCube(t)
	j, _, err := Open(cube, "j", Options{FS: NewFailpointFS()})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer j.Close()
	b := Batch{Epoch: 1, FP: func() uint64 {
		s := fault.NewSet(cube)
		s.AddNode(1)
		return s.Fingerprint()
	}(), Events: []fault.Event{{Op: fault.OpInject, Fault: fault.Fault{Kind: fault.KindNode, Node: 1}}}}
	if err := j.Commit(b); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	if err := j.Commit(b); err == nil {
		t.Fatal("replayed epoch accepted twice")
	}
}
