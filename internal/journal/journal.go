// Package journal is the durable fault journal: an append-only,
// group-committed, CRC-checksummed and hash-chained log of fault.Event
// batches, with segment rotation, snapshot-based compaction and a
// replay path that tolerates torn tails while refusing mid-stream
// corruption (DESIGN.md §12).
//
// The serving layer commits every fault mutation through a Journal
// before acknowledging it, so a restarted gcserved replays to the
// exact (fault set, epoch, fingerprint) triple it crashed with instead
// of waking up believing the cube is pristine. A fault.Dynamic can
// likewise be attached (AttachDynamic), persisting a simulation's
// event timeline as it unfolds.
//
// # Durability discipline
//
// Commit blocks until its batch is fsynced. With SyncInterval zero the
// writer fsyncs every commit; with a positive interval it holds a
// group open for up to that long, writes everyone's records, and
// retires the whole group with one fsync — the group-commit trade of
// bounded extra latency for an order-of-magnitude fewer fsyncs under
// concurrent load. Either way nothing is acknowledged before it is
// durable, and the writer goes sticky-failed on the first I/O error:
// a journal that cannot persist refuses further commits rather than
// silently forking history.
//
// # Recovery discipline
//
// Replay verifies every record's CRC and its position in the hash
// chain. A torn tail — a final record cut short by a crash mid-write —
// is silently truncated: it was never acknowledged, so it never
// happened. Anything else (a broken chain, a corrupted record with
// valid records after it, damage in a non-final segment) fails Open
// with a *CorruptError locating the damage; recovering from real
// corruption is an operator decision, not something to guess at.
package journal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"gaussiancube/internal/fault"
	"gaussiancube/internal/gc"
)

// ErrClosed is returned by Commit after Close.
var ErrClosed = errors.New("journal: closed")

// Options tunes a Journal. Zero values pick the documented defaults.
type Options struct {
	// FS is the storage backend (default OSFS). Tests inject a
	// FailpointFS here.
	FS FS
	// SyncInterval is the group-commit window: 0 fsyncs every commit;
	// a positive interval batches all commits arriving within it into
	// one fsync (each Commit still blocks until its group is durable).
	SyncInterval time.Duration
	// SegmentBytes rotates to a fresh segment once the live one exceeds
	// this size (default 4 MiB).
	SegmentBytes int64
	// SnapshotEvery writes a checkpoint (the frozen fault-set state plus
	// epoch/fingerprint) and deletes fully-covered segments after this
	// many committed batches (0 = never compact).
	SnapshotEvery uint64
	// QueueDepth bounds the commit queue (default 256). A full queue
	// blocks committers — backpressure, never loss.
	QueueDepth int
}

func (o *Options) fill() {
	if o.FS == nil {
		o.FS = OSFS{}
	}
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 4 << 20
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 256
	}
}

// State is the outcome of replay: the reconstructed fault state and
// where the journal left off.
type State struct {
	// Set is the replayed fault set, frozen.
	Set *fault.Set
	// Epoch and FP are the last committed batch's stamps (zero when the
	// journal is empty).
	Epoch uint64
	FP    uint64
	// Batches is the number of batches replayed (checkpoint excluded).
	Batches uint64
	// Truncated reports that a torn final record was dropped.
	Truncated bool
}

// commitReq is one queued batch; done is nil for fire-and-forget
// appends (AttachDynamic).
type commitReq struct {
	b    Batch
	done chan error
}

// Journal is an open fault journal: replayed, positioned at its tail,
// and accepting appends. Construct with Open; it is safe for
// concurrent Commit calls.
type Journal struct {
	fs   FS
	dir  string
	opts Options
	cube *gc.Cube

	mu     sync.Mutex
	closed bool
	err    error // sticky writer failure

	reqs chan *commitReq
	done chan struct{} // writer exited

	// Writer-goroutine-owned state.
	seg       File
	segName   string
	segSeq    uint64
	segSize   int64
	chain     uint64
	replica   *fault.Set
	epoch     uint64
	fp        uint64
	now       int64
	batches   uint64
	sinceCkpt uint64
	wbuf      []byte
	pbuf      []byte

	appends     atomic.Int64
	fsyncs      atomic.Int64
	checkpoints atomic.Int64
	lagEvents   atomic.Int64
	dropped     atomic.Int64
	lastDurable atomic.Uint64
}

const (
	ckptName    = "checkpoint.journal"
	ckptTmpName = "checkpoint.journal.tmp"
)

// segFileName formats a segment file name; seq order is name order.
func segFileName(seq uint64) string { return fmt.Sprintf("seg-%016x.journal", seq) }

// parseSegName extracts the sequence number of a segment file name.
func parseSegName(name string) (uint64, bool) {
	var seq uint64
	if _, err := fmt.Sscanf(name, "seg-%016x.journal", &seq); err != nil {
		return 0, false
	}
	return seq, true
}

// Open replays the journal in dir (creating it when absent), repairs a
// torn tail, positions the writer at the end, and returns the
// reconstructed state. Mid-stream corruption fails with *CorruptError.
func Open(cube *gc.Cube, dir string, opts Options) (*Journal, *State, error) {
	opts.fill()
	j := &Journal{
		fs:      opts.FS,
		dir:     dir,
		opts:    opts,
		cube:    cube,
		replica: fault.NewSet(cube),
		reqs:    make(chan *commitReq, opts.QueueDepth),
		done:    make(chan struct{}),
	}
	if err := j.fs.MkdirAll(dir); err != nil {
		return nil, nil, fmt.Errorf("journal: mkdir %s: %w", dir, err)
	}
	st, err := j.recover()
	if err != nil {
		return nil, nil, err
	}
	go j.run()
	return j, st, nil
}

// recover loads the checkpoint, replays the segments, truncates a torn
// tail and opens the live segment for appends.
func (j *Journal) recover() (*State, error) {
	names, err := j.fs.List(j.dir)
	if err != nil {
		return nil, fmt.Errorf("journal: list %s: %w", j.dir, err)
	}
	startSeq := uint64(1)
	haveCkpt := false
	for _, n := range names {
		if n == ckptName {
			haveCkpt = true
		}
	}
	if haveCkpt {
		ck, err := j.loadCheckpoint()
		if err != nil {
			return nil, err
		}
		j.replica = ck.set
		j.epoch, j.fp, j.chain, j.now = ck.epoch, ck.fp, ck.chain, ck.time
		startSeq = ck.nextSeq
	}
	// A leftover checkpoint.journal.tmp is a checkpoint that never
	// published; the rename never happened, so it is dead weight.
	for _, n := range names {
		if n == ckptTmpName {
			_ = j.fs.Remove(filepath.Join(j.dir, ckptTmpName))
		}
	}

	var seqs []uint64
	for _, n := range names {
		if seq, ok := parseSegName(n); ok {
			seqs = append(seqs, seq)
		}
	}
	sort.Slice(seqs, func(i, k int) bool { return seqs[i] < seqs[k] })
	// Segments below the checkpoint cursor are fully covered by it —
	// leftovers of a compaction interrupted mid-delete.
	live := seqs[:0]
	for _, s := range seqs {
		if s < startSeq {
			_ = j.fs.Remove(filepath.Join(j.dir, segFileName(s)))
			continue
		}
		live = append(live, s)
	}
	seqs = live
	if !haveCkpt && len(seqs) > 0 {
		startSeq = seqs[0]
		if j.chain == 0 {
			// A journal that was never checkpointed starts its chain at the
			// first segment's recorded previous-chain value, which is zero
			// by construction; nothing to adjust.
			_ = startSeq
		}
	}

	st := &State{}
	for i, seq := range seqs {
		if seq != startSeq+uint64(i) {
			return nil, &CorruptError{
				Segment: segFileName(startSeq + uint64(i)),
				Reason:  fmt.Sprintf("segment missing (found %s instead)", segFileName(seq)),
			}
		}
	}
	for i, seq := range seqs {
		final := i == len(seqs)-1
		if err := j.replaySegment(seq, final, st); err != nil {
			return nil, err
		}
	}
	if len(seqs) == 0 {
		if err := j.createSegment(startSeq); err != nil {
			return nil, err
		}
	}
	st.Set = j.replica.Clone().Freeze()
	st.Epoch, st.FP, st.Batches = j.epoch, j.fp, j.batches
	return st, nil
}

// loadCheckpoint reads and verifies checkpoint.journal.
func (j *Journal) loadCheckpoint() (*checkpoint, error) {
	f, err := j.fs.Open(filepath.Join(j.dir, ckptName))
	if err != nil {
		return nil, fmt.Errorf("journal: open checkpoint: %w", err)
	}
	defer f.Close()
	data, err := io.ReadAll(f)
	if err != nil {
		return nil, fmt.Errorf("journal: read checkpoint: %w", err)
	}
	ck, err := decodeCheckpoint(data, j.cube)
	if err != nil {
		return nil, &CorruptError{Segment: ckptName, Reason: err.Error()}
	}
	return ck, nil
}

// replaySegment replays one segment. For the final segment a torn tail
// is repaired (truncate at the last valid record) and the file is left
// open for appends; for earlier segments any anomaly is corruption.
func (j *Journal) replaySegment(seq uint64, final bool, st *State) error {
	name := segFileName(seq)
	path := filepath.Join(j.dir, name)
	f, err := j.fs.Open(path)
	if err != nil {
		return fmt.Errorf("journal: open %s: %w", name, err)
	}
	data, err := io.ReadAll(f)
	f.Close()
	if err != nil {
		return fmt.Errorf("journal: read %s: %w", name, err)
	}

	if len(data) < segHeaderSize {
		if !final {
			return &CorruptError{Segment: name, Offset: 0, Reason: "segment header cut short"}
		}
		// A crash during segment creation tore the header itself; no
		// record can follow a torn header, so the segment is empty.
		st.Truncated = st.Truncated || len(data) > 0
		return j.recreateSegment(seq)
	}
	if err := checkSegMagic(data, name); err != nil {
		return err
	}
	if got := binary.LittleEndian.Uint64(data[8:16]); got != seq {
		return &CorruptError{Segment: name, Offset: 8, Reason: fmt.Sprintf("header seq %d in segment %d", got, seq)}
	}
	if got := binary.LittleEndian.Uint64(data[16:24]); got != j.chain {
		return &CorruptError{Segment: name, Offset: 16,
			Reason: fmt.Sprintf("chain seed %#x does not continue %#x", got, j.chain)}
	}

	validEnd, err := j.replayRecords(data, name, final, st)
	if err != nil {
		return err
	}
	if !final {
		return nil
	}
	// Reopen the live segment for appends, dropping the torn tail.
	lf, err := j.fs.OpenAppend(path)
	if err != nil {
		return fmt.Errorf("journal: reopen %s: %w", name, err)
	}
	if validEnd < int64(len(data)) {
		st.Truncated = true
		if err := lf.Truncate(validEnd); err != nil {
			lf.Close()
			return fmt.Errorf("journal: truncate torn tail of %s: %w", name, err)
		}
	}
	if _, err := lf.Seek(validEnd, io.SeekStart); err != nil {
		lf.Close()
		return fmt.Errorf("journal: seek %s: %w", name, err)
	}
	j.seg, j.segName, j.segSeq, j.segSize = lf, name, seq, validEnd
	return nil
}

// replayRecords walks a segment's records, applying each batch. It
// returns the offset after the last valid record; in the final segment
// a torn tail stops the walk there, while mid-stream damage is a hard
// error.
func (j *Journal) replayRecords(data []byte, name string, final bool, st *State) (int64, error) {
	off := segHeaderSize
	var batch Batch
	for off < len(data) {
		payload, chainv, end, bad := nextRecord(data, off)
		if bad != "" {
			if bad == badCRC {
				// A bad CRC at the very tail is a torn write; a bad CRC with
				// a valid record after it means the stream was damaged in
				// place.
				if _, _, _, after := nextRecord(data, end); !final || after == "" {
					return 0, &CorruptError{Segment: name, Offset: int64(off), Reason: badCRC + " mid-stream"}
				}
			}
			if final {
				return int64(off), nil
			}
			return 0, &CorruptError{Segment: name, Offset: int64(off), Reason: bad + " in a non-final segment"}
		}
		next := chainNext(j.chain, payload)
		if next != chainv {
			// The record is intact (CRC passed) but does not belong at this
			// position: the chain was broken by a rewrite, drop or splice.
			// Never repaired silently — history integrity is the product.
			return 0, &CorruptError{Segment: name, Offset: int64(off), Reason: "hash chain broken"}
		}
		if err := decodeBatch(payload, &batch); err != nil {
			return 0, &CorruptError{Segment: name, Offset: int64(off), Reason: err.Error()}
		}
		if err := j.applyBatch(&batch); err != nil {
			return 0, &CorruptError{Segment: name, Offset: int64(off), Reason: err.Error()}
		}
		j.chain = next
		off = end
	}
	return int64(off), nil
}

// applyBatch replays one batch onto the replica, enforcing epoch
// monotonicity and fingerprint agreement.
func (j *Journal) applyBatch(b *Batch) error {
	if b.Epoch <= j.epoch && !(j.batches == 0 && b.Epoch == 0 && j.epoch == 0) {
		return fmt.Errorf("epoch %d does not advance %d", b.Epoch, j.epoch)
	}
	for _, e := range b.Events {
		if err := j.applyEvent(e); err != nil {
			return err
		}
		if int64(e.Time) > j.now {
			j.now = int64(e.Time)
		}
	}
	if got := j.replica.Fingerprint(); got != b.FP {
		return fmt.Errorf("state fingerprint %#x diverges from recorded %#x at epoch %d", got, b.FP, b.Epoch)
	}
	j.epoch, j.fp = b.Epoch, b.FP
	j.batches++
	return nil
}

// applyEvent mutates the replica per one event, validating against the
// cube. Redundant transitions (injecting an already-faulty component)
// are tolerated: the journal records what subscribers delivered, and
// idempotent application keeps replay total.
func (j *Journal) applyEvent(e fault.Event) error {
	f := e.Fault
	if int(f.Node) >= j.cube.Nodes() {
		return fmt.Errorf("event node %d out of range", f.Node)
	}
	if f.Kind == fault.KindLink && !j.cube.HasLinkDim(f.Node, f.Dim) {
		return fmt.Errorf("event link (%d,%d) not in cube", f.Node, f.Dim)
	}
	switch {
	case e.Op == fault.OpInject && f.Kind == fault.KindNode:
		j.replica.AddNode(f.Node)
	case e.Op == fault.OpInject:
		j.replica.AddLink(f.Node, f.Dim)
	case f.Kind == fault.KindNode:
		j.replica.RemoveNode(f.Node)
	default:
		j.replica.RemoveLink(f.Node, f.Dim)
	}
	return nil
}

// createSegment starts segment seq with a synced header.
func (j *Journal) createSegment(seq uint64) error {
	name := segFileName(seq)
	f, err := j.fs.Create(filepath.Join(j.dir, name))
	if err != nil {
		return fmt.Errorf("journal: create %s: %w", name, err)
	}
	hdr := appendSegHeader(nil, seq, j.chain)
	if _, err := f.Write(hdr); err != nil {
		f.Close()
		return fmt.Errorf("journal: write %s header: %w", name, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("journal: sync %s header: %w", name, err)
	}
	j.seg, j.segName, j.segSeq, j.segSize = f, name, seq, segHeaderSize
	return nil
}

// recreateSegment resets a torn final segment to a bare header.
func (j *Journal) recreateSegment(seq uint64) error {
	return j.createSegment(seq)
}

// ---------------------------------------------------------------------
// Appending.

// Commit appends one batch and blocks until it is durable (written and
// fsynced per the SyncInterval group-commit policy). The batch's
// Events slice is read until Commit returns; do not mutate it
// concurrently. After an I/O failure the journal is sticky-failed and
// every subsequent Commit returns the same error.
func (j *Journal) Commit(b Batch) error {
	req := &commitReq{b: b, done: make(chan error, 1)}
	if err := j.enqueue(req); err != nil {
		return err
	}
	return <-req.done
}

// enqueue places a request on the writer's queue under the state lock,
// so a concurrent Close cannot close the channel mid-send.
func (j *Journal) enqueue(req *commitReq) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return j.err
	}
	if j.closed {
		return ErrClosed
	}
	j.lagEvents.Add(int64(len(req.b.Events)))
	j.reqs <- req
	return nil
}

// AttachDynamic subscribes the journal to a fault.Dynamic: every epoch
// transition is appended asynchronously (fire-and-forget; the bounded
// queue backpressures mutators rather than dropping history). Batches
// that arrive after Close or a writer failure are counted in Dropped.
// Attach before the first mutation — transitions preceding the
// subscription are not journaled.
func (j *Journal) AttachDynamic(d *fault.Dynamic) {
	d.SubscribeBatch(func(epoch, fp uint64, events []fault.Event) {
		b := Batch{Epoch: epoch, FP: fp, Events: append([]fault.Event(nil), events...)}
		if err := j.enqueue(&commitReq{b: b}); err != nil {
			j.dropped.Add(1)
		}
	})
}

// run is the writer goroutine: it drains the queue in groups, writes
// every group member, fsyncs once per group, then acknowledges.
func (j *Journal) run() {
	defer close(j.done)
	var group []*commitReq
	for {
		req, ok := <-j.reqs
		if !ok {
			j.shutdown()
			return
		}
		group = append(group[:0], req)
		closed := false
	drain:
		for {
			select {
			case r, ok := <-j.reqs:
				if !ok {
					closed = true
					break drain
				}
				group = append(group, r)
			default:
				break drain
			}
		}
		if j.opts.SyncInterval > 0 && !closed {
			// Hold the group open for the commit window; everyone who
			// arrives shares the fsync.
			timer := time.NewTimer(j.opts.SyncInterval)
		window:
			for {
				select {
				case r, ok := <-j.reqs:
					if !ok {
						closed = true
						break window
					}
					group = append(group, r)
				case <-timer.C:
					break window
				}
			}
			timer.Stop()
		}
		err := j.commitGroup(group)
		for _, r := range group {
			j.lagEvents.Add(-int64(len(r.b.Events)))
			if r.done != nil {
				r.done <- err
			}
		}
		if err == nil {
			err = j.maybeCheckpoint()
		}
		if err != nil {
			// After any I/O failure the writer's in-memory chain may be
			// ahead of what reached disk; writing anything more would
			// splice a chain discontinuity into the log. Go terminal:
			// refuse everything until Close.
			j.fail(err)
			j.drainFailed(closed)
			return
		}
		if closed {
			j.shutdown()
			return
		}
	}
}

// commitGroup validates, encodes and writes every batch of the group,
// rotating segments as needed, then fsyncs.
func (j *Journal) commitGroup(group []*commitReq) error {
	j.wbuf = j.wbuf[:0]
	for _, r := range group {
		if err := j.applyBatch(&r.b); err != nil {
			return fmt.Errorf("journal: refusing batch: %w", err)
		}
		j.pbuf = appendBatch(j.pbuf[:0], &r.b)
		if j.segSize+int64(len(j.wbuf)) > j.opts.SegmentBytes && len(j.wbuf) == 0 && j.segSize > segHeaderSize {
			if err := j.rotate(); err != nil {
				return err
			}
		}
		j.wbuf = appendRecord(j.wbuf, &j.chain, j.pbuf)
		j.appends.Add(1)
	}
	if len(j.wbuf) > 0 {
		if _, err := j.seg.Write(j.wbuf); err != nil {
			return fmt.Errorf("journal: write %s: %w", j.segName, err)
		}
		j.segSize += int64(len(j.wbuf))
	}
	if err := j.seg.Sync(); err != nil {
		return fmt.Errorf("journal: sync %s: %w", j.segName, err)
	}
	j.fsyncs.Add(1)
	j.sinceCkpt += uint64(len(group))
	j.lastDurable.Store(j.epoch)
	return nil
}

// rotate seals the live segment and opens the next one.
func (j *Journal) rotate() error {
	if err := j.seg.Sync(); err != nil {
		return fmt.Errorf("journal: sync %s before rotation: %w", j.segName, err)
	}
	j.fsyncs.Add(1)
	if err := j.seg.Close(); err != nil {
		return fmt.Errorf("journal: close %s: %w", j.segName, err)
	}
	return j.createSegment(j.segSeq + 1)
}

// maybeCheckpoint compacts once enough batches have accumulated: the
// replica state is published as checkpoint.journal (write-tmp, fsync,
// rename) and every segment the checkpoint covers is deleted.
func (j *Journal) maybeCheckpoint() error {
	if j.opts.SnapshotEvery == 0 || j.sinceCkpt < j.opts.SnapshotEvery {
		return nil
	}
	if err := j.rotate(); err != nil {
		return err
	}
	ck := &checkpoint{epoch: j.epoch, fp: j.fp, chain: j.chain, nextSeq: j.segSeq, time: j.now, set: j.replica}
	buf := encodeCheckpoint(ck, j.cube)
	tmp := filepath.Join(j.dir, ckptTmpName)
	f, err := j.fs.Create(tmp)
	if err != nil {
		return fmt.Errorf("journal: create checkpoint: %w", err)
	}
	if _, err := f.Write(buf); err != nil {
		f.Close()
		return fmt.Errorf("journal: write checkpoint: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("journal: sync checkpoint: %w", err)
	}
	j.fsyncs.Add(1)
	if err := f.Close(); err != nil {
		return fmt.Errorf("journal: close checkpoint: %w", err)
	}
	if err := j.fs.Rename(tmp, filepath.Join(j.dir, ckptName)); err != nil {
		return fmt.Errorf("journal: publish checkpoint: %w", err)
	}
	j.checkpoints.Add(1)
	j.sinceCkpt = 0
	names, err := j.fs.List(j.dir)
	if err != nil {
		return nil // compaction is best-effort; stale segments are reaped next open
	}
	for _, n := range names {
		if seq, ok := parseSegName(n); ok && seq < j.segSeq {
			_ = j.fs.Remove(filepath.Join(j.dir, n))
		}
	}
	return nil
}

// drainFailed answers queued (and, until Close, future) requests with
// the sticky error, then seals what it can. enqueue stops admitting
// new requests once the sticky error is set, but requests already in
// flight still deserve an answer.
func (j *Journal) drainFailed(closed bool) {
	err := j.Err()
	reject := func(r *commitReq) {
		j.lagEvents.Add(-int64(len(r.b.Events)))
		if r.done != nil {
			r.done <- err
		}
	}
	if closed {
		for r := range j.reqs {
			reject(r)
		}
		j.shutdown()
		return
	}
	for {
		r, ok := <-j.reqs
		if !ok {
			j.shutdown()
			return
		}
		reject(r)
	}
}

// fail records the sticky writer error.
func (j *Journal) fail(err error) {
	j.mu.Lock()
	if j.err == nil {
		j.err = err
	}
	j.mu.Unlock()
}

// shutdown seals the live segment on writer exit.
func (j *Journal) shutdown() {
	if j.seg == nil {
		return
	}
	if err := j.seg.Sync(); err == nil {
		j.fsyncs.Add(1)
	}
	_ = j.seg.Close()
	j.seg = nil
}

// Close stops the writer after draining queued commits and seals the
// live segment. It returns the sticky writer error, if any.
func (j *Journal) Close() error {
	j.mu.Lock()
	if !j.closed {
		j.closed = true
		close(j.reqs)
	}
	j.mu.Unlock()
	<-j.done
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// Err returns the sticky writer error (nil while healthy).
func (j *Journal) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// Appends returns the number of batches written (durable or not).
func (j *Journal) Appends() int64 { return j.appends.Load() }

// Fsyncs returns the number of fsync barriers issued — with group
// commit, the number of durability points, not the number of batches.
func (j *Journal) Fsyncs() int64 { return j.fsyncs.Load() }

// Checkpoints returns the number of compaction checkpoints published.
func (j *Journal) Checkpoints() int64 { return j.checkpoints.Load() }

// LagEvents returns the number of events enqueued but not yet durable
// — the journal-lag gauge surfaced in /metrics.
func (j *Journal) LagEvents() int64 { return j.lagEvents.Load() }

// Dropped returns the number of batches refused after Close or a
// writer failure (AttachDynamic's fire-and-forget path only; Commit
// reports refusals to its caller instead).
func (j *Journal) Dropped() int64 { return j.dropped.Load() }

// LastDurableEpoch returns the newest epoch known fsynced.
func (j *Journal) LastDurableEpoch() uint64 { return j.lastDurable.Load() }

// Dir returns the journal directory.
func (j *Journal) Dir() string { return j.dir }

// DiffEvents computes the fault events that transform old into new —
// how a copy-on-write mutation step (fault.Set.MutateCopy) is turned
// into journal history. Events are emitted in deterministic order
// (repairs before injects, each sorted by component).
func DiffEvents(old, new *fault.Set, at int) []fault.Event {
	type key struct {
		kind fault.Kind
		node gc.NodeID
		dim  uint
	}
	oldSet := make(map[key]bool)
	for _, f := range old.RawFaults() {
		oldSet[key{f.Kind, f.Node, f.Dim}] = true
	}
	newSet := make(map[key]bool)
	for _, f := range new.RawFaults() {
		newSet[key{f.Kind, f.Node, f.Dim}] = true
	}
	var out []fault.Event
	for k := range oldSet {
		if !newSet[k] {
			out = append(out, fault.Event{Time: at, Op: fault.OpRepair, Fault: fault.Fault{Kind: k.kind, Node: k.node, Dim: k.dim}})
		}
	}
	for k := range newSet {
		if !oldSet[k] {
			out = append(out, fault.Event{Time: at, Op: fault.OpInject, Fault: fault.Fault{Kind: k.kind, Node: k.node, Dim: k.dim}})
		}
	}
	sort.Slice(out, func(i, k int) bool {
		a, b := out[i], out[k]
		if a.Op != b.Op {
			return a.Op == fault.OpRepair
		}
		if a.Fault.Kind != b.Fault.Kind {
			return a.Fault.Kind < b.Fault.Kind
		}
		if a.Fault.Node != b.Fault.Node {
			return a.Fault.Node < b.Fault.Node
		}
		return a.Fault.Dim < b.Fault.Dim
	})
	return out
}
