package journal

import (
	"fmt"
	"io"
	"path/filepath"
	"sort"
)

// ReadSince returns the committed batches with Epoch > afterEpoch, in
// commit order — the journal-suffix read behind gccluster's epoch-sync
// responses. It reads the segment files directly rather than touching
// the writer goroutine's state: segments are append-only and every
// group lands in a single unbuffered write, so a concurrent reader sees
// either a complete record or a short tail, and the per-record CRC
// discriminates the two. The walk stops at the first record that fails
// its CRC or length check (the writer's in-flight tail); everything
// durable before it is returned.
//
// ok is false when the requested horizon is not reconstructable from
// segments: checkpoint compaction has folded batches at or below
// afterEpoch's successor into state, or a compaction raced the read and
// deleted a listed segment. The caller falls back to sending a full
// snapshot. err reports damage or I/O failure reading what should be
// readable (a corrupt checkpoint, an unlistable directory).
func (j *Journal) ReadSince(afterEpoch uint64) (batches []Batch, ok bool, err error) {
	names, err := j.fs.List(j.dir)
	if err != nil {
		return nil, false, fmt.Errorf("journal: list %s: %w", j.dir, err)
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
			return nil, false, err
		}
		if afterEpoch < ck.epoch {
			// Batches in (afterEpoch, ck.epoch] were compacted into the
			// checkpoint state; the suffix cannot be replayed event-wise.
			return nil, false, nil
		}
		startSeq = ck.nextSeq
	}

	var seqs []uint64
	for _, n := range names {
		if seq, ok := parseSegName(n); ok && seq >= startSeq {
			seqs = append(seqs, seq)
		}
	}
	sort.Slice(seqs, func(i, k int) bool { return seqs[i] < seqs[k] })

	for _, seq := range seqs {
		segBatches, live, err := j.readSegmentSince(seq, afterEpoch)
		if err != nil {
			return nil, false, err
		}
		if !live {
			// The segment vanished between List and Open: a checkpoint
			// compaction raced us and the suffix is no longer contiguous.
			return nil, false, nil
		}
		batches = append(batches, segBatches...)
	}
	return batches, true, nil
}

// readSegmentSince reads one segment's batches with Epoch > afterEpoch.
// live is false when the segment no longer exists (compaction race).
// The record walk stops silently at the first torn or in-flight record.
func (j *Journal) readSegmentSince(seq, afterEpoch uint64) (batches []Batch, live bool, err error) {
	name := segFileName(seq)
	f, err := j.fs.Open(filepath.Join(j.dir, name))
	if err != nil {
		return nil, false, nil
	}
	data, err := io.ReadAll(f)
	f.Close()
	if err != nil {
		return nil, true, fmt.Errorf("journal: read %s: %w", name, err)
	}
	if len(data) < segHeaderSize {
		return nil, true, nil // header still being created
	}
	if err := checkSegMagic(data, name); err != nil {
		return nil, true, err
	}
	for off := segHeaderSize; off < len(data); {
		payload, _, end, bad := nextRecord(data, off)
		if bad != "" {
			break
		}
		var b Batch
		if err := decodeBatch(payload, &b); err != nil {
			return batches, true, &CorruptError{Segment: name, Offset: int64(off), Reason: err.Error()}
		}
		if b.Epoch > afterEpoch {
			batches = append(batches, b)
		}
		off = end
	}
	return batches, true, nil
}
