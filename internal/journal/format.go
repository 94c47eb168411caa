package journal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"sort"

	"gaussiancube/internal/fault"
	"gaussiancube/internal/gc"
)

// On-disk layout (DESIGN.md §12). All integers little-endian, the
// internal/wire discipline.
//
// A segment file (seg-<seq>.journal) is a 24-byte header followed by
// length-prefixed records:
//
//	segment header          record
//	0   u32 magic "GCJ1"    0   u32 payload length
//	4   u8  version 1       4   u32 CRC32-C of payload
//	5   3   reserved        8   u64 chain hash
//	8   u64 seq             16  ... payload
//	16  u64 prev chain
//
// The chain hash of record i is chainNext(chain[i-1], payload[i]),
// seeded by the segment header's prev-chain field (itself the chain of
// the last record of the previous segment, or the checkpoint's chain).
// CRC catches bit rot and torn writes record-locally; the chain
// catches a subtler failure — a record that was rewritten, dropped, or
// spliced while remaining individually well-formed.
//
// A batch payload is:
//
//	0   u8  payload type (payloadBatch)
//	1   u64 epoch after this batch
//	9   u64 fault-set fingerprint after this batch
//	17  u32 event count
//	21  ... events, 16 bytes each:
//	    u8 op, u8 kind, u16 dim, u32 node, i64 time
//
// A checkpoint (checkpoint.journal, written to .tmp then renamed) is
// the frozen fault-set state plus the replay cursor:
//
//	0   u32 magic "GCK1"    40  i64 time
//	4   u8  version 1       48  u32 faulty node count
//	5   3   reserved        52  u32 faulty link count
//	8   u64 epoch           56  ... nodes (u32 each),
//	16  u64 fingerprint         links (u32 node, u32 dim)
//	24  u64 chain           end u32 CRC32-C of everything above
//	32  u64 next segment seq
const (
	segMagic  uint32 = 0x314A4347 // "GCJ1"
	ckptMagic uint32 = 0x314B4347 // "GCK1"
	version   uint8  = 1

	segHeaderSize = 24
	recHeaderSize = 16
	batchFixed    = 21
	eventSize     = 16
	ckptFixed     = 56

	// maxRecordLen bounds a single record's payload; anything larger in
	// a length prefix is treated as damage, not a record.
	maxRecordLen = 16 << 20
)

// castagnoli is the CRC32-C table (the SSE4.2-accelerated polynomial).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// chainNext advances the hash chain over one payload: FNV-1a seeded by
// the previous chain value. 64 bits of chain per record is plenty to
// locate splices and rewrites; per-record bit rot is CRC's job.
func chainNext(prev uint64, payload []byte) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037) ^ prev
	for _, b := range payload {
		h ^= uint64(b)
		h *= prime
	}
	return h
}

// Batch is one durable unit: the fault events applied in one epoch
// transition, stamped with the epoch and fingerprint that resulted.
// Replaying batches in order reconstructs the exact (set, epoch,
// fingerprint) triple the writer observed.
type Batch struct {
	Epoch  uint64
	FP     uint64
	Events []fault.Event
}

// payload types.
const payloadBatch uint8 = 1

// appendBatch appends the batch payload (no record framing).
func appendBatch(buf []byte, b *Batch) []byte {
	buf = append(buf, payloadBatch)
	buf = binary.LittleEndian.AppendUint64(buf, b.Epoch)
	buf = binary.LittleEndian.AppendUint64(buf, b.FP)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(b.Events)))
	for _, e := range b.Events {
		op := uint8(0)
		if e.Op == fault.OpRepair {
			op = 1
		}
		kind := uint8(0)
		if e.Fault.Kind == fault.KindLink {
			kind = 1
		}
		buf = append(buf, op, kind)
		buf = binary.LittleEndian.AppendUint16(buf, uint16(e.Fault.Dim))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(e.Fault.Node))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(int64(e.Time)))
	}
	return buf
}

// decodeBatch decodes a batch payload, reusing into.Events capacity.
func decodeBatch(p []byte, into *Batch) error {
	if len(p) < batchFixed || p[0] != payloadBatch {
		return fmt.Errorf("journal: malformed batch payload (%d bytes)", len(p))
	}
	into.Epoch = binary.LittleEndian.Uint64(p[1:9])
	into.FP = binary.LittleEndian.Uint64(p[9:17])
	n := int(binary.LittleEndian.Uint32(p[17:21]))
	if len(p) != batchFixed+n*eventSize {
		return fmt.Errorf("journal: batch payload length %d for %d events", len(p), n)
	}
	into.Events = into.Events[:0]
	for i := 0; i < n; i++ {
		off := batchFixed + i*eventSize
		var e fault.Event
		if p[off] == 1 {
			e.Op = fault.OpRepair
		} else {
			e.Op = fault.OpInject
		}
		if p[off+1] == 1 {
			e.Fault.Kind = fault.KindLink
		} else {
			e.Fault.Kind = fault.KindNode
		}
		e.Fault.Dim = uint(binary.LittleEndian.Uint16(p[off+2 : off+4]))
		e.Fault.Node = gc.NodeID(binary.LittleEndian.Uint32(p[off+4 : off+8]))
		e.Time = int(int64(binary.LittleEndian.Uint64(p[off+8 : off+16])))
		into.Events = append(into.Events, e)
	}
	return nil
}

// appendRecord frames one payload: record header (length, CRC, chain)
// plus the payload, advancing *chain.
func appendRecord(buf []byte, chain *uint64, payload []byte) []byte {
	next := chainNext(*chain, payload)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(payload, castagnoli))
	buf = binary.LittleEndian.AppendUint64(buf, next)
	buf = append(buf, payload...)
	*chain = next
	return buf
}

// nextRecord parses the record framed at off of a segment image,
// appendRecord's inverse: replay and ReadSince both walk segments
// through it. bad is "" for a whole record that passes its CRC, and
// otherwise says why the bytes at off are not one; end, where the
// record ends, is set for a whole record and for a CRC failure.
func nextRecord(data []byte, off int) (payload []byte, chain uint64, end int, bad string) {
	if len(data)-off < recHeaderSize {
		return nil, 0, 0, "record header cut short"
	}
	plen := int(binary.LittleEndian.Uint32(data[off : off+4]))
	end = off + recHeaderSize + plen
	switch {
	case plen > maxRecordLen:
		return nil, 0, 0, "implausible record length"
	case end > len(data):
		return nil, 0, 0, "record payload cut short"
	}
	payload = data[off+recHeaderSize : end]
	if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(data[off+4:off+8]) {
		return nil, 0, end, badCRC
	}
	return payload, binary.LittleEndian.Uint64(data[off+8 : off+16]), end, ""
}

// badCRC is nextRecord's verdict on a record whose payload fails its
// CRC.
const badCRC = "payload CRC mismatch"

// checkSegMagic rejects a segment image whose header (at least
// segHeaderSize bytes) has the wrong magic or format version.
func checkSegMagic(data []byte, name string) error {
	if binary.LittleEndian.Uint32(data[0:4]) != segMagic || data[4] != version {
		return &CorruptError{Segment: name, Offset: 0, Reason: "bad segment magic or version"}
	}
	return nil
}

// appendSegHeader appends a segment header.
func appendSegHeader(buf []byte, seq, prevChain uint64) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, segMagic)
	buf = append(buf, version, 0, 0, 0)
	buf = binary.LittleEndian.AppendUint64(buf, seq)
	return binary.LittleEndian.AppendUint64(buf, prevChain)
}

// checkpoint is the decoded checkpoint.journal document.
type checkpoint struct {
	epoch   uint64
	fp      uint64
	chain   uint64
	nextSeq uint64
	time    int64
	set     *fault.Set
}

// encodeCheckpoint serializes the checkpoint (deterministically: the
// component lists are sorted) with its trailing CRC.
func encodeCheckpoint(ck *checkpoint, cube *gc.Cube) []byte {
	var nodes []gc.NodeID
	type link struct {
		node gc.NodeID
		dim  uint
	}
	var links []link
	for _, f := range ck.set.RawFaults() {
		if f.Kind == fault.KindNode {
			nodes = append(nodes, f.Node)
		} else {
			links = append(links, link{node: f.Node, dim: f.Dim})
		}
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
	sort.Slice(links, func(i, j int) bool {
		if links[i].node != links[j].node {
			return links[i].node < links[j].node
		}
		return links[i].dim < links[j].dim
	})

	buf := make([]byte, 0, ckptFixed+4*len(nodes)+8*len(links)+4)
	buf = binary.LittleEndian.AppendUint32(buf, ckptMagic)
	buf = append(buf, version, 0, 0, 0)
	buf = binary.LittleEndian.AppendUint64(buf, ck.epoch)
	buf = binary.LittleEndian.AppendUint64(buf, ck.fp)
	buf = binary.LittleEndian.AppendUint64(buf, ck.chain)
	buf = binary.LittleEndian.AppendUint64(buf, ck.nextSeq)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(ck.time))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(nodes)))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(links)))
	for _, v := range nodes {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(v))
	}
	for _, l := range links {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(l.node))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(l.dim))
	}
	return binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, castagnoli))
}

// decodeCheckpoint parses and verifies a checkpoint document.
func decodeCheckpoint(p []byte, cube *gc.Cube) (*checkpoint, error) {
	if len(p) < ckptFixed+4 {
		return nil, fmt.Errorf("journal: checkpoint too short (%d bytes)", len(p))
	}
	body, sum := p[:len(p)-4], binary.LittleEndian.Uint32(p[len(p)-4:])
	if crc32.Checksum(body, castagnoli) != sum {
		return nil, fmt.Errorf("journal: checkpoint CRC mismatch")
	}
	if binary.LittleEndian.Uint32(body[0:4]) != ckptMagic {
		return nil, fmt.Errorf("journal: bad checkpoint magic")
	}
	if body[4] != version {
		return nil, fmt.Errorf("journal: unsupported checkpoint version %d", body[4])
	}
	ck := &checkpoint{
		epoch:   binary.LittleEndian.Uint64(body[8:16]),
		fp:      binary.LittleEndian.Uint64(body[16:24]),
		chain:   binary.LittleEndian.Uint64(body[24:32]),
		nextSeq: binary.LittleEndian.Uint64(body[32:40]),
		time:    int64(binary.LittleEndian.Uint64(body[40:48])),
		set:     fault.NewSet(cube),
	}
	nodes := int(binary.LittleEndian.Uint32(body[48:52]))
	links := int(binary.LittleEndian.Uint32(body[52:56]))
	if len(body) != ckptFixed+4*nodes+8*links {
		return nil, fmt.Errorf("journal: checkpoint length %d for %d nodes, %d links", len(p), nodes, links)
	}
	off := ckptFixed
	for i := 0; i < nodes; i++ {
		v := gc.NodeID(binary.LittleEndian.Uint32(body[off : off+4]))
		if int(v) >= cube.Nodes() {
			return nil, fmt.Errorf("journal: checkpoint node %d out of range", v)
		}
		ck.set.AddNode(v)
		off += 4
	}
	for i := 0; i < links; i++ {
		v := gc.NodeID(binary.LittleEndian.Uint32(body[off : off+4]))
		dim := uint(binary.LittleEndian.Uint32(body[off+4 : off+8]))
		if int(v) >= cube.Nodes() || !cube.HasLinkDim(v, dim) {
			return nil, fmt.Errorf("journal: checkpoint link (%d,%d) not in cube", v, dim)
		}
		ck.set.AddLink(v, dim)
		off += 8
	}
	if got := ck.set.Fingerprint(); got != ck.fp {
		return nil, fmt.Errorf("journal: checkpoint fingerprint %#x does not match its state %#x", ck.fp, got)
	}
	return ck, nil
}

// CorruptError reports mid-stream journal damage that replay refuses
// to skip: a broken hash chain, an unreadable non-final segment, or a
// record that fails integrity checks with valid records after it. The
// segment and byte offset locate the damage for the operator.
type CorruptError struct {
	Segment string
	Offset  int64
	Reason  string
}

// Error implements error.
func (e *CorruptError) Error() string {
	return fmt.Sprintf("journal: corrupt at %s:%d: %s", e.Segment, e.Offset, e.Reason)
}
