package wire

import (
	"encoding/binary"

	"gaussiancube/internal/gc"
)

// Collective framing: the binary twins of the /broadcast and
// /multicast JSON endpoints. A broadcast request is a fixed 12-byte
// payload; a multicast request adds an explicit destination list; both
// are answered by one CollectiveResult frame carrying a per-destination
// (dest, outcome, hops) record ladder, so a client can account for
// every requested destination exactly once — conservation is checkable
// from the frame alone.

// BroadcastReq is the payload of TypeBroadcastReq: fixed 12 bytes (the
// last three are reserved padding, written as zero).
type BroadcastReq struct {
	// Root is the broadcast origin. When it is faulted the server
	// re-roots per the closed-form new-source rule and stamps the
	// result CollectiveFlagReRooted.
	Root gc.NodeID
	// DeadlineMS optionally bounds the request server-side, in
	// milliseconds (0 means the server default).
	DeadlineMS uint32
	// Flags carries RouteFlag bits. The server reads none of them: a
	// collective is always planned on the member that receives it, so
	// RouteFlagNoForward is accepted and ignored.
	Flags uint8
}

const broadcastReqSize = 12

// AppendBroadcastReq appends a complete broadcast-request frame.
func AppendBroadcastReq(buf []byte, id uint64, r BroadcastReq) []byte {
	buf = AppendHeader(buf, TypeBroadcastReq, id, broadcastReqSize)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(r.Root))
	buf = binary.LittleEndian.AppendUint32(buf, r.DeadlineMS)
	return append(buf, r.Flags, 0, 0, 0)
}

// DecodeBroadcastReq decodes a TypeBroadcastReq payload.
func DecodeBroadcastReq(p []byte, into *BroadcastReq) error {
	if len(p) != broadcastReqSize {
		return ErrBadPayload
	}
	into.Root = gc.NodeID(binary.LittleEndian.Uint32(p[0:4]))
	into.DeadlineMS = binary.LittleEndian.Uint32(p[4:8])
	into.Flags = p[8]
	return nil
}

// MulticastReq is the payload of TypeMulticastReq: the broadcast fixed
// part plus a u32-counted destination list.
//
//	0   u32  root
//	4   u32  deadline ms
//	8   u8   flags
//	9   3    reserved
//	12  u32  destination count
//	16  ...  destinations, u32 each
type MulticastReq struct {
	Root       gc.NodeID
	DeadlineMS uint32
	Flags      uint8       // as BroadcastReq.Flags: accepted and ignored
	Dests      []gc.NodeID // reused by Decode; copy to keep past the next call
}

const multicastReqFixed = 16

// maxCollectiveDests bounds a multicast destination list (and a
// collective result's record count): MaxPayload divided by the record
// size, so no well-formed frame can exceed the payload cap.
const maxCollectiveDests = (MaxPayload - HeaderSize - multicastReqFixed) / 4

// AppendMulticastReq appends a complete multicast-request frame.
// Destination lists longer than maxCollectiveDests are truncated (the
// bound exceeds any routable cube's node count).
func AppendMulticastReq(buf []byte, id uint64, r *MulticastReq) []byte {
	dests := r.Dests
	if len(dests) > maxCollectiveDests {
		dests = dests[:maxCollectiveDests]
	}
	buf = AppendHeader(buf, TypeMulticastReq, id, multicastReqFixed+4*len(dests))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(r.Root))
	buf = binary.LittleEndian.AppendUint32(buf, r.DeadlineMS)
	buf = append(buf, r.Flags, 0, 0, 0)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(dests)))
	for _, d := range dests {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(d))
	}
	return buf
}

// DecodeMulticastReq decodes a TypeMulticastReq payload, reusing
// into.Dests's capacity.
func DecodeMulticastReq(p []byte, into *MulticastReq) error {
	if len(p) < multicastReqFixed {
		return ErrBadPayload
	}
	into.Root = gc.NodeID(binary.LittleEndian.Uint32(p[0:4]))
	into.DeadlineMS = binary.LittleEndian.Uint32(p[4:8])
	into.Flags = p[8]
	n := int(binary.LittleEndian.Uint32(p[12:16]))
	if n > maxCollectiveDests || len(p) != multicastReqFixed+4*n {
		return ErrBadPayload
	}
	into.Dests = into.Dests[:0]
	for off := multicastReqFixed; off < len(p); off += 4 {
		into.Dests = append(into.Dests, gc.NodeID(binary.LittleEndian.Uint32(p[off:off+4])))
	}
	return nil
}

// CollectiveResult flags.
const (
	// CollectiveFlagReRooted: the requested root was faulted and the
	// plan re-injected the message at a closed-form-selected new
	// source; every delivery is degraded.
	CollectiveFlagReRooted uint8 = 1 << 0
	// CollectiveFlagDegradedEpoch: the serving instance answered from
	// a fault view it knows to be stale (cluster degraded reads).
	CollectiveFlagDegradedEpoch uint8 = 1 << 1
)

// DestRecord is one per-destination outcome of a CollectiveResult:
// 8 bytes on the wire (dest u32, outcome u8, reserved u8, hops i16).
// Hops is -1 for undelivered destinations.
type DestRecord struct {
	Dest    gc.NodeID
	Outcome uint8
	Hops    int16
}

const destRecordSize = 8

// CollectiveResult is the payload of TypeCollectiveResult.
//
//	0   u8   flags
//	1   3    reserved
//	4   u32  root (the effective source after any re-rooting)
//	8   u32  origin (the requested root)
//	12  u32  delivered count
//	16  u32  degraded count
//	20  u32  unreached count
//	24  u64  epoch
//	32  u32  record count
//	36  ...  records, 8 bytes each
//
// The three counters always sum to the record count: the frame itself
// carries the conservation proof.
type CollectiveResult struct {
	Flags     uint8
	Root      gc.NodeID
	Origin    gc.NodeID
	Delivered uint32
	Degraded  uint32
	Unreached uint32
	Epoch     uint64
	Dests     []DestRecord // reused by Decode; copy to keep past the next call
}

const collectiveResultFixed = 36

// maxCollectiveRecords bounds a result's record list the same way
// maxCollectiveDests bounds a request's.
const maxCollectiveRecords = (MaxPayload - HeaderSize - collectiveResultFixed) / destRecordSize

// AppendCollectiveResult appends a complete collective-result frame.
func AppendCollectiveResult(buf []byte, id uint64, r *CollectiveResult) []byte {
	dests := r.Dests
	if len(dests) > maxCollectiveRecords {
		dests = dests[:maxCollectiveRecords]
	}
	buf = AppendHeader(buf, TypeCollectiveResult, id, collectiveResultFixed+destRecordSize*len(dests))
	buf = append(buf, r.Flags, 0, 0, 0)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(r.Root))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(r.Origin))
	buf = binary.LittleEndian.AppendUint32(buf, r.Delivered)
	buf = binary.LittleEndian.AppendUint32(buf, r.Degraded)
	buf = binary.LittleEndian.AppendUint32(buf, r.Unreached)
	buf = binary.LittleEndian.AppendUint64(buf, r.Epoch)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(dests)))
	for _, d := range dests {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(d.Dest))
		buf = append(buf, d.Outcome, 0)
		buf = binary.LittleEndian.AppendUint16(buf, uint16(d.Hops))
	}
	return buf
}

// DecodeCollectiveResult decodes a TypeCollectiveResult payload,
// reusing into.Dests's capacity.
func DecodeCollectiveResult(p []byte, into *CollectiveResult) error {
	if len(p) < collectiveResultFixed {
		return ErrBadPayload
	}
	into.Flags = p[0]
	into.Root = gc.NodeID(binary.LittleEndian.Uint32(p[4:8]))
	into.Origin = gc.NodeID(binary.LittleEndian.Uint32(p[8:12]))
	into.Delivered = binary.LittleEndian.Uint32(p[12:16])
	into.Degraded = binary.LittleEndian.Uint32(p[16:20])
	into.Unreached = binary.LittleEndian.Uint32(p[20:24])
	into.Epoch = binary.LittleEndian.Uint64(p[24:32])
	n := int(binary.LittleEndian.Uint32(p[32:36]))
	if n > maxCollectiveRecords || len(p) != collectiveResultFixed+destRecordSize*n {
		return ErrBadPayload
	}
	into.Dests = into.Dests[:0]
	for off := collectiveResultFixed; off < len(p); off += destRecordSize {
		into.Dests = append(into.Dests, DestRecord{
			Dest:    gc.NodeID(binary.LittleEndian.Uint32(p[off : off+4])),
			Outcome: p[off+4],
			Hops:    int16(binary.LittleEndian.Uint16(p[off+6 : off+8])),
		})
	}
	return nil
}
