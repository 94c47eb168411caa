// Package wire is the gcwire binary framing: the length-prefixed
// little-endian protocol gcserved speaks on its -wire-addr listener,
// and the fast twin of the HTTP/JSON surface (DESIGN.md §11).
//
// # Frame layout
//
// Every frame is a fixed 16-byte header followed by a payload:
//
//	offset  size  field
//	0       2     magic   0x6347 ("Gc" in stream order)
//	2       1     version 1
//	3       1     type    frame Type
//	4       8     id      request id, echoed verbatim in the reply
//	12      4     length  payload bytes (bounded by MaxPayload)
//
// All integers are little-endian. Responses may arrive out of order —
// the id is the correlation key, which is what lets a server answer
// cache hits on the reader goroutine while misses resolve behind it.
//
// # Encoding discipline
//
// Every encoder is append-style (AppendX(buf, ...) []byte) and every
// decoder fills a caller-owned struct, reusing its slice capacity
// (DecodeInto pattern). Steady-state encode and decode of route frames
// perform zero heap allocations; the root alloc_test pins that.
package wire

import (
	"encoding/binary"
	"errors"

	"gaussiancube/internal/gc"
)

// Protocol constants.
const (
	// Magic identifies a gcwire stream; bytes 0x47 0x63 ("Gc") on the
	// wire, read as a little-endian uint16.
	Magic uint16 = 0x6347
	// Version is the only protocol revision peers accept.
	Version uint8 = 1
	// HeaderSize is the fixed frame-header length in bytes.
	HeaderSize = 16
	// MaxPayload bounds a single frame's payload (16 MiB), mirroring the
	// HTTP client's response read limit.
	MaxPayload = 16 << 20
)

// Type discriminates frames.
type Type uint8

// Frame types. Requests flow client->server, results server->client.
const (
	// TypeRouteReq asks for one route (RouteReq payload).
	TypeRouteReq Type = iota + 1
	// TypeRouteResult answers a route request (RouteResult payload).
	TypeRouteResult
	// TypeFaultsReq applies a fault-mutation batch atomically (FaultOps
	// payload); an empty batch is a read of the current epoch.
	TypeFaultsReq
	// TypeFaultsResult answers a faults request (FaultsResult payload).
	TypeFaultsResult
	// TypeMetricsReq asks for a metrics scrape (empty payload).
	TypeMetricsReq
	// TypeMetricsResult carries the canonical JSON MetricsSnapshot
	// document as its payload — metrics are a cold path, so the binary
	// protocol reuses the HTTP surface's schema byte for byte.
	TypeMetricsResult
	// TypePing probes liveness (empty payload).
	TypePing
	// TypePong answers a ping (Pong payload).
	TypePong
	// TypeError reports a request-level failure (ErrorFrame payload).
	TypeError
	// TypeEpochSyncReq asks a peer for the fault history after the
	// requester's (epoch, fingerprint) frontier (EpochSyncReq payload) —
	// the pull half of gccluster's anti-entropy gossip.
	TypeEpochSyncReq
	// TypeEpochSyncResp answers an epoch-sync request with the
	// responder's frontier and the batch suffix (or a snapshot) that
	// carries the requester up to it (EpochSyncResp payload).
	TypeEpochSyncResp
	// TypeBroadcastReq asks for a broadcast to every node
	// (BroadcastReq payload).
	TypeBroadcastReq
	// TypeMulticastReq asks for a multicast to an explicit destination
	// list (MulticastReq payload).
	TypeMulticastReq
	// TypeCollectiveResult answers a broadcast or multicast request
	// with per-destination outcomes (CollectiveResult payload).
	TypeCollectiveResult

	maxType = TypeCollectiveResult
)

// Error codes carried by TypeError frames. The values mirror the HTTP
// status mapping of the JSON surface so one client-side taxonomy serves
// both protocols.
const (
	CodeBadRequest   uint16 = 400 // malformed frame or out-of-range node
	CodeFaultyNode   uint16 = 409 // source or destination currently faulty
	CodeBackpressure uint16 = 429 // shard at its in-flight bound; retry later
	CodeInternal     uint16 = 500 // server-side failure (journal append refused)
	CodeDraining     uint16 = 503 // server shutting down
)

// Decode errors.
var (
	ErrShortFrame = errors.New("wire: buffer shorter than frame")
	ErrBadMagic   = errors.New("wire: bad magic")
	ErrBadVersion = errors.New("wire: unsupported version")
	ErrBadType    = errors.New("wire: unknown frame type")
	ErrTooLarge   = errors.New("wire: payload exceeds MaxPayload")
	ErrBadPayload = errors.New("wire: malformed payload")
)

// Header is a parsed frame header.
type Header struct {
	Type Type
	ID   uint64
	Len  uint32
}

// AppendHeader appends a frame header for a payload of plen bytes.
func AppendHeader(buf []byte, t Type, id uint64, plen int) []byte {
	buf = binary.LittleEndian.AppendUint16(buf, Magic)
	buf = append(buf, Version, uint8(t))
	buf = binary.LittleEndian.AppendUint64(buf, id)
	return binary.LittleEndian.AppendUint32(buf, uint32(plen))
}

// ParseHeader validates and decodes the frame header at the start of b.
// It does not inspect the payload; callers slice it off with h.Len.
func ParseHeader(b []byte) (Header, error) {
	var h Header
	if len(b) < HeaderSize {
		return h, ErrShortFrame
	}
	if binary.LittleEndian.Uint16(b[0:2]) != Magic {
		return h, ErrBadMagic
	}
	if b[2] != Version {
		return h, ErrBadVersion
	}
	h.Type = Type(b[3])
	if h.Type == 0 || h.Type > maxType {
		return h, ErrBadType
	}
	h.ID = binary.LittleEndian.Uint64(b[4:12])
	h.Len = binary.LittleEndian.Uint32(b[12:16])
	if h.Len > MaxPayload {
		return h, ErrTooLarge
	}
	return h, nil
}

// RouteReq flags.
const (
	// RouteFlagNoForward asked a cluster member to answer the request
	// itself instead of forwarding it to the source class's owner. Every
	// member now answers every request it receives, so the bit is
	// accepted and ignored; it stays so frames that set it still decode.
	RouteFlagNoForward uint8 = 1 << 0
	// RouteFlagTree marks the Tree byte as meaningful: the request pins
	// routing to one multipath spanning tree instead of the server's
	// per-flow striping. Requests without the flag are byte-identical
	// to protocol v1 frames.
	RouteFlagTree uint8 = 1 << 1
)

// RouteReq is the payload of TypeRouteReq: fixed 16 bytes (the last
// two are reserved padding, written as zero).
type RouteReq struct {
	Src, Dst gc.NodeID
	// DeadlineMS optionally bounds the request server-side, in
	// milliseconds (0 means the server default).
	DeadlineMS uint32
	// Flags carries RouteFlag bits.
	Flags uint8
	// Tree pins the request to one multipath spanning tree; it is
	// written and read only when RouteFlagTree is set (the byte is
	// reserved padding otherwise, preserving v1 frames bit-for-bit).
	Tree uint8
}

const routeReqSize = 16

// AppendRouteReq appends a complete route-request frame.
func AppendRouteReq(buf []byte, id uint64, r RouteReq) []byte {
	buf = AppendHeader(buf, TypeRouteReq, id, routeReqSize)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(r.Src))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(r.Dst))
	buf = binary.LittleEndian.AppendUint32(buf, r.DeadlineMS)
	tree := uint8(0)
	if r.Flags&RouteFlagTree != 0 {
		tree = r.Tree
	}
	return append(buf, r.Flags, tree, 0, 0)
}

// DecodeRouteReq decodes a TypeRouteReq payload.
func DecodeRouteReq(p []byte, into *RouteReq) error {
	if len(p) != routeReqSize {
		return ErrBadPayload
	}
	into.Src = gc.NodeID(binary.LittleEndian.Uint32(p[0:4]))
	into.Dst = gc.NodeID(binary.LittleEndian.Uint32(p[4:8]))
	into.DeadlineMS = binary.LittleEndian.Uint32(p[8:12])
	into.Flags = p[12]
	into.Tree = 0
	if into.Flags&RouteFlagTree != 0 {
		into.Tree = p[13]
	}
	return nil
}

// RouteResult flags.
const (
	FlagCacheHit     uint8 = 1 << 0
	FlagDegraded     uint8 = 1 << 1
	FlagUsedFallback uint8 = 1 << 2
	// FlagHasTree marks the optional trailing tree byte: the multipath
	// spanning tree the route was planned on. Results without the flag
	// are byte-identical to protocol v1 frames.
	FlagHasTree uint8 = 1 << 3
)

// RouteResult is the payload of TypeRouteResult: a 28-byte fixed part
// followed by the reason bytes and then the path as uint32 node ids.
//
//	0   u8   outcome (core.Outcome ladder value)
//	1   u8   flags
//	2   u16  hops
//	4   u16  detour hops
//	6   u16  retries
//	8   u16  replans
//	10  u16  discovered fault count
//	12  u32  wait cycles
//	16  u64  epoch
//	24  u16  reason length (bytes)
//	26  u16  path length (nodes)
//	28  ...  reason bytes, then path uint32s
//	        [+1 u8 tree — only when FlagHasTree is set]
type RouteResult struct {
	Outcome    uint8
	Flags      uint8
	Hops       uint16
	Detour     uint16
	Retries    uint16
	Replans    uint16
	Discovered uint16
	WaitCycles uint32
	Epoch      uint64
	// Tree is the multipath spanning tree the route was planned on;
	// carried as a trailing byte only when Flags&FlagHasTree is set,
	// so single-tree results stay byte-identical to protocol v1.
	Tree   uint8
	Reason []byte      // reused by Decode; copy to keep past the next call
	Path   []gc.NodeID // reused by Decode; copy to keep past the next call
}

const routeResultFixed = 28

// maxFieldLen bounds every variable-length frame field (reason bytes,
// path nodes, error messages): their on-wire length prefix is a u16.
// Encoders clamp at this bound so header length and prefix always
// agree — an oversized field is truncated, never an inconsistent frame
// the peer would reject as ErrBadPayload.
const maxFieldLen = 1<<16 - 1

// AppendRouteResult appends a complete route-result frame. Reason and
// Path longer than maxFieldLen are truncated (no GC(n,2^a) path gets
// anywhere near 65535 hops).
func AppendRouteResult(buf []byte, id uint64, r *RouteResult) []byte {
	reason, path := r.Reason, r.Path
	if len(reason) > maxFieldLen {
		reason = reason[:maxFieldLen]
	}
	if len(path) > maxFieldLen {
		path = path[:maxFieldLen]
	}
	plen := routeResultFixed + len(reason) + 4*len(path)
	if r.Flags&FlagHasTree != 0 {
		plen++
	}
	buf = AppendHeader(buf, TypeRouteResult, id, plen)
	buf = append(buf, r.Outcome, r.Flags)
	buf = binary.LittleEndian.AppendUint16(buf, r.Hops)
	buf = binary.LittleEndian.AppendUint16(buf, r.Detour)
	buf = binary.LittleEndian.AppendUint16(buf, r.Retries)
	buf = binary.LittleEndian.AppendUint16(buf, r.Replans)
	buf = binary.LittleEndian.AppendUint16(buf, r.Discovered)
	buf = binary.LittleEndian.AppendUint32(buf, r.WaitCycles)
	buf = binary.LittleEndian.AppendUint64(buf, r.Epoch)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(reason)))
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(path)))
	buf = append(buf, reason...)
	for _, v := range path {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(v))
	}
	if r.Flags&FlagHasTree != 0 {
		buf = append(buf, r.Tree)
	}
	return buf
}

// DecodeRouteResult decodes a TypeRouteResult payload, reusing the
// capacity of into.Reason and into.Path.
func DecodeRouteResult(p []byte, into *RouteResult) error {
	if len(p) < routeResultFixed {
		return ErrBadPayload
	}
	into.Outcome = p[0]
	into.Flags = p[1]
	into.Hops = binary.LittleEndian.Uint16(p[2:4])
	into.Detour = binary.LittleEndian.Uint16(p[4:6])
	into.Retries = binary.LittleEndian.Uint16(p[6:8])
	into.Replans = binary.LittleEndian.Uint16(p[8:10])
	into.Discovered = binary.LittleEndian.Uint16(p[10:12])
	into.WaitCycles = binary.LittleEndian.Uint32(p[12:16])
	into.Epoch = binary.LittleEndian.Uint64(p[16:24])
	rlen := int(binary.LittleEndian.Uint16(p[24:26]))
	plen := int(binary.LittleEndian.Uint16(p[26:28]))
	want := routeResultFixed + rlen + 4*plen
	into.Tree = 0
	if into.Flags&FlagHasTree != 0 {
		want++
	}
	if len(p) != want {
		return ErrBadPayload
	}
	if into.Flags&FlagHasTree != 0 {
		into.Tree = p[len(p)-1]
	}
	into.Reason = append(into.Reason[:0], p[routeResultFixed:routeResultFixed+rlen]...)
	into.Path = into.Path[:0]
	if cap(into.Path) < plen {
		into.Path = make([]gc.NodeID, 0, plen) // one allocation, not append's doublings
	}
	end := routeResultFixed + rlen + 4*plen
	for off := routeResultFixed + rlen; off < end; off += 4 {
		into.Path = append(into.Path, gc.NodeID(binary.LittleEndian.Uint32(p[off:off+4])))
	}
	return nil
}

// FaultOp verbs and kinds on the wire (the binary mirror of the JSON
// strings "inject"/"repair"/"clear" and "node"/"link").
const (
	OpInject uint8 = 0
	OpRepair uint8 = 1
	OpClear  uint8 = 2

	KindNode uint8 = 0
	KindLink uint8 = 1
)

// FaultOp is one mutation of a TypeFaultsReq batch: 8 bytes each.
type FaultOp struct {
	Op   uint8
	Kind uint8
	Node gc.NodeID
	Dim  uint16
}

const faultOpSize = 8

// AppendFaultsReq appends a complete fault-mutation frame. The payload
// is a u16 op count followed by the ops; a batch is atomic exactly like
// its JSON twin.
func AppendFaultsReq(buf []byte, id uint64, ops []FaultOp) []byte {
	buf = AppendHeader(buf, TypeFaultsReq, id, 2+faultOpSize*len(ops))
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(ops)))
	for _, op := range ops {
		buf = append(buf, op.Op, op.Kind)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(op.Node))
		buf = binary.LittleEndian.AppendUint16(buf, op.Dim)
	}
	return buf
}

// DecodeFaultsReq decodes a TypeFaultsReq payload, reusing into's
// capacity.
func DecodeFaultsReq(p []byte, into *[]FaultOp) error {
	if len(p) < 2 {
		return ErrBadPayload
	}
	n := int(binary.LittleEndian.Uint16(p[0:2]))
	if len(p) != 2+faultOpSize*n {
		return ErrBadPayload
	}
	*into = (*into)[:0]
	for i := 0; i < n; i++ {
		off := 2 + faultOpSize*i
		*into = append(*into, FaultOp{
			Op:   p[off],
			Kind: p[off+1],
			Node: gc.NodeID(binary.LittleEndian.Uint32(p[off+2 : off+6])),
			Dim:  binary.LittleEndian.Uint16(p[off+6 : off+8]),
		})
	}
	return nil
}

// FaultsResult is the payload of TypeFaultsResult: 16 bytes.
type FaultsResult struct {
	Epoch   uint64
	Faults  uint32
	Applied uint32
}

const faultsResultSize = 16

// AppendFaultsResult appends a complete faults-result frame.
func AppendFaultsResult(buf []byte, id uint64, r FaultsResult) []byte {
	buf = AppendHeader(buf, TypeFaultsResult, id, faultsResultSize)
	buf = binary.LittleEndian.AppendUint64(buf, r.Epoch)
	buf = binary.LittleEndian.AppendUint32(buf, r.Faults)
	return binary.LittleEndian.AppendUint32(buf, r.Applied)
}

// DecodeFaultsResult decodes a TypeFaultsResult payload.
func DecodeFaultsResult(p []byte, into *FaultsResult) error {
	if len(p) != faultsResultSize {
		return ErrBadPayload
	}
	into.Epoch = binary.LittleEndian.Uint64(p[0:8])
	into.Faults = binary.LittleEndian.Uint32(p[8:12])
	into.Applied = binary.LittleEndian.Uint32(p[12:16])
	return nil
}

// AppendEmpty appends a payload-less frame (TypeMetricsReq, TypePing).
func AppendEmpty(buf []byte, t Type, id uint64) []byte {
	return AppendHeader(buf, t, id, 0)
}

// AppendPong appends a complete pong frame carrying the current epoch.
func AppendPong(buf []byte, id uint64, epoch uint64) []byte {
	buf = AppendHeader(buf, TypePong, id, 8)
	return binary.LittleEndian.AppendUint64(buf, epoch)
}

// DecodePong decodes a TypePong payload.
func DecodePong(p []byte) (epoch uint64, err error) {
	if len(p) != 8 {
		return 0, ErrBadPayload
	}
	return binary.LittleEndian.Uint64(p), nil
}

// ErrorFrame is the payload of TypeError: u16 code, u16 message length,
// message bytes.
type ErrorFrame struct {
	Code uint16
	Msg  []byte // reused by Decode; copy to keep past the next call
}

// AppendError appends a complete error frame. Messages longer than
// maxFieldLen are truncated to keep the frame self-consistent.
func AppendError(buf []byte, id uint64, code uint16, msg string) []byte {
	if len(msg) > maxFieldLen {
		msg = msg[:maxFieldLen]
	}
	buf = AppendHeader(buf, TypeError, id, 4+len(msg))
	buf = binary.LittleEndian.AppendUint16(buf, code)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(msg)))
	return append(buf, msg...)
}

// DecodeError decodes a TypeError payload, reusing into.Msg's capacity.
func DecodeError(p []byte, into *ErrorFrame) error {
	if len(p) < 4 {
		return ErrBadPayload
	}
	into.Code = binary.LittleEndian.Uint16(p[0:2])
	n := int(binary.LittleEndian.Uint16(p[2:4]))
	if len(p) != 4+n {
		return ErrBadPayload
	}
	into.Msg = append(into.Msg[:0], p[4:]...)
	return nil
}

// ---------------------------------------------------------------------
// Epoch sync: the anti-entropy frames of gccluster.

// EpochSyncReq flags.
const (
	// SyncFlagWantSnapshot asks the responder to skip the incremental
	// suffix and send its complete fault set in one snapshot batch — the
	// requester's fallback after an incremental batch failed its
	// fingerprint check (divergent histories at the same epoch).
	SyncFlagWantSnapshot uint8 = 1 << 0
)

// EpochSyncResp flags.
const (
	// SyncFlagSnapshot marks the response's single batch as a complete
	// fault-set snapshot at (Epoch, FP): the applier rebuilds from empty
	// instead of mutating its current set.
	SyncFlagSnapshot uint8 = 1 << 0
	// SyncFlagMore reports the responder truncated the suffix at its
	// per-response batch cap; the requester should pull again from its
	// new frontier.
	SyncFlagMore uint8 = 1 << 1
)

// EpochSyncReq is the payload of TypeEpochSyncReq: the requester's
// current frontier, fixed 17 bytes.
type EpochSyncReq struct {
	Epoch uint64
	FP    uint64
	Flags uint8
}

const epochSyncReqSize = 17

// AppendEpochSyncReq appends a complete epoch-sync request frame.
func AppendEpochSyncReq(buf []byte, id uint64, r EpochSyncReq) []byte {
	buf = AppendHeader(buf, TypeEpochSyncReq, id, epochSyncReqSize)
	buf = binary.LittleEndian.AppendUint64(buf, r.Epoch)
	buf = binary.LittleEndian.AppendUint64(buf, r.FP)
	return append(buf, r.Flags)
}

// DecodeEpochSyncReq decodes a TypeEpochSyncReq payload.
func DecodeEpochSyncReq(p []byte, into *EpochSyncReq) error {
	if len(p) != epochSyncReqSize {
		return ErrBadPayload
	}
	into.Epoch = binary.LittleEndian.Uint64(p[0:8])
	into.FP = binary.LittleEndian.Uint64(p[8:16])
	into.Flags = p[16]
	return nil
}

// SyncEvent is one fault transition inside a SyncBatch: 16 bytes on
// the wire. Op and Kind reuse the FaultOp constants (OpInject/OpRepair
// and KindNode/KindLink).
type SyncEvent struct {
	Time int64
	Op   uint8
	Kind uint8
	Node gc.NodeID
	Dim  uint16
}

const syncEventSize = 16

// SyncBatch is one epoch step of an EpochSyncResp: the exact
// (epoch, fingerprint) stamp a journal batch carries plus its events.
// The receiver validates by applying the events and comparing its
// resulting fingerprint against FP — a mismatch proves divergent
// histories and triggers the snapshot fallback.
type SyncBatch struct {
	Epoch  uint64
	FP     uint64
	Events []SyncEvent
}

// EpochSyncResp is the payload of TypeEpochSyncResp: the responder's
// frontier, flags, and the batch suffix carrying the requester up to
// it (empty when the requester is already caught up or ahead).
//
//	0   u64  responder epoch
//	8   u64  responder fingerprint
//	16  u8   flags
//	17  u16  batch count
//	19  ...  batches: u64 epoch, u64 fp, u32 event count, events
type EpochSyncResp struct {
	Epoch   uint64
	FP      uint64
	Flags   uint8
	Batches []SyncBatch
}

const (
	epochSyncRespFixed = 19
	syncBatchFixed     = 20
)

// AppendEpochSyncResp appends a complete epoch-sync response frame.
// The batch count is clamped at maxFieldLen (the responder's cap is
// far below it); event counts ride a u32 and are never clamped, so a
// snapshot of any real fault set stays intact.
func AppendEpochSyncResp(buf []byte, id uint64, r *EpochSyncResp) []byte {
	batches := r.Batches
	if len(batches) > maxFieldLen {
		batches = batches[:maxFieldLen]
	}
	plen := epochSyncRespFixed
	for i := range batches {
		plen += syncBatchFixed + syncEventSize*len(batches[i].Events)
	}
	buf = AppendHeader(buf, TypeEpochSyncResp, id, plen)
	buf = binary.LittleEndian.AppendUint64(buf, r.Epoch)
	buf = binary.LittleEndian.AppendUint64(buf, r.FP)
	buf = append(buf, r.Flags)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(batches)))
	for i := range batches {
		b := &batches[i]
		buf = binary.LittleEndian.AppendUint64(buf, b.Epoch)
		buf = binary.LittleEndian.AppendUint64(buf, b.FP)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(b.Events)))
		for _, e := range b.Events {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(e.Time))
			buf = append(buf, e.Op, e.Kind)
			buf = binary.LittleEndian.AppendUint32(buf, uint32(e.Node))
			buf = binary.LittleEndian.AppendUint16(buf, e.Dim)
		}
	}
	return buf
}

// DecodeEpochSyncResp decodes a TypeEpochSyncResp payload, reusing the
// capacity of into.Batches and each batch's Events slice.
func DecodeEpochSyncResp(p []byte, into *EpochSyncResp) error {
	if len(p) < epochSyncRespFixed {
		return ErrBadPayload
	}
	into.Epoch = binary.LittleEndian.Uint64(p[0:8])
	into.FP = binary.LittleEndian.Uint64(p[8:16])
	into.Flags = p[16]
	n := int(binary.LittleEndian.Uint16(p[17:19]))
	if cap(into.Batches) < n {
		into.Batches = make([]SyncBatch, n)
	}
	into.Batches = into.Batches[:n]
	off := epochSyncRespFixed
	for i := 0; i < n; i++ {
		if len(p)-off < syncBatchFixed {
			return ErrBadPayload
		}
		b := &into.Batches[i]
		b.Epoch = binary.LittleEndian.Uint64(p[off : off+8])
		b.FP = binary.LittleEndian.Uint64(p[off+8 : off+16])
		ec := int(binary.LittleEndian.Uint32(p[off+16 : off+20]))
		off += syncBatchFixed
		if ec > (len(p)-off)/syncEventSize {
			return ErrBadPayload
		}
		if cap(b.Events) < ec {
			b.Events = make([]SyncEvent, ec)
		}
		b.Events = b.Events[:ec]
		for k := 0; k < ec; k++ {
			e := &b.Events[k]
			e.Time = int64(binary.LittleEndian.Uint64(p[off : off+8]))
			e.Op = p[off+8]
			e.Kind = p[off+9]
			e.Node = gc.NodeID(binary.LittleEndian.Uint32(p[off+10 : off+14]))
			e.Dim = binary.LittleEndian.Uint16(p[off+14 : off+16])
			off += syncEventSize
		}
	}
	if off != len(p) {
		return ErrBadPayload
	}
	return nil
}
