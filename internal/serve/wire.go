package serve

import (
	"bufio"
	"context"
	"errors"
	"io"
	"net"
	"sync"
	"time"

	"gaussiancube/internal/core"
	"gaussiancube/internal/fault"
	"gaussiancube/internal/gc"
	"gaussiancube/internal/wire"
)

// WireServer is the gcwire binary front end: a TCP listener speaking
// the internal/wire framing on top of the same Server the HTTP layer
// serves (DESIGN.md §11).
//
// The throughput design is one reader goroutine per connection that
// answers every cache hit itself: frames are decoded straight off the
// connection's buffered reader, each RouteReq first tries the
// Server.FastRouteTree cache lookup, and hits are encoded into a
// per-connection write buffer that is flushed in one syscall once the
// reader has drained what the client pipelined. The reader accounts
// its hits in a private per-shard tally and publishes it into the
// shared counters just before each flush's write, so a burst of hits
// writes shared state a few times per shard, not a dozen times per
// hit, and every reply a client reads is already counted served. A
// steady-state hit therefore costs zero heap allocations and no
// goroutine switch.
//
// A miss costs no goroutine either: the reader enqueues it on its
// shard queue with the connection as its completion target, and the
// shard worker that answers it encodes the reply into its batch's
// share for the connection. At the end of the batch the worker appends
// each share to its connection's writeCombiner and signals the
// connection's writer goroutine once, which sends the batch's replies
// in one write. The worker never touches a socket, so a client that
// stops reading stalls only its own connection. Out-of-order replies are the protocol's contract,
// correlated by request id. Only requests that block on a peer — a
// forward to another cluster member, a collective — ride a goroutine,
// and their replies go through the same combiner.
type WireServer struct {
	srv *Server
	ln  net.Listener

	mu     sync.Mutex
	conns  map[net.Conn]*wireConn
	closed bool
	wg     sync.WaitGroup
}

// NewWireServer wraps an accepted listener around a running Server.
// Call Serve to start accepting; Close to stop.
func NewWireServer(s *Server, ln net.Listener) *WireServer {
	return &WireServer{srv: s, ln: ln, conns: make(map[net.Conn]*wireConn)}
}

// Addr returns the listener's address.
func (ws *WireServer) Addr() net.Addr { return ws.ln.Addr() }

// Serve accepts connections until the listener fails or Close is
// called (which returns nil).
func (ws *WireServer) Serve() error {
	for {
		c, err := ws.ln.Accept()
		if err != nil {
			ws.mu.Lock()
			closed := ws.closed
			ws.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		ws.mu.Lock()
		if ws.closed {
			ws.mu.Unlock()
			c.Close()
			return nil
		}
		wc := &wireConn{out: newWriteCombiner(c, 0), kick: make(chan struct{}, 1)}
		ws.conns[c] = wc
		ws.wg.Add(1)
		ws.mu.Unlock()
		go ws.handleConn(c, wc)
	}
}

// Close stops accepting, closes every live connection and waits for
// their handlers to finish, each after its in-flight requests are
// answered.
func (ws *WireServer) Close() error {
	ws.mu.Lock()
	if ws.closed {
		ws.mu.Unlock()
		ws.wg.Wait()
		return nil
	}
	ws.closed = true
	err := ws.ln.Close()
	for c := range ws.conns {
		c.Close()
	}
	ws.mu.Unlock()
	ws.wg.Wait()
	return err
}

// wireConn is one connection's reply side: the combiner every reply
// frame goes through, the wakeup of the writer goroutine that flushes
// it for the shard workers, and the requests answered off the reader
// (queued misses, forwards, collectives) that still owe a reply.
type wireConn struct {
	out      *writeCombiner
	kick     chan struct{} // capacity 1: a pending wakeup covers later ones
	inflight sync.WaitGroup
}

// signal wakes the connection's writer goroutine (write) to flush. It
// never blocks.
func (wc *wireConn) signal() {
	select {
	case wc.kick <- struct{}{}:
	default:
	}
}

// write is the connection's writer goroutine: it flushes on every
// signal until stop closes, so the goroutines that only append and
// signal — the shard workers above all — never wait on the socket. A
// signal that finds a write in progress is answered by that write's
// next pass.
func (wc *wireConn) write(stop <-chan struct{}) {
	for {
		select {
		case <-wc.kick:
			_ = wc.out.flush(nil, 0)
		case <-stop:
			return
		}
	}
}

// reply answers one unicast request with its verdict (or refusal). On
// a shard worker the reply joins the worker's batch (rb), published
// when the batch ends; elsewhere (rb nil) it is queued and the writer
// signalled at once. Either way the inflight count settles only once
// the reply is queued.
func (wc *wireConn) reply(id uint64, resp *Response, err error, rb *replyBatch) {
	if rb != nil {
		st := rb.stage(wc)
		st.buf = appendRouteReply(st.buf, id, resp, err)
		st.n++
		return
	}
	b := wc.out.lock()
	b = appendRouteReply(b, id, resp, err)
	wc.out.unlock(b)
	wc.signal()
	wc.inflight.Done()
}

// replyBatch stages a shard worker's gcwire replies per connection for
// one batch. At the batch's end each connection gets its replies in one
// append and one signal, so its writer sends the whole batch in one
// write and never catches it half-queued.
type replyBatch struct {
	staged []stagedReplies
	used   int
}

// stagedReplies is one connection's share of a batch: n replies
// encoded back to back in buf.
type stagedReplies struct {
	wc  *wireConn
	buf []byte
	n   int
}

// stage returns wc's share of the batch, opening one (and reusing an
// earlier batch's buffer) on its first reply.
func (b *replyBatch) stage(wc *wireConn) *stagedReplies {
	for i := range b.staged[:b.used] {
		if b.staged[i].wc == wc {
			return &b.staged[i]
		}
	}
	if b.used == len(b.staged) {
		b.staged = append(b.staged, stagedReplies{})
	}
	st := &b.staged[b.used]
	b.used++
	st.wc = wc
	return st
}

// publish queues every staged share on its connection, signals the
// connection's writer, and only then settles the replies' inflight
// counts, so a closing connection waits for them.
func (b *replyBatch) publish() {
	for i := range b.staged[:b.used] {
		st := &b.staged[i]
		q := st.wc.out.lock()
		q = append(q, st.buf...)
		st.wc.out.unlock(q)
		st.wc.signal()
		st.wc.inflight.Add(-st.n)
		st.wc, st.buf, st.n = nil, st.buf[:0], 0
	}
	b.used = 0
}

// cachedDetourReason is the fast path's preencoded degraded reason —
// the byte twin of cachedReport's "cached detour".
var cachedDetourReason = []byte("cached detour")

func (ws *WireServer) handleConn(c net.Conn, wc *wireConn) {
	defer ws.wg.Done()
	stop, writerDone := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(writerDone)
		wc.write(stop)
	}()
	br := bufio.NewReaderSize(c, 64<<10)
	var hdr [wire.HeaderSize]byte
	payload := make([]byte, 0, 4096)
	wbuf := make([]byte, 0, 64<<10)
	var res wire.RouteResult // reused fast-path encode scratch
	var req wire.RouteReq
	var ops []wire.FaultOp
	// flushAt is a syscall's worth of batching for the reader's own
	// replies, and the most reply bytes the connection queues before the
	// reader stops reading: a client that does not read its replies
	// stalls its own reader, never a shard worker.
	flushAt := 256 << 10

	// hits accounts the reader's cache hits. It is published before every
	// write of the replies they answer, so a client never reads a reply
	// that Served has not counted.
	hits := ws.srv.newHitTally()
	flush := func() bool {
		hits.publish(ws.srv)
		err := wc.out.flush(wbuf, flushAt)
		wbuf = wbuf[:0]
		return err == nil
	}

read:
	for {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			break
		}
		h, err := wire.ParseHeader(hdr[:])
		if err != nil {
			// A malformed header poisons the stream: answer once, hang up.
			wbuf = wire.AppendError(wbuf, 0, wire.CodeBadRequest, err.Error())
			break
		}
		if cap(payload) < int(h.Len) {
			payload = make([]byte, h.Len)
		}
		payload = payload[:h.Len]
		if _, err := io.ReadFull(br, payload); err != nil {
			break
		}

		switch h.Type {
		case wire.TypeRouteReq:
			if err := wire.DecodeRouteReq(payload, &req); err != nil {
				wbuf = wire.AppendError(wbuf, h.ID, wire.CodeBadRequest, err.Error())
				break
			}
			if req.Flags&wire.RouteFlagNoForward == 0 && !ws.srv.OwnsLocally(req.Src) {
				// Another instance owns this ending class: the request must
				// ride SubmitTree's forwarding path, not the local cache.
				wbuf = ws.routeMiss(wbuf, wc, h.ID, req)
				break
			}
			tree := core.TreeAuto
			if req.Flags&wire.RouteFlagTree != 0 {
				tree = int(req.Tree)
			}
			if sh, ans, ok := ws.srv.lookupHit(req.Src, req.Dst, tree); ok {
				hits.add(sh, &ans)
				res.Outcome = uint8(core.OutcomeDelivered)
				res.Flags = wire.FlagCacheHit
				res.Reason = res.Reason[:0]
				if ans.DetourHops > 0 {
					res.Outcome = uint8(core.OutcomeDeliveredDegraded)
					res.Flags |= wire.FlagDegraded
					res.Reason = cachedDetourReason
				}
				res.Tree = 0
				if ans.Tree >= 0 && ans.Tree <= 255 {
					res.Flags |= wire.FlagHasTree
					res.Tree = uint8(ans.Tree)
				}
				res.Hops = uint16(len(ans.Path) - 1)
				res.Detour = uint16(ans.DetourHops)
				res.Retries, res.Replans, res.Discovered, res.WaitCycles = 0, 0, 0, 0
				res.Epoch = ans.Epoch
				res.Path = ans.Path
				wbuf = wire.AppendRouteResult(wbuf, h.ID, &res)
				break
			}
			wbuf = ws.routeMiss(wbuf, wc, h.ID, req)
		case wire.TypeBroadcastReq:
			var breq wire.BroadcastReq
			if err := wire.DecodeBroadcastReq(payload, &breq); err != nil {
				wbuf = wire.AppendError(wbuf, h.ID, wire.CodeBadRequest, err.Error())
				break
			}
			ws.collectiveMiss(wc, h.ID, breq.Root, nil, false, breq.DeadlineMS, breq.Flags)
		case wire.TypeMulticastReq:
			var mreq wire.MulticastReq
			if err := wire.DecodeMulticastReq(payload, &mreq); err != nil {
				wbuf = wire.AppendError(wbuf, h.ID, wire.CodeBadRequest, err.Error())
				break
			}
			// The decoded list aliases the reused payload buffer; the miss
			// goroutine outlives this read loop iteration, so copy.
			dests := append([]gc.NodeID(nil), mreq.Dests...)
			ws.collectiveMiss(wc, h.ID, mreq.Root, dests, true, mreq.DeadlineMS, mreq.Flags)
		case wire.TypeFaultsReq:
			if err := wire.DecodeFaultsReq(payload, &ops); err != nil {
				wbuf = wire.AppendError(wbuf, h.ID, wire.CodeBadRequest, err.Error())
				break
			}
			wbuf = ws.applyFaults(wbuf, h.ID, ops)
		case wire.TypeMetricsReq:
			doc, err := ws.srv.Metrics().JSON()
			if err != nil {
				wbuf = wire.AppendError(wbuf, h.ID, wire.CodeBadRequest, err.Error())
				break
			}
			wbuf = wire.AppendHeader(wbuf, wire.TypeMetricsResult, h.ID, len(doc))
			wbuf = append(wbuf, doc...)
		case wire.TypeEpochSyncReq:
			var sreq wire.EpochSyncReq
			if err := wire.DecodeEpochSyncReq(payload, &sreq); err != nil {
				wbuf = wire.AppendError(wbuf, h.ID, wire.CodeBadRequest, err.Error())
				break
			}
			wbuf = ws.epochSync(wbuf, h.ID, sreq)
		case wire.TypePing:
			wbuf = wire.AppendPong(wbuf, h.ID, ws.srv.Epoch())
		default:
			// Server-inbound streams carry requests only.
			wbuf = wire.AppendError(wbuf, h.ID, wire.CodeBadRequest, "wire: unexpected frame type")
		}

		// Flush once the client's pipelined burst is drained, or once the
		// reader's buffer or the connection's queue has grown past
		// flushAt; the latter waits for the socket before reading on.
		if (br.Buffered() < wire.HeaderSize && len(wbuf) > 0) || len(wbuf) > flushAt || wc.out.queuedBytes() > flushAt {
			if !flush() {
				break read
			}
		}
	}
	flush()
	// Let in-flight requests answer (Shutdown guarantees queued tasks are
	// served), then send what they queued before the connection goes
	// away under them.
	wc.inflight.Wait()
	_ = wc.out.flush(nil, 0)
	close(stop)
	<-writerDone
	ws.mu.Lock()
	delete(ws.conns, c)
	ws.mu.Unlock()
	c.Close()
}

// routeMiss answers a RouteReq the fast path could not. A request this
// instance serves is enqueued with the connection as its completion
// target, so the shard worker that answers it queues the reply, with
// OutcomeCanceled if its deadline died in the queue. A request another
// member owns blocks on the forward, so it alone gets a goroutine. The
// NoForward flag pins the request to this instance, the hop bound that
// keeps ownership disagreements from looping a request between peers.
// A refusal is appended to wbuf, the reader's own batch.
func (ws *WireServer) routeMiss(wbuf []byte, wc *wireConn, id uint64, req wire.RouteReq) []byte {
	tree := core.TreeAuto
	if req.Flags&wire.RouteFlagTree != 0 {
		tree = int(req.Tree)
	}
	timeout := time.Duration(req.DeadlineMS) * time.Millisecond
	wc.inflight.Add(1)
	if req.Flags&wire.RouteFlagNoForward == 0 && !ws.srv.OwnsLocally(req.Src) {
		go func() {
			ctx := context.Background()
			if timeout > 0 {
				var cancel context.CancelFunc
				ctx, cancel = context.WithTimeout(ctx, timeout)
				defer cancel()
			}
			resp, err := ws.srv.SubmitTree(ctx, req.Src, req.Dst, tree)
			wc.reply(id, resp, err, nil)
		}()
		return wbuf
	}
	if err := ws.srv.submitRoute(context.Background(), timeout, req.Src, req.Dst, tree, completion{wc: wc, id: id}); err != nil {
		wc.inflight.Done()
		return appendRouteReply(wbuf, id, nil, err)
	}
	return wbuf
}

// appendRouteReply encodes one unicast answer as its reply frame: an
// error frame for a refusal (err) or a request-level failure
// (resp.Err), the RouteResult otherwise.
func appendRouteReply(dst []byte, id uint64, resp *Response, err error) []byte {
	switch {
	case err != nil:
		return appendRefusal(dst, id, err)
	case resp.Err != nil:
		code := wire.CodeBadRequest
		if errors.Is(resp.Err, core.ErrFaultyEndpoint) {
			code = wire.CodeFaultyNode
		}
		return wire.AppendError(dst, id, code, resp.Err.Error())
	}
	rep := resp.Report
	res := wire.RouteResult{
		Outcome:    uint8(rep.Outcome),
		Hops:       uint16(rep.Hops),
		Detour:     uint16(rep.DetourHops),
		Retries:    uint16(rep.Retries),
		Replans:    uint16(rep.Replans),
		Discovered: uint16(len(rep.Discovered)),
		WaitCycles: uint32(rep.WaitCycles),
		Epoch:      resp.Epoch,
		Reason:     []byte(rep.Reason),
		Path:       rep.Path,
	}
	if resp.CacheHit {
		res.Flags |= wire.FlagCacheHit
	}
	if rep.Outcome == core.OutcomeDeliveredDegraded {
		res.Flags |= wire.FlagDegraded
	}
	if rep.UsedFallback {
		res.Flags |= wire.FlagUsedFallback
	}
	if rep.TreeID >= 0 && rep.TreeID <= 255 {
		res.Flags |= wire.FlagHasTree
		res.Tree = uint8(rep.TreeID)
	}
	return wire.AppendRouteResult(dst, id, &res)
}

// appendRefusal encodes a submission-level refusal as its error frame,
// in the HTTP layer's status vocabulary: 429 backpressure, 503 drain,
// 400 anything else.
func appendRefusal(dst []byte, id uint64, err error) []byte {
	code := wire.CodeBadRequest
	switch {
	case errors.Is(err, ErrBackpressure):
		code = wire.CodeBackpressure
	case errors.Is(err, ErrDraining):
		code = wire.CodeDraining
	}
	return wire.AppendError(dst, id, code, err.Error())
}

// collectiveMiss serves a broadcast/multicast request off the reader
// goroutine — a collective is always a whole-plan computation, never a
// cache hit, and may fan out to peers — and queues its CollectiveResult
// frame on the connection's combiner. NoForward pins the request to
// this instance, exactly as for unicast misses.
func (ws *WireServer) collectiveMiss(wc *wireConn, id uint64, root gc.NodeID, dests []gc.NodeID, multicast bool, deadlineMS uint32, flags uint8) {
	wc.inflight.Add(1)
	go func() {
		defer wc.inflight.Done()
		ctx := context.Background()
		if deadlineMS > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, time.Duration(deadlineMS)*time.Millisecond)
			defer cancel()
		}
		var resp *CollectiveResponse
		var err error
		switch {
		case flags&wire.RouteFlagNoForward != 0:
			resp, err = ws.srv.SubmitCollectiveLocal(ctx, root, dests, multicast)
		case multicast:
			resp, err = ws.srv.SubmitMulticast(ctx, root, dests)
		default:
			resp, err = ws.srv.SubmitBroadcast(ctx, root)
		}
		b := wc.out.lock()
		switch {
		case err != nil:
			b = appendRefusal(b, id, err)
		case resp.Err != nil:
			b = wire.AppendError(b, id, wire.CodeBadRequest, resp.Err.Error())
		default:
			res := collectiveWireResult(resp)
			b = wire.AppendCollectiveResult(b, id, &res)
		}
		wc.out.unlock(b)
		wc.signal()
	}()
}

// collectiveWireResult flattens a served collective onto the binary
// frame, clamping hop counts into the record's i16.
func collectiveWireResult(resp *CollectiveResponse) wire.CollectiveResult {
	rep := resp.Report
	res := wire.CollectiveResult{
		Root:      rep.Root,
		Origin:    rep.Origin,
		Delivered: uint32(rep.Delivered),
		Degraded:  uint32(rep.Degraded),
		Unreached: uint32(rep.Unreached),
		Epoch:     resp.Epoch,
		Dests:     make([]wire.DestRecord, len(rep.Dests)),
	}
	if rep.ReRooted {
		res.Flags |= wire.CollectiveFlagReRooted
	}
	if resp.Degraded {
		res.Flags |= wire.CollectiveFlagDegradedEpoch
	}
	for i, st := range rep.Dests {
		hops := st.Hops
		if hops > 32767 {
			hops = 32767
		}
		res.Dests[i] = wire.DestRecord{Dest: st.Dest, Outcome: uint8(st.Outcome), Hops: int16(hops)}
	}
	return res
}

// applyFaults translates a binary mutation batch onto ApplyFaults and
// encodes the verdict. Unknown codes are rejected before any op is
// applied, preserving batch atomicity.
func (ws *WireServer) applyFaults(wbuf []byte, id uint64, ops []wire.FaultOp) []byte {
	batch := make([]FaultOp, len(ops))
	for i, op := range ops {
		switch op.Op {
		case wire.OpInject:
			batch[i].Op = OpInject
		case wire.OpRepair:
			batch[i].Op = OpRepair
		case wire.OpClear:
			batch[i].Op = OpClear
		default:
			return wire.AppendError(wbuf, id, wire.CodeBadRequest, "wire: unknown fault op")
		}
		switch op.Kind {
		case wire.KindNode:
			batch[i].Kind = KindNode
		case wire.KindLink:
			batch[i].Kind = KindLink
		default:
			return wire.AppendError(wbuf, id, wire.CodeBadRequest, "wire: unknown fault kind")
		}
		batch[i].Node = gc.NodeID(op.Node)
		batch[i].Dim = uint(op.Dim)
	}
	epoch, faults, err := ws.srv.ApplyFaults(batch)
	if err != nil {
		code := wire.CodeBadRequest
		if errors.Is(err, ErrJournal) {
			// A journal-append refusal is the server's failure, not the
			// client's: CodeInternal, and the stream stays in sync — the
			// error frame is a complete, correlated reply.
			code = wire.CodeInternal
		}
		return wire.AppendError(wbuf, id, code, err.Error())
	}
	return wire.AppendFaultsResult(wbuf, id, wire.FaultsResult{
		Epoch:   epoch,
		Faults:  uint32(faults),
		Applied: uint32(len(ops)),
	})
}

// maxSyncBatches bounds one epoch-sync response's batch suffix; a
// requester further behind pulls again from its new frontier
// (SyncFlagMore).
const maxSyncBatches = 256

// epochSync answers a peer's anti-entropy pull. A requester at or
// ahead of our frontier gets an empty response (its next pull goes the
// other way); a requester behind gets the journal suffix after its
// epoch, or a full snapshot when it asked for one, when its epoch
// equals ours with a different fingerprint (divergent histories — a
// suffix cannot reconcile them), or when the journal cannot serve the
// horizon (no journal, compacted away, still replaying).
func (ws *WireServer) epochSync(wbuf []byte, id uint64, req wire.EpochSyncReq) []byte {
	epoch, fp := ws.srv.Frontier()
	resp := wire.EpochSyncResp{Epoch: epoch, FP: fp}
	if fault.CompareFrontier(req.Epoch, req.FP, epoch, fp) >= 0 {
		return wire.AppendEpochSyncResp(wbuf, id, &resp)
	}
	conflict := req.Epoch == epoch && req.FP != fp
	if req.Flags&wire.SyncFlagWantSnapshot == 0 && !conflict {
		if batches, ok := ws.srv.ReadJournalSince(req.Epoch); ok {
			if len(batches) > maxSyncBatches {
				batches = batches[:maxSyncBatches]
				resp.Flags |= wire.SyncFlagMore
			}
			resp.Batches = make([]wire.SyncBatch, len(batches))
			for i := range batches {
				resp.Batches[i] = wire.SyncBatch{
					Epoch:  batches[i].Epoch,
					FP:     batches[i].FP,
					Events: WireSyncEvents(batches[i].Events),
				}
			}
			return wire.AppendEpochSyncResp(wbuf, id, &resp)
		}
	}
	sepoch, sfp, events := ws.srv.SnapshotEvents()
	resp.Epoch, resp.FP = sepoch, sfp
	resp.Flags |= wire.SyncFlagSnapshot
	resp.Batches = []wire.SyncBatch{{Epoch: sepoch, FP: sfp, Events: WireSyncEvents(events)}}
	return wire.AppendEpochSyncResp(wbuf, id, &resp)
}
